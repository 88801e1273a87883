//===- ir/Decode.h - Flat decoded form of a method --------------*- C++ -*-===//
///
/// \file
/// The one lowering of a method into a flat array of ops, shared by the
/// two step loops that run IR: the execution engine (exec::Interpreter)
/// and object inspection (core::ObjectInspector). A method is decoded
/// once and then stepped op by op:
///
///  - every argument and instruction owns the register slot of its dense
///    value id; constants get slots after those (past one scratch slot)
///    and are copied into each new frame, so an operand is always a plain
///    slot read;
///  - field offsets, static addresses and array element sizes are baked
///    into the op, and every binary/conversion op is specialized to its
///    operand width;
///  - branch targets are CFG edges: the target op plus the block's
///    leading phis as a sequentialized parallel-move list (one scratch
///    slot breaks move cycles);
///  - malformed IR decodes to trap ops: an instruction that cannot run
///    (an f64 operation f64 lacks, a call with no callee) becomes a
///    TrapInst, a block without a terminator ends in a TrapEdge, and an
///    edge whose phi has no input for its predecessor leads to a shared
///    trailing TrapEdge.
///
/// Each op keeps its instruction (Op::I), so a step loop can still key
/// per-instruction state (load sites, inspection traces) on the IR.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_IR_DECODE_H
#define SPF_IR_DECODE_H

#include "ir/Method.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace spf {
namespace ir {

/// An absent register slot (no result, no return value).
constexpr uint32_t NoSlot = std::numeric_limits<uint32_t>::max();
/// A load site not yet assigned (Op::Site before first execution).
constexpr uint32_t NoSite = std::numeric_limits<uint32_t>::max();

// Integer binary operations with no failure mode, and the ones f64 has.
#define SPF_INT_PURE_BINOPS(X)                                                 \
  X(Add) X(Sub) X(Mul) X(And) X(Or) X(Xor) X(Shl) X(Shr) X(CmpEq) X(CmpNe)     \
  X(CmpLt) X(CmpLe) X(CmpGt) X(CmpGe)
#define SPF_F64_BINOPS(X)                                                      \
  X(Add) X(Sub) X(Mul) X(Div) X(CmpEq) X(CmpNe) X(CmpLt) X(CmpLe) X(CmpGt)     \
  X(CmpGe)

enum class OpKind : uint8_t {
#define SPF_KIND(N) N##I32, N##I64,
  SPF_INT_PURE_BINOPS(SPF_KIND)
#undef SPF_KIND
#define SPF_KIND(N) N##F64,
  SPF_F64_BINOPS(SPF_KIND)
#undef SPF_KIND
  DivI32, DivI64, RemI32, RemI64,
  SExt, Trunc, IToF, FToI,
  GetField32, GetField64, PutField32, PutField64,
  GetStatic32, GetStatic64, PutStatic32, PutStatic64,
  ALoad32, ALoad64, AStore32, AStore64, ArrayLength,
  NewObject, NewArray, Call, Branch, Jump, Ret,
  Prefetch, GuardedPrefetch, SpecLoad,
  /// A retired instruction that always traps (Imm: TrapMsgs index).
  TrapInst,
  /// A control transfer that traps without retiring anything.
  TrapEdge,
};

/// True for the binary and conversion kinds (every kind up to FToI).
constexpr bool isArithmetic(OpKind K) { return K <= OpKind::FToI; }

extern const char *const TrapMsgs[];
enum TrapMsg : int64_t { InvalidF64, Unresolved, FellOff, MissingPhiInput };

/// One decoded operation. Slots index the frame's registers; Imm holds
/// the op's static operand (field offset, static address, element size,
/// displacement, trap message).
struct Op {
  OpKind K;
  uint32_t Dst = NoSlot;
  /// Operand slots. Branch: A = condition, B/C = true/false edge. Jump:
  /// B = edge. Call: A = call-site index. Prefetch/SpecLoad: A = base,
  /// B = index (a zero constant when absent), C = scale.
  uint32_t A = NoSlot, B = NoSlot, C = NoSlot;
  /// Load site (loads), or attribution site (governed prefetches); filled
  /// on first execution by the engine.
  uint32_t Site = NoSite;
  int64_t Imm = 0;
  const Instruction *I = nullptr;
};

struct DecodedMethod {
  /// A CFG edge: the target op plus the phi moves [MovesBegin, MovesEnd).
  struct Edge {
    uint32_t Target;
    uint32_t MovesBegin, MovesEnd;
  };
  struct CallSite {
    Method *Callee;
    uint32_t ArgsBegin, NumArgs; ///< Range in ArgSlots.
  };

  Method *M = nullptr;
  std::vector<Op> Ops;
  std::vector<Edge> Edges;
  std::vector<std::pair<uint32_t, uint32_t>> Moves; ///< (dst, src) slots.
  std::vector<CallSite> Calls;
  std::vector<uint32_t> ArgSlots;
  /// Slots [NumValues + 1, NumSlots) start with these; slot NumValues is
  /// the scratch that breaks phi-move cycles.
  std::vector<uint64_t> Consts;
  /// Ref-typed value slots, in value-id order: the frame's GC roots.
  std::vector<uint32_t> RefSlots;
  uint32_t NumValues = 0;
  uint32_t NumSlots = 0;
};

/// Lowers \p M (renumbering it first). The entry block's ops start at
/// op 0.
std::unique_ptr<DecodedMethod> decode(Method *M);

} // namespace ir
} // namespace spf

#endif // SPF_IR_DECODE_H
