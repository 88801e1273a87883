//===- ir/Semantics.h - Java-exact IR arithmetic ----------------*- C++ -*-===//
///
/// \file
/// The one definition of what IR arithmetic computes. Values are 64-bit
/// slot bit patterns: i32 values live sign-extended, f64 values as their
/// IEEE bits, refs as simulated addresses. The rules are Java's:
///
///  - integer arithmetic wraps (computed through unsigned arithmetic, so
///    no host-side signed overflow ever happens);
///  - shift counts are masked to the operand width (31 for i32, 63 for
///    i64), so `shl i32 1, 33` is 2;
///  - `MIN / -1 == MIN` and `MIN % -1 == 0`;
///  - the only integer failure is a zero divisor;
///  - f64 -> i32 truncates toward zero, saturates, and maps NaN to 0.
///
/// The execution engine, the constant folder and the object inspector all
/// evaluate through these functions, so the three agree on every input.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_IR_SEMANTICS_H
#define SPF_IR_SEMANTICS_H

#include "ir/Instruction.h"

#include <cmath>
#include <cstdint>
#include <optional>

namespace spf {
namespace ir {
namespace sem {

using BinOp = BinaryInst::BinOp;
using ConvOp = ConvInst::ConvOp;

/// Sign-extends the low 32 bits of \p V (the slot form of an i32).
constexpr uint64_t sext32(uint64_t V) {
  return static_cast<uint64_t>(
      static_cast<int64_t>(static_cast<int32_t>(static_cast<uint32_t>(V))));
}

inline double asF64(uint64_t Bits) {
  double D;
  __builtin_memcpy(&D, &Bits, 8);
  return D;
}

inline uint64_t f64Bits(double D) {
  uint64_t Bits;
  __builtin_memcpy(&Bits, &D, 8);
  return Bits;
}

/// The arithmetic width a binary operation runs at, from its operand type.
/// Refs compare and combine as 64-bit integers.
enum class Width : uint8_t { I32, I64, F64 };

constexpr Width widthOf(Type OpTy) {
  return OpTy == Type::I32 ? Width::I32
         : OpTy == Type::F64 ? Width::F64
                             : Width::I64;
}

/// False for the operations f64 does not define (rem, bitwise, shifts).
constexpr bool isDefined(BinOp Op, Width W) {
  if (W != Width::F64)
    return true;
  return Op == BinOp::Add || Op == BinOp::Sub || Op == BinOp::Mul ||
         Op == BinOp::Div || Op >= BinOp::CmpEq;
}

/// True when \p Op can fail at run time: integer division and remainder
/// (by zero).
constexpr bool canTrap(BinOp Op, Width W) {
  return W != Width::F64 && (Op == BinOp::Div || Op == BinOp::Rem);
}

/// Evaluates \p Op at width \p W. Preconditions: isDefined(Op, W), and a
/// nonzero divisor when canTrap(Op, W).
template <BinOp Op, Width W> inline uint64_t binary(uint64_t L, uint64_t R) {
  if constexpr (W == Width::F64) {
    double A = asF64(L), C = asF64(R);
    if constexpr (Op == BinOp::Add) return f64Bits(A + C);
    else if constexpr (Op == BinOp::Sub) return f64Bits(A - C);
    else if constexpr (Op == BinOp::Mul) return f64Bits(A * C);
    else if constexpr (Op == BinOp::Div) return f64Bits(A / C);
    else if constexpr (Op == BinOp::CmpEq) return A == C;
    else if constexpr (Op == BinOp::CmpNe) return A != C;
    else if constexpr (Op == BinOp::CmpLt) return A < C;
    else if constexpr (Op == BinOp::CmpLe) return A <= C;
    else if constexpr (Op == BinOp::CmpGt) return A > C;
    else if constexpr (Op == BinOp::CmpGe) return A >= C;
    else static_assert(Op == BinOp::CmpGe, "operation undefined on f64");
  } else {
    // Both operands are sign-extended when W == I32, so the signed
    // comparisons and the 64-bit quotient need no width split.
    constexpr bool Narrow = W == Width::I32;
    constexpr uint64_t ShiftMask = Narrow ? 31 : 63;
    auto Wrap = [](uint64_t V) { return Narrow ? sext32(V) : V; };
    int64_t A = static_cast<int64_t>(L), C = static_cast<int64_t>(R);
    if constexpr (Op == BinOp::Add) return Wrap(L + R);
    else if constexpr (Op == BinOp::Sub) return Wrap(L - R);
    else if constexpr (Op == BinOp::Mul) return Wrap(L * R);
    else if constexpr (Op == BinOp::Div)
      // x / -1 is negation, which wraps MIN to MIN; A / C itself would
      // overflow (and trap on x86) for the 64-bit MIN.
      return C == -1 ? Wrap(0 - L) : Wrap(static_cast<uint64_t>(A / C));
    else if constexpr (Op == BinOp::Rem)
      return C == -1 ? 0 : Wrap(static_cast<uint64_t>(A % C));
    else if constexpr (Op == BinOp::And) return L & R;
    else if constexpr (Op == BinOp::Or) return L | R;
    else if constexpr (Op == BinOp::Xor) return L ^ R;
    else if constexpr (Op == BinOp::Shl) return Wrap(L << (R & ShiftMask));
    else if constexpr (Op == BinOp::Shr)
      return static_cast<uint64_t>(A >> (R & ShiftMask));
    else if constexpr (Op == BinOp::CmpEq) return L == R;
    else if constexpr (Op == BinOp::CmpNe) return L != R;
    else if constexpr (Op == BinOp::CmpLt) return A < C;
    else if constexpr (Op == BinOp::CmpLe) return A <= C;
    else if constexpr (Op == BinOp::CmpGt) return A > C;
    else return A >= C;
  }
}

/// Evaluates \p Op over operands of type \p OpTy. std::nullopt when the
/// result is not defined: a zero integer divisor, or an operation f64
/// does not have. Callers decide what undefined means (the engine traps,
/// the folder declines, the inspector yields `unknown`).
std::optional<uint64_t> evalBinary(BinOp Op, Type OpTy, uint64_t L,
                                   uint64_t R);

/// Java's d2i: truncation toward zero, saturating, NaN -> 0.
inline int32_t f64ToI32(double D) {
  if (std::isnan(D))
    return 0;
  if (D >= 2147483647.0)
    return INT32_MAX;
  if (D <= -2147483648.0)
    return INT32_MIN;
  return static_cast<int32_t>(D);
}

template <ConvOp Op> inline uint64_t conv(uint64_t S) {
  if constexpr (Op == ConvOp::SExt32To64) return S;
  else if constexpr (Op == ConvOp::Trunc64To32) return sext32(S);
  else if constexpr (Op == ConvOp::IToF)
    return f64Bits(static_cast<double>(static_cast<int64_t>(S)));
  else return static_cast<uint64_t>(static_cast<int64_t>(f64ToI32(asF64(S))));
}

/// Evaluates a conversion; every conversion is total.
uint64_t evalConv(ConvOp Op, uint64_t S);

} // namespace sem
} // namespace ir
} // namespace spf

#endif // SPF_IR_SEMANTICS_H
