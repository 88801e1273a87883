//===- exec/Interpreter.cpp -----------------------------------------------===//
///
/// The decoded execution engine. A method is lowered once, on first call,
/// into a flat array of ops:
///
///  - every argument and instruction owns the register slot of its dense
///    value id; constants get slots after those (past one scratch slot)
///    and are copied into each new frame, so an operand is always a plain
///    slot read;
///  - field offsets, static addresses and array element sizes are baked
///    into the op, and every binary/conversion op is specialized to its
///    operand width;
///  - branch targets are op indices; the leading phis of a block become a
///    sequentialized parallel-move list on each incoming CFG edge (one
///    scratch slot breaks move cycles);
///  - a load's SiteId is looked up on its first execution and cached in
///    the op, which keeps the first-execution numbering.
///
/// Activations live on one contiguous register stack; calls and returns
/// switch frames inside a single loop instead of recursing.
///
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"

#include "ir/Semantics.h"
#include "support/ErrorHandling.h"
#include "support/FaultInjection.h"
#include "support/Status.h"

#include <algorithm>
#include <limits>

using namespace spf;
using namespace spf::exec;
using namespace spf::ir;

namespace {

/// A runtime condition the simulated program cannot recover from. Thrown
/// (not fatal): the VM process survives, the harness quarantines the cell.
[[noreturn]] void trap(const char *Msg) { throw support::RuntimeTrap(Msg); }

constexpr uint32_t NoSlot = std::numeric_limits<uint32_t>::max();
constexpr SiteId NoSite = std::numeric_limits<SiteId>::max();
/// Deepest simulated call chain before the overflow trap.
constexpr size_t MaxCallDepth = 512;

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

const char *const TrapMsgs[] = {
    "invalid f64 binary op",
    "call to unresolved method",
    "fell off the end of a block without a terminator",
    "phi has no incoming value for predecessor",
};
enum TrapMsg : int64_t { InvalidF64, Unresolved, FellOff, MissingPhiInput };

OpKind binaryKind(BinaryInst::BinOp Op, sem::Width W) {
  using BinOp = BinaryInst::BinOp;
  switch (W) {
  case sem::Width::I32:
    switch (Op) {
#define SPF_KIND(N)                                                            \
  case BinOp::N: return OpKind::N##I32;
      SPF_INT_PURE_BINOPS(SPF_KIND)
#undef SPF_KIND
    case BinOp::Div: return OpKind::DivI32;
    case BinOp::Rem: return OpKind::RemI32;
    }
    break;
  case sem::Width::I64:
    switch (Op) {
#define SPF_KIND(N)                                                            \
  case BinOp::N: return OpKind::N##I64;
      SPF_INT_PURE_BINOPS(SPF_KIND)
#undef SPF_KIND
    case BinOp::Div: return OpKind::DivI64;
    case BinOp::Rem: return OpKind::RemI64;
    }
    break;
  case sem::Width::F64:
    switch (Op) {
#define SPF_KIND(N)                                                            \
  case BinOp::N: return OpKind::N##F64;
      SPF_F64_BINOPS(SPF_KIND)
#undef SPF_KIND
    default:
      break;
    }
    break;
  }
  spf_unreachable("binary op without a decoded kind");
}

} // namespace

/// One decoded operation. Slots index the frame's registers; Imm holds
/// the op's static operand (field offset, static address, element size,
/// displacement, trap message).
struct Interpreter::Op {
  OpKind K;
  uint32_t Dst = NoSlot;
  /// Operand slots. Branch: A = condition, B/C = true/false edge. Jump:
  /// B = edge. Call: A = call-site index. Prefetch/SpecLoad: A = base,
  /// B = index (a zero constant when absent), C = scale.
  uint32_t A = NoSlot, B = NoSlot, C = NoSlot;
  /// Load site (loads), or attribution site (governed prefetches); filled
  /// on first execution.
  SiteId Site = NoSite;
  int64_t Imm = 0;
  const Instruction *I = nullptr;
};

struct Interpreter::DecodedMethod {
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

void Interpreter::setDeadline(double Seconds) {
  HasDeadline = Seconds > 0.0;
  if (HasDeadline) {
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(Seconds));
    // Cover the watchdog's blind spot: GC (and the allocation slow path
    // that triggers it) retires no instructions, so the per-4096-retired
    // check never runs there. The collector polls this checkpoint at the
    // same cadence inside every collection phase.
    Gc.setCheckpoint([this] { checkDeadline(); });
  } else {
    Gc.setCheckpoint(nullptr);
  }
}

void Interpreter::checkDeadline() const {
  if (HasDeadline && std::chrono::steady_clock::now() >= Deadline)
    throw support::CellTimeout("cell wall-clock deadline exceeded");
}

Interpreter::Interpreter(vm::Heap &Heap, AccessSink &Sink,
                         std::vector<vm::Addr> *ExternalRoots)
    : Heap(Heap), Sink(Sink), ExternalRoots(ExternalRoots) {}

Interpreter::~Interpreter() = default;

SiteId Interpreter::siteOf(const ir::Instruction *I) {
  auto It = LoadSites.find(I);
  if (It != LoadSites.end())
    return It->second;
  SiteId Id = static_cast<SiteId>(LoadSites.size());
  LoadSites.emplace(I, Id);
  return Id;
}

void Interpreter::enableMixedMode(CompileHook Hook, unsigned Threshold,
                                  unsigned Penalty) {
  MixedModeHook = std::move(Hook);
  CompileThreshold = Threshold;
  InterpPenalty = Penalty;
}

//===----------------------------------------------------------------------===//
// Decoding
//===----------------------------------------------------------------------===//

namespace {

/// Orders the parallel moves \p Pending (distinct destinations) into
/// sequential copies appended to \p Out, breaking cycles through \p Temp.
void sequentializeMoves(std::vector<std::pair<uint32_t, uint32_t>> Pending,
                        uint32_t Temp,
                        std::vector<std::pair<uint32_t, uint32_t>> &Out) {
  std::erase_if(Pending, [](const auto &Mv) { return Mv.first == Mv.second; });
  auto IsRead = [&](uint32_t Slot) {
    return std::any_of(Pending.begin(), Pending.end(),
                       [&](const auto &Mv) { return Mv.second == Slot; });
  };
  while (!Pending.empty()) {
    bool Progress = false;
    for (size_t I = 0; I < Pending.size();) {
      if (IsRead(Pending[I].first)) {
        ++I;
        continue;
      }
      Out.push_back(Pending[I]);
      Pending.erase(Pending.begin() + static_cast<ptrdiff_t>(I));
      Progress = true;
    }
    if (Progress)
      continue;
    // Only cycles remain: park one destination's old value in Temp and
    // let its readers take it from there.
    uint32_t Slot = Pending.front().first;
    Out.emplace_back(Temp, Slot);
    for (auto &Mv : Pending)
      if (Mv.second == Slot)
        Mv.second = Temp;
  }
}

} // namespace

std::unique_ptr<Interpreter::DecodedMethod> Interpreter::decode(Method *M) {
  auto D = std::make_unique<DecodedMethod>();
  D->M = M;
  M->renumber();

  uint32_t NumValues = M->numArgs();
  for (const auto &Arg : M->arguments())
    if (Arg->type() == Type::Ref)
      D->RefSlots.push_back(Arg->id());
  for (const auto &BB : M->blocks())
    for (const auto &I : BB->instructions()) {
      ++NumValues;
      if (I->type() == Type::Ref)
        D->RefSlots.push_back(I->id());
    }
  D->NumValues = NumValues;
  const uint32_t Temp = NumValues;

  std::unordered_map<uint64_t, uint32_t> ConstSlot;
  auto ConstSlotOf = [&](uint64_t Raw) {
    auto [It, New] = ConstSlot.try_emplace(
        Raw, Temp + 1 + static_cast<uint32_t>(D->Consts.size()));
    if (New)
      D->Consts.push_back(Raw);
    return It->second;
  };
  auto SlotOf = [&](const Value *V) -> uint32_t {
    if (const auto *C = dyn_cast<Constant>(V))
      return ConstSlotOf(C->raw());
    return V->id(); // Arguments and instructions share the id space.
  };

  // Op index of each block's first op. A block contributes its non-phi
  // instructions up to the first terminator (nothing after it can run),
  // or a fall-off trap when it has none. One trailing op catches edges
  // whose phis lack an input for their predecessor.
  std::unordered_map<const BasicBlock *, uint32_t> BlockPC;
  uint32_t PC = 0;
  for (const auto &BB : M->blocks()) {
    BlockPC[BB.get()] = PC;
    bool Terminated = false;
    for (const auto &I : BB->instructions()) {
      if (isa<PhiInst>(I.get()))
        continue;
      ++PC;
      if (I->isTerminator()) {
        Terminated = true;
        break;
      }
    }
    if (!Terminated)
      ++PC;
  }
  const uint32_t MissingPhiPC = PC;

  auto AddEdge = [&](const BasicBlock *From, const BasicBlock *To) {
    DecodedMethod::Edge E;
    auto It = BlockPC.find(To);
    assert(It != BlockPC.end() && "branch to a block of another method");
    E.Target = It->second;
    std::vector<std::pair<uint32_t, uint32_t>> Parallel;
    for (const auto &IP : To->instructions()) {
      const auto *Phi = dyn_cast<PhiInst>(IP.get());
      if (!Phi)
        break;
      const Value *In = Phi->valueFor(From);
      if (!In) {
        E.Target = MissingPhiPC;
        Parallel.clear();
        break;
      }
      Parallel.emplace_back(Phi->id(), SlotOf(In));
    }
    E.MovesBegin = static_cast<uint32_t>(D->Moves.size());
    sequentializeMoves(std::move(Parallel), Temp, D->Moves);
    E.MovesEnd = static_cast<uint32_t>(D->Moves.size());
    D->Edges.push_back(E);
    return static_cast<uint32_t>(D->Edges.size() - 1);
  };

  auto TrapOp = [](OpKind K, TrapMsg Msg) {
    Op O;
    O.K = K;
    O.Imm = Msg;
    return O;
  };

  for (const auto &BB : M->blocks()) {
    bool Terminated = false;
    for (const auto &IP : BB->instructions()) {
      Instruction *I = IP.get();
      if (isa<PhiInst>(I))
        continue;
      Op O;
      O.I = I;
      switch (I->opcode()) {
      case Opcode::Binary: {
        auto *B = cast<BinaryInst>(I);
        sem::Width W = sem::widthOf(B->lhs()->type());
        if (!sem::isDefined(B->binOp(), W)) {
          O = TrapOp(OpKind::TrapInst, InvalidF64);
          break;
        }
        O.K = binaryKind(B->binOp(), W);
        O.Dst = I->id();
        O.A = SlotOf(B->lhs());
        O.B = SlotOf(B->rhs());
        break;
      }
      case Opcode::Conv: {
        auto *C = cast<ConvInst>(I);
        switch (C->convOp()) {
        case ConvInst::ConvOp::SExt32To64: O.K = OpKind::SExt; break;
        case ConvInst::ConvOp::Trunc64To32: O.K = OpKind::Trunc; break;
        case ConvInst::ConvOp::IToF: O.K = OpKind::IToF; break;
        case ConvInst::ConvOp::FToI: O.K = OpKind::FToI; break;
        }
        O.Dst = I->id();
        O.A = SlotOf(C->src());
        break;
      }
      case Opcode::GetField: {
        auto *G = cast<GetFieldInst>(I);
        O.K = G->type() == Type::I32 ? OpKind::GetField32 : OpKind::GetField64;
        O.Dst = I->id();
        O.A = SlotOf(G->object());
        O.Imm = G->field()->Offset;
        break;
      }
      case Opcode::PutField: {
        auto *P = cast<PutFieldInst>(I);
        O.K = P->field()->Ty == Type::I32 ? OpKind::PutField32
                                          : OpKind::PutField64;
        O.A = SlotOf(P->object());
        O.B = SlotOf(P->value());
        O.Imm = P->field()->Offset;
        break;
      }
      case Opcode::GetStatic: {
        auto *G = cast<GetStaticInst>(I);
        O.K = G->type() == Type::I32 ? OpKind::GetStatic32
                                     : OpKind::GetStatic64;
        O.Dst = I->id();
        O.Imm = static_cast<int64_t>(G->variable()->Address);
        break;
      }
      case Opcode::PutStatic: {
        auto *P = cast<PutStaticInst>(I);
        O.K = P->variable()->Ty == Type::I32 ? OpKind::PutStatic32
                                             : OpKind::PutStatic64;
        O.A = SlotOf(P->value());
        O.Imm = static_cast<int64_t>(P->variable()->Address);
        break;
      }
      case Opcode::ALoad: {
        auto *AL = cast<ALoadInst>(I);
        O.K = AL->type() == Type::I32 ? OpKind::ALoad32 : OpKind::ALoad64;
        O.Dst = I->id();
        O.A = SlotOf(AL->array());
        O.B = SlotOf(AL->index());
        O.Imm = storageSize(AL->type());
        break;
      }
      case Opcode::AStore: {
        auto *AS = cast<AStoreInst>(I);
        Type ElemTy = AS->value()->type();
        O.K = ElemTy == Type::I32 ? OpKind::AStore32 : OpKind::AStore64;
        O.A = SlotOf(AS->array());
        O.B = SlotOf(AS->index());
        O.C = SlotOf(AS->value());
        O.Imm = storageSize(ElemTy);
        break;
      }
      case Opcode::ArrayLength:
        O.K = OpKind::ArrayLength;
        O.Dst = I->id();
        O.A = SlotOf(cast<ArrayLengthInst>(I)->array());
        break;
      case Opcode::NewObject:
        O.K = OpKind::NewObject;
        O.Dst = I->id();
        break;
      case Opcode::NewArray:
        O.K = OpKind::NewArray;
        O.Dst = I->id();
        O.A = SlotOf(cast<NewArrayInst>(I)->length());
        break;
      case Opcode::Call: {
        auto *C = cast<CallInst>(I);
        if (!C->callee()) {
          O = TrapOp(OpKind::TrapInst, Unresolved);
          break;
        }
        O.K = OpKind::Call;
        O.Dst = I->type() != Type::Void ? I->id() : NoSlot;
        O.A = static_cast<uint32_t>(D->Calls.size());
        DecodedMethod::CallSite CS{C->callee(),
                                   static_cast<uint32_t>(D->ArgSlots.size()),
                                   C->numOperands()};
        for (Value *Arg : C->operands())
          D->ArgSlots.push_back(SlotOf(Arg));
        D->Calls.push_back(CS);
        break;
      }
      case Opcode::Phi:
        spf_unreachable("phis are lowered onto edges");
      case Opcode::Branch: {
        auto *B = cast<BranchInst>(I);
        O.K = OpKind::Branch;
        O.A = SlotOf(B->condition());
        O.B = AddEdge(BB.get(), B->trueSuccessor());
        O.C = AddEdge(BB.get(), B->falseSuccessor());
        break;
      }
      case Opcode::Jump:
        O.K = OpKind::Jump;
        O.B = AddEdge(BB.get(), cast<JumpInst>(I)->target());
        break;
      case Opcode::Ret: {
        auto *R = cast<RetInst>(I);
        O.K = OpKind::Ret;
        O.A = R->value() ? SlotOf(R->value()) : NoSlot;
        break;
      }
      case Opcode::Prefetch:
      case Opcode::SpecLoad: {
        auto *A = cast<AddressedInst>(I);
        if (const auto *P = dyn_cast<PrefetchInst>(A))
          O.K = P->isGuarded() ? OpKind::GuardedPrefetch : OpKind::Prefetch;
        else
          O.K = OpKind::SpecLoad;
        if (O.K == OpKind::SpecLoad)
          O.Dst = I->id();
        O.A = SlotOf(A->base());
        O.B = A->index() ? SlotOf(A->index()) : ConstSlotOf(0);
        O.C = A->index() ? A->scale() : 0;
        O.Imm = A->displacement();
        break;
      }
      }
      D->Ops.push_back(O);
      if (I->isTerminator()) {
        Terminated = true;
        break;
      }
    }
    if (!Terminated)
      D->Ops.push_back(TrapOp(OpKind::TrapEdge, FellOff));
  }
  assert(D->Ops.size() == MissingPhiPC && "block layout drifted");
  D->Ops.push_back(TrapOp(OpKind::TrapEdge, MissingPhiInput));
  D->NumSlots = Temp + 1 + static_cast<uint32_t>(D->Consts.size());
  return D;
}

Interpreter::DecodedMethod &Interpreter::decodedFor(Method *M) {
  auto It = Decoded.find(M);
  if (It == Decoded.end())
    It = Decoded.emplace(M, decode(M)).first;
  return *It->second;
}

void Interpreter::invalidateMethodInfo() {
  assert(Frames.empty() && "decoded forms dropped under live activations");
  Decoded.clear();
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

void Interpreter::flushEvents() {
  if (PendingTicks) {
    if (NumEvents == BlockEvents) {
      Sink.consume(Block, NumEvents);
      NumEvents = 0;
    }
    Block[NumEvents++] = {EventKind::Tick, PendingTicks, 0};
    PendingTicks = 0;
  }
  if (NumEvents) {
    size_t N = NumEvents;
    NumEvents = 0;
    Sink.consume(Block, N);
  }
}

void Interpreter::collectGarbage() {
  // The allocation slow path lands here without retiring anything;
  // check once on entry so even a checkpoint-free tiny heap cannot
  // extend a cell past its deadline by collecting in a loop.
  checkDeadline();
  flushEvents();
  std::vector<vm::Addr *> Roots;
  if (ExternalRoots)
    for (vm::Addr &Handle : *ExternalRoots)
      Roots.push_back(&Handle);
  // Frames are addressed by base offset: the stack does not move during a
  // collection, and these pointers die with it.
  for (const Frame &F : Frames)
    for (uint32_t Slot : F.D->RefSlots)
      Roots.push_back(&RegStack[F.Base + Slot]);
  Gc.collect(Heap, Roots);
  ++Stats.GcRuns;
  PendingTicks += GcPauseTicks;
}

vm::Addr Interpreter::allocate(const Op &O, const uint64_t *Regs) {
  auto TryAlloc = [&]() -> vm::Addr {
    if (const auto *NO = dyn_cast<NewObjectInst>(O.I))
      return Heap.allocObject(*NO->objectClass());
    const auto *NA = cast<NewArrayInst>(O.I);
    int64_t Len = static_cast<int64_t>(Regs[O.A]);
    if (Len < 0)
      trap("negative array length");
    return Heap.allocArray(NA->elementType(), static_cast<uint64_t>(Len));
  };

  // Chaos: an injected allocation fault looks like heap exhaustion on the
  // first attempt only — the GC-and-retry path absorbs it, so simulated
  // results stay bit-identical (the extra collection is pure cost).
  vm::Addr A = SPF_FAULT_POINT(support::FaultSite::Alloc) ? 0 : TryAlloc();
  if (!A) {
    collectGarbage();
    A = TryAlloc();
    if (!A)
      trap("out of memory after garbage collection");
  }
  ++Stats.Allocations;
  PendingTicks += 4; // Bump allocation + zeroing fast path.
  return A;
}

void Interpreter::pushFrame(Method *M, const std::vector<uint64_t> &Args,
                            uint32_t RetPC, uint32_t RetDst) {
  if (Frames.size() >= MaxCallDepth)
    trap("call stack overflow in simulated program");

  // Mixed mode: hand hot methods to the JIT with the actual arguments of
  // the triggering invocation. The rewritten IR takes effect immediately
  // (on-stack replacement is not modeled: the hook runs at entry, so this
  // activation already executes the compiled code).
  bool Interpreted = false;
  if (MixedModeHook) {
    Interpreted = !CompiledMethods.count(M);
    if (Interpreted && ++InvocationCounts[M] >= CompileThreshold) {
      // Never rewrite a method with live activations (we do not model
      // on-stack replacement): a recursive caller's frame was laid out
      // for the old IR. Defer to the next clean invocation.
      bool OnStack = std::any_of(Frames.begin(), Frames.end(),
                                 [&](const Frame &F) { return F.D->M == M; });
      if (!OnStack) {
        CompiledMethods.insert(M);
        Decoded.erase(M); // The hook rewrites the IR; re-decode on entry.
        MixedModeHook(M, Args);
        Interpreted = false;
      }
    }
  }

  DecodedMethod &D = decodedFor(M);
  assert(Args.size() == M->numArgs() && "argument count mismatch");
  uint32_t Base =
      Frames.empty() ? 0 : Frames.back().Base + Frames.back().D->NumSlots;
  if (RegStack.size() < size_t(Base) + D.NumSlots)
    RegStack.resize(std::max<size_t>(size_t(Base) + D.NumSlots,
                                     RegStack.size() * 2));
  uint64_t *Regs = RegStack.data() + Base;
  std::fill(Regs, Regs + D.NumValues + 1, 0);
  std::copy(D.Consts.begin(), D.Consts.end(), Regs + D.NumValues + 1);
  std::copy(Args.begin(), Args.end(), Regs); // Argument i has value id i.
  Frames.push_back(
      {&D, Base, RetPC, RetDst, Interpreted ? InterpPenalty : 0u});
}

uint64_t Interpreter::retireStop(uint64_t Retired) const {
  uint64_t Stop = MaxInstructions == std::numeric_limits<uint64_t>::max()
                      ? MaxInstructions
                      : MaxInstructions + 1;
  // The watchdog reads the clock whenever the count hits a multiple of
  // 4096.
  if (HasDeadline)
    Stop = std::min(Stop, (Retired | 0xFFF) + 1);
  return Stop;
}

void Interpreter::checkRetireLimits() const {
  if (Stats.Retired > MaxInstructions)
    trap("execution budget exceeded (runaway loop?)");
  if (HasDeadline && (Stats.Retired & 0xFFF) == 0)
    checkDeadline();
}

uint64_t Interpreter::run(Method *M, const std::vector<uint64_t> &Args) {
  const size_t EntryDepth = Frames.size();
  uint64_t Result;
  try {
    Result = execute(M, Args);
  } catch (...) {
    Frames.erase(Frames.begin() + static_cast<ptrdiff_t>(EntryDepth),
                 Frames.end());
    flushEvents();
    throw;
  }
  flushEvents();
  return Result;
}

uint64_t Interpreter::execute(Method *Entry,
                              const std::vector<uint64_t> &Args) {
  if (Entry->isNative()) {
    ++Stats.Calls;
    return Entry->nativeImpl()(Args);
  }
  const size_t EntryDepth = Frames.size();
  pushFrame(Entry, Args, 0, NoSlot);

  // Hot state lives in locals: member stores would alias the register
  // stores. Sync() publishes it before anything that can throw, collect,
  // or flush; Reload() picks it back up.
  uint64_t Retired = Stats.Retired;
  uint64_t Ticks = PendingTicks;
  size_t NEv = NumEvents;
  uint64_t Stop = retireStop(Retired);
  auto Sync = [&] {
    Stats.Retired = Retired;
    PendingTicks = Ticks;
    NumEvents = NEv;
  };
  auto Reload = [&] {
    Retired = Stats.Retired;
    Ticks = PendingTicks;
    NEv = NumEvents;
    Stop = retireStop(Retired);
  };

  DecodedMethod *D;
  uint64_t *R;
  Op *Ops;
  uint64_t Pen;
  auto EnterTop = [&] {
    const Frame &F = Frames.back();
    D = F.D;
    R = RegStack.data() + F.Base;
    Ops = D->Ops.data();
    Pen = F.Penalty;
  };
  EnterTop();
  Op *IP = Ops;

  auto Emit = [&](EventKind K, uint64_t Value, SiteId Site) {
    if (NEv + 2 > BlockEvents) {
      Sink.consume(Block, NEv);
      NEv = 0;
    }
    if (Ticks) {
      Block[NEv++] = {EventKind::Tick, Ticks, 0};
      Ticks = 0;
    }
    Block[NEv++] = {K, Value, Site};
  };
#define SPF_TRAP(Msg)                                                          \
  do {                                                                         \
    Sync();                                                                    \
    trap(Msg);                                                                 \
  } while (false)
  auto TakeEdge = [&](uint32_t Index) {
    const DecodedMethod::Edge &E = D->Edges[Index];
    for (uint32_t Mv = E.MovesBegin; Mv != E.MovesEnd; ++Mv)
      R[D->Moves[Mv].first] = R[D->Moves[Mv].second];
    IP = Ops + E.Target;
  };
  // Governor lookup for a prefetch-kind op: false when the site is
  // quarantined; otherwise sets the attribution site and extra distance.
  auto Governance = [&](Op &O, SiteId &PSite, int32_t &Extra) {
    if (!Governed)
      return true;
    if (O.Site == NoSite)
      O.Site = prefetchSiteOf(cast<AddressedInst>(O.I));
    PSite = O.Site;
    if (Controls.empty())
      return true;
    auto It = Controls.find(PSite);
    if (It == Controls.end())
      return true;
    if (It->second.Suppress)
      return false;
    Extra = It->second.ExtraDistance;
    return true;
  };
  auto PrefetchAddr = [&](const Op &O, int32_t Extra) {
    vm::Addr A = R[O.A] + static_cast<uint64_t>(O.Imm) + R[O.B] * O.C;
    if (Extra)
      A += static_cast<uint64_t>(
          cast<AddressedInst>(O.I)->strideBytes() * Extra);
    // Chaos: model the planner having computed a garbage prefetch
    // address — exactly what the guard exists to contain.
    if (SPF_FAULT_POINT(support::FaultSite::GuardAddr))
      A ^= 0xDEAD000000000000ull;
    return A;
  };
  auto LoadSite = [&](Op &O) {
    if (O.Site == NoSite)
      O.Site = siteOf(O.I);
    return O.Site;
  };

  for (;;) {
    Op &O = *IP++;
    // Phis are not instructions here (they became edge moves), so every
    // op but a TrapEdge retires.
    if (++Retired >= Stop) [[unlikely]] {
      if (O.K != OpKind::TrapEdge) {
        Sync();
        checkRetireLimits();
        Reload();
      }
    }
    Ticks += Pen; // Bytecode dispatch overhead (mixed mode).

    switch (O.K) {
#define SPF_CASE(N, W)                                                         \
  case OpKind::N##W:                                                           \
    R[O.Dst] = sem::binary<BinaryInst::BinOp::N, sem::Width::W>(R[O.A],        \
                                                                R[O.B]);       \
    Ticks += 1;                                                                \
    break;
#define SPF_INT_CASES(N) SPF_CASE(N, I32) SPF_CASE(N, I64)
#define SPF_F64_CASES(N) SPF_CASE(N, F64)
      SPF_INT_PURE_BINOPS(SPF_INT_CASES)
      SPF_F64_BINOPS(SPF_F64_CASES)
#undef SPF_F64_CASES
#undef SPF_INT_CASES
#define SPF_DIV_CASE(N, W, Msg)                                                \
  case OpKind::N##W:                                                           \
    if (R[O.B] == 0)                                                           \
      SPF_TRAP(Msg);                                                           \
    R[O.Dst] = sem::binary<BinaryInst::BinOp::N, sem::Width::W>(R[O.A],        \
                                                                R[O.B]);       \
    Ticks += 1;                                                                \
    break;
      SPF_DIV_CASE(Div, I32, "integer division by zero")
      SPF_DIV_CASE(Div, I64, "integer division by zero")
      SPF_DIV_CASE(Rem, I32, "integer remainder by zero")
      SPF_DIV_CASE(Rem, I64, "integer remainder by zero")
#undef SPF_DIV_CASE
#undef SPF_CASE

    case OpKind::SExt:
      R[O.Dst] = sem::conv<ConvInst::ConvOp::SExt32To64>(R[O.A]);
      Ticks += 1;
      break;
    case OpKind::Trunc:
      R[O.Dst] = sem::conv<ConvInst::ConvOp::Trunc64To32>(R[O.A]);
      Ticks += 1;
      break;
    case OpKind::IToF:
      R[O.Dst] = sem::conv<ConvInst::ConvOp::IToF>(R[O.A]);
      Ticks += 1;
      break;
    case OpKind::FToI:
      R[O.Dst] = sem::conv<ConvInst::ConvOp::FToI>(R[O.A]);
      Ticks += 1;
      break;

    case OpKind::GetField32:
    case OpKind::GetField64: {
      vm::Addr Obj = R[O.A];
      if (!Obj)
        SPF_TRAP("null pointer in getfield");
      vm::Addr A = Obj + static_cast<uint64_t>(O.Imm);
      Emit(EventKind::Load, A, LoadSite(O));
      R[O.Dst] =
          Heap.load(A, O.K == OpKind::GetField32 ? Type::I32 : Type::I64);
      break;
    }
    case OpKind::PutField32:
    case OpKind::PutField64: {
      vm::Addr Obj = R[O.A];
      if (!Obj)
        SPF_TRAP("null pointer in putfield");
      vm::Addr A = Obj + static_cast<uint64_t>(O.Imm);
      Emit(EventKind::Store, A, 0);
      Heap.store(A, O.K == OpKind::PutField32 ? Type::I32 : Type::I64, R[O.B]);
      break;
    }
    case OpKind::GetStatic32:
    case OpKind::GetStatic64: {
      vm::Addr A = static_cast<vm::Addr>(O.Imm);
      Emit(EventKind::Load, A, LoadSite(O));
      R[O.Dst] =
          Heap.load(A, O.K == OpKind::GetStatic32 ? Type::I32 : Type::I64);
      break;
    }
    case OpKind::PutStatic32:
    case OpKind::PutStatic64: {
      vm::Addr A = static_cast<vm::Addr>(O.Imm);
      Emit(EventKind::Store, A, 0);
      Heap.store(A, O.K == OpKind::PutStatic32 ? Type::I32 : Type::I64,
                 R[O.A]);
      break;
    }
    case OpKind::ALoad32:
    case OpKind::ALoad64: {
      vm::Addr Arr = R[O.A];
      if (!Arr)
        SPF_TRAP("null pointer in aload");
      int64_t Idx = static_cast<int64_t>(R[O.B]);
      assert(Idx >= 0 && static_cast<uint64_t>(Idx) < Heap.arrayLength(Arr) &&
             "array index out of bounds");
      assert(storageSize(Heap.arrayElemType(Arr)) == uint64_t(O.Imm) &&
             "aload type disagrees with the array");
      vm::Addr A = Arr + vm::ObjectHeaderSize +
                   static_cast<uint64_t>(Idx) * static_cast<uint64_t>(O.Imm);
      Emit(EventKind::Load, A, LoadSite(O));
      R[O.Dst] = Heap.load(A, O.K == OpKind::ALoad32 ? Type::I32 : Type::I64);
      break;
    }
    case OpKind::AStore32:
    case OpKind::AStore64: {
      vm::Addr Arr = R[O.A];
      if (!Arr)
        SPF_TRAP("null pointer in astore");
      int64_t Idx = static_cast<int64_t>(R[O.B]);
      assert(Idx >= 0 && static_cast<uint64_t>(Idx) < Heap.arrayLength(Arr) &&
             "array index out of bounds");
      assert(storageSize(Heap.arrayElemType(Arr)) == uint64_t(O.Imm) &&
             "astore value type disagrees with the array");
      vm::Addr A = Arr + vm::ObjectHeaderSize +
                   static_cast<uint64_t>(Idx) * static_cast<uint64_t>(O.Imm);
      Emit(EventKind::Store, A, 0);
      Heap.store(A, O.K == OpKind::AStore32 ? Type::I32 : Type::I64, R[O.C]);
      break;
    }
    case OpKind::ArrayLength: {
      vm::Addr Arr = R[O.A];
      if (!Arr)
        SPF_TRAP("null pointer in arraylength");
      Emit(EventKind::Load, Arr + vm::ArrayLengthOffset, LoadSite(O));
      R[O.Dst] =
          static_cast<uint64_t>(static_cast<int64_t>(Heap.arrayLength(Arr)));
      break;
    }
    case OpKind::NewObject:
    case OpKind::NewArray: {
      Sync();
      vm::Addr A = allocate(O, R);
      Reload();
      R[O.Dst] = A;
      break;
    }

    case OpKind::Call: {
      const DecodedMethod::CallSite &CS = D->Calls[O.A];
      CallArgs.resize(CS.NumArgs);
      for (uint32_t I = 0; I != CS.NumArgs; ++I)
        CallArgs[I] = R[D->ArgSlots[CS.ArgsBegin + I]];
      Ticks += 5; // Call/return overhead.
      ++Stats.Calls;
      Sync();
      if (CS.Callee->isNative()) {
        ++Stats.Calls;
        uint64_t V = CS.Callee->nativeImpl()(CallArgs);
        Reload();
        EnterTop(); // A native may have re-entered run() and grown the stack.
        if (O.Dst != NoSlot)
          R[O.Dst] = V;
        break;
      }
      pushFrame(CS.Callee, CallArgs, static_cast<uint32_t>(IP - Ops), O.Dst);
      Reload();
      EnterTop();
      IP = Ops;
      break;
    }
    case OpKind::Branch:
      Ticks += 1;
      TakeEdge(R[O.A] ? O.B : O.C);
      break;
    case OpKind::Jump:
      Ticks += 1;
      TakeEdge(O.B);
      break;
    case OpKind::Ret: {
      uint64_t V = O.A != NoSlot ? R[O.A] : 0;
      Frame Done = Frames.back();
      Frames.pop_back();
      if (Frames.size() == EntryDepth) {
        Sync();
        return V;
      }
      EnterTop();
      IP = Ops + Done.RetPC;
      if (Done.RetDst != NoSlot)
        R[Done.RetDst] = V;
      break;
    }

    case OpKind::Prefetch:
    case OpKind::GuardedPrefetch: {
      // Governor mode: consult the site's runtime control and attribute
      // the issue. A quarantined site's prefetch is a nop (modeling the
      // JIT patching it out) — zero cost, zero events.
      SiteId PSite = 0;
      int32_t Extra = 0;
      if (!Governance(O, PSite, Extra))
        break;
      ++Stats.PrefetchRelated;
      vm::Addr A = PrefetchAddr(O, Extra);
      if (O.K == OpKind::Prefetch)
        Emit(EventKind::Prefetch, A, PSite);
      else if (Heap.isValidAccess(A, 8))
        // Software exception check: only touch mapped memory. A failed
        // check takes the recovery branch — no cache or TLB fill.
        Emit(EventKind::GuardedLoad, A, PSite);
      else
        Emit(EventKind::GuardedLoadFault, 0, PSite);
      break;
    }
    case OpKind::SpecLoad: {
      SiteId PSite = 0;
      int32_t Extra = 0;
      if (!Governance(O, PSite, Extra)) {
        // The chain's prefetches share this site and are suppressed with
        // it; a null result keeps the dataflow well-defined.
        R[O.Dst] = 0;
        break;
      }
      ++Stats.PrefetchRelated;
      vm::Addr A = PrefetchAddr(O, Extra);
      if (Heap.isValidAccess(A, 8)) {
        Emit(EventKind::GuardedLoad, A, PSite);
        R[O.Dst] = Heap.load(A, Type::Ref);
      } else {
        Emit(EventKind::GuardedLoadFault, 0, PSite);
        R[O.Dst] = 0;
      }
      break;
    }

    case OpKind::TrapInst:
      SPF_TRAP(TrapMsgs[O.Imm]);
    case OpKind::TrapEdge:
      // A failed control transfer, not an instruction: undo the retire.
      --Retired;
      Ticks -= Pen;
      SPF_TRAP(TrapMsgs[O.Imm]);
    }
  }
#undef SPF_TRAP
}
