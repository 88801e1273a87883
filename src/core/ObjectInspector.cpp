//===- core/ObjectInspector.cpp -------------------------------------------===//
///
/// Object inspection is a step loop over the same decoded ops the
/// execution engine runs (ir/Decode.h), with a register file of lattice
/// values instead of raw slots and every side effect redirected. The
/// inspected method and the callees FollowCalls steps into share one loop;
/// each activation carries its policy in its depth (see Frame).
///
//===----------------------------------------------------------------------===//

#include "core/ObjectInspector.h"

#include "ir/Decode.h"
#include "ir/Semantics.h"
#include "obs/DecisionLog.h"
#include "support/ErrorHandling.h"
#include "support/FaultInjection.h"

#include <algorithm>

using namespace spf;
using namespace spf::core;
using namespace spf::ir;

namespace {

/// The inspection value lattice: a concrete 64-bit slot or `unknown`.
struct IVal {
  bool Known = false;
  uint64_t Raw = 0;

  static IVal unknown() { return IVal(); }
  static IVal known(uint64_t V) { return IVal{true, V}; }
};

/// Base simulated address of the inspector's private heap, far above any
/// real heap address so the two can never collide.
constexpr vm::Addr PrivateHeapBase = 0x4000000000ull;

/// One activation. The inspected method runs at depth 0: it records
/// addresses, resolves unknown branches with pickUnknownBranch, caps loops
/// relative to the target, and ends inspection when it returns. A callee
/// (depth >= 1) takes the false edge of an unknown branch, runs each loop
/// at most PreLoopCap iterations per entry, and hands its value back.
struct Frame {
  const DecodedMethod *D;
  const analysis::LoopInfo *LI;
  unsigned Depth;
  /// Caller slot that receives the result (NoSlot when none).
  uint32_t RetDst;
  uint32_t PC = 0;
  BasicBlock *Block;
  std::vector<IVal> Regs;
  /// Iterations of each loop since it was last entered from outside.
  std::unordered_map<const analysis::Loop *, unsigned> Iter;
};

class InspectRun {
public:
  InspectRun(const vm::Heap &Heap, const analysis::LoopInfo &LI,
             const InspectorOptions &Opts, Method *M, analysis::Loop *Target,
             const LoadDependenceGraph &Graph)
      : Heap(Heap), LI(LI), Opts(Opts), Target(Target), Graph(Graph),
        TargetCode(decode(M)) {}

  InspectionResult run(const std::vector<uint64_t> &Args);

private:
  bool isPrivate(vm::Addr A) const { return A >= PrivateHeapBase; }

  /// An injected failure of a real-heap read during inspection: the
  /// value degrades to `unknown`, the lattice's safe response.
  bool injectedReadFault() {
    if (!SPF_FAULT_POINT(support::FaultSite::InspectHeapRead))
      return false;
    ++Result.FaultsInjected;
    return true;
  }

  /// Side-effect-free typed load: store buffer first, then the private
  /// heap (zero-initialized), then the real heap.
  IVal loadMem(vm::Addr A, Type Ty) {
    auto It = Shadow.find(A);
    if (It != Shadow.end())
      return It->second;
    if (isPrivate(A)) {
      if (A < PrivateTop)
        return IVal::known(0); // Untouched private memory reads as zero.
      return IVal::unknown();
    }
    if (Heap.isValidAccess(A, ir::storageSize(Ty))) {
      if (injectedReadFault())
        return IVal::unknown();
      return IVal::known(Heap.load(A, Ty));
    }
    return IVal::unknown();
  }

  /// Buffered store; never touches the real heap.
  void storeMem(vm::Addr A, IVal V) { Shadow[A] = V; }

  /// Length of the array at \p Base, if determinable.
  IVal arrayLengthOf(vm::Addr Base) {
    auto It = Shadow.find(Base + vm::ArrayLengthOffset);
    if (It != Shadow.end())
      return It->second;
    if (isPrivate(Base))
      return IVal::unknown(); // Allocated with unknown length.
    if (Heap.isValidAccess(Base, vm::ObjectHeaderSize) && Heap.isArray(Base)) {
      if (injectedReadFault())
        return IVal::unknown();
      return IVal::known(
          static_cast<uint64_t>(static_cast<int64_t>(Heap.arrayLength(Base))));
    }
    return IVal::unknown();
  }

  std::optional<vm::Addr> loadAddress(const Op &O, const IVal *R) const;
  void recordAddress(const Instruction *I, vm::Addr A);
  vm::Addr privateAlloc(uint64_t Size);

  void pushFrame(const DecodedMethod &D, const analysis::LoopInfo &FrameLI,
                 unsigned Depth, const std::vector<IVal> &Args,
                 uint32_t RetDst);
  /// Returns \p V from the innermost (callee) frame to its caller.
  void popFrame(IVal V);
  /// Malformed IR: degrades the inspection. True when it ends.
  bool degrade(const Op &O);

  BasicBlock *pickUnknownBranch(const BranchInst *Br);
  std::optional<unsigned> capFor(const Frame &F,
                                 const analysis::Loop *L) const;
  bool edgeAllowed(const Frame &F, BasicBlock *From, BasicBlock *To) const;
  void onBlockEntered(Frame &F, BasicBlock *From, BasicBlock *To, bool &Stop);
  /// Moves the innermost frame along edge \p EdgeIdx into \p To. True when
  /// entering \p To ends inspection.
  bool takeEdge(uint32_t EdgeIdx, BasicBlock *To);

  const vm::Heap &Heap;
  const analysis::LoopInfo &LI;
  const InspectorOptions &Opts;
  analysis::Loop *Target;
  const LoadDependenceGraph &Graph;
  std::unique_ptr<DecodedMethod> TargetCode;

  std::vector<Frame> Frames;
  std::unordered_map<vm::Addr, IVal> Shadow;
  vm::Addr PrivateTop = PrivateHeapBase;

  /// Decoded form and loop analyses of each callee FollowCalls stepped
  /// into, built on its first call.
  struct CalleeInfo {
    analysis::DominatorTree DT;
    analysis::LoopInfo LI;
    std::unique_ptr<DecodedMethod> Code;
    explicit CalleeInfo(Method *M) : DT(M), LI(M, DT), Code(decode(M)) {}
  };
  std::unordered_map<Method *, std::unique_ptr<CalleeInfo>> Callees;

  InspectionResult Result;
  unsigned CurrentIteration = 0;
};

} // namespace

/// Computes the memory address a heap load will access, when known.
std::optional<vm::Addr> InspectRun::loadAddress(const Op &O,
                                                const IVal *R) const {
  switch (O.K) {
  case OpKind::GetField32:
  case OpKind::GetField64:
    if (!R[O.A].Known || !R[O.A].Raw)
      return std::nullopt;
    return R[O.A].Raw + static_cast<uint64_t>(O.Imm);
  case OpKind::ALoad32:
  case OpKind::ALoad64: {
    if (!R[O.A].Known || !R[O.A].Raw || !R[O.B].Known)
      return std::nullopt;
    int64_t Index = static_cast<int64_t>(R[O.B].Raw);
    if (Index < 0)
      return std::nullopt;
    return R[O.A].Raw + vm::ObjectHeaderSize +
           static_cast<uint64_t>(Index) * static_cast<uint64_t>(O.Imm);
  }
  case OpKind::ArrayLength:
    if (!R[O.A].Known || !R[O.A].Raw)
      return std::nullopt;
    return R[O.A].Raw + vm::ArrayLengthOffset;
  default: // GetStatic.
    return static_cast<vm::Addr>(O.Imm);
  }
}

void InspectRun::recordAddress(const Instruction *I, vm::Addr A) {
  if (!Result.ReachedTarget)
    return;
  auto &Recs = Result.Trace[I];
  // First access per iteration only: the paper defines strides over the
  // per-iteration address sequence.
  if (!Recs.empty() && Recs.back().Iteration == CurrentIteration)
    return;
  Recs.push_back(AddrRecord{CurrentIteration, A});
}

vm::Addr InspectRun::privateAlloc(uint64_t Size) {
  vm::Addr A = PrivateTop;
  PrivateTop += (Size + 7) & ~7ull;
  return A;
}

void InspectRun::pushFrame(const DecodedMethod &D,
                           const analysis::LoopInfo &FrameLI, unsigned Depth,
                           const std::vector<IVal> &Args, uint32_t RetDst) {
  Frame F{&D, &FrameLI, Depth, RetDst, 0, D.M->entry(), {}, {}};
  // The copied frame: arguments (value ids 0..n-1) and the preloaded
  // constants; every other slot starts unknown.
  F.Regs.assign(D.NumSlots, IVal::unknown());
  for (size_t I = 0, E = std::min<size_t>(Args.size(), D.M->numArgs()); I != E;
       ++I)
    F.Regs[I] = Args[I];
  for (size_t I = 0; I != D.Consts.size(); ++I)
    F.Regs[D.NumValues + 1 + I] = IVal::known(D.Consts[I]);
  Frames.push_back(std::move(F));
}

void InspectRun::popFrame(IVal V) {
  uint32_t Dst = Frames.back().RetDst;
  Frames.pop_back();
  if (Dst != NoSlot)
    Frames.back().Regs[Dst] = V;
}

/// A broken input must degrade to "no prefetch for this loop", never kill
/// the JIT. In a callee the call yields `unknown` and the caller goes on;
/// in the inspected method the trace is discarded and inspection ends.
bool InspectRun::degrade(const Op &O) {
  const Frame &F = Frames.back();
  Result.Degraded = true;
  Result.DegradeReason =
      std::string("malformed IR: ") + (F.Depth ? "callee " : "") +
      (O.Imm == FellOff ? "block without terminator"
                        : "phi without input for predecessor");
  if (auto *DL = obs::DecisionScope::current())
    DL->event("inspect", "degrade-origin",
              F.Depth ? "" : "@" + F.Block->name(), Result.DegradeReason);
  if (F.Depth) {
    popFrame(IVal::unknown());
    return false;
  }
  Result.Trace.clear();
  return true;
}

/// Chooses a successor for a branch whose condition is unknown. Preference
/// order: stay inside the target loop; then prefer the shallower-nested
/// successor (progress outer levels rather than re-running inner loops);
/// then the false edge.
BasicBlock *InspectRun::pickUnknownBranch(const BranchInst *Br) {
  BasicBlock *T = Br->trueSuccessor();
  BasicBlock *F = Br->falseSuccessor();

  bool TIn = Target->contains(T);
  bool FIn = Target->contains(F);
  if (TIn != FIn)
    return TIn ? T : F;

  auto Depth = [this](BasicBlock *B) {
    analysis::Loop *L = LI.loopFor(B);
    return L ? L->depth() : 0u;
  };
  unsigned DT = Depth(T), DF = Depth(F);
  if (DT != DF)
    return DT < DF ? T : F;
  return F;
}

/// The per-entry iteration cap of \p L in frame \p F, or none for a loop
/// that runs freely: the target is counted separately, and loops enclosing
/// it only execute until the target is reached. Inside a callee every
/// loop follows the pre-target rule.
std::optional<unsigned> InspectRun::capFor(const Frame &F,
                                           const analysis::Loop *L) const {
  if (F.Depth)
    return Opts.PreLoopCap;
  if (L == Target || L->contains(Target->header()))
    return std::nullopt;
  return Target->contains(L->header()) ? Opts.InnerLoopCap : Opts.PreLoopCap;
}

/// Returns false when taking From -> To would keep iterating a capped
/// loop beyond its per-entry budget. Two cases matter: (a) a back edge
/// re-entering the header of a capped loop, and (b) the header of an
/// over-budget loop branching back into its own body (the common rotated
/// form where the back edge itself is an unconditional jump).
bool InspectRun::edgeAllowed(const Frame &F, BasicBlock *From,
                             BasicBlock *To) const {
  auto Count = [&F](const analysis::Loop *L) {
    auto It = F.Iter.find(L);
    return It == F.Iter.end() ? 0u : It->second;
  };

  // (a) Back edge into a capped header.
  analysis::Loop *LTo = F.LI->loopFor(To);
  if (LTo && LTo->header() == To && LTo->contains(From))
    if (auto Cap = capFor(F, LTo); Cap && Count(LTo) >= *Cap)
      return false;

  // (b) Header of an over-budget loop continuing inside the loop.
  analysis::Loop *LFrom = F.LI->loopFor(From);
  if (LFrom && LFrom->header() == From && LFrom->contains(To))
    if (auto Cap = capFor(F, LFrom); Cap && Count(LFrom) > *Cap)
      return false;

  return true;
}

/// Bookkeeping when control moves to \p To: loop iteration counting and,
/// in the inspected method, the target-loop iteration limit and trip
/// statistics.
void InspectRun::onBlockEntered(Frame &F, BasicBlock *From, BasicBlock *To,
                                bool &Stop) {
  // Leaving the target loop after having reached it ends inspection.
  if (!F.Depth && Result.ReachedTarget && !Target->contains(To)) {
    Result.TargetExitedEarly =
        Result.IterationsObserved < Opts.MaxIterations;
    Stop = true;
    return;
  }

  analysis::Loop *L = F.LI->loopFor(To);
  if (!L || L->header() != To)
    return;

  bool BackEdge = From && L->contains(From);
  unsigned &Count = F.Iter[L];
  Count = BackEdge ? Count + 1 : 1;
  if (F.Depth)
    return;

  if (Target->contains(To) && L != Target) {
    TripStats &TS = Result.SubLoopTrips[L];
    if (!BackEdge)
      ++TS.Entries;
    ++TS.Iterations;
  }

  if (L == Target) {
    Result.ReachedTarget = true;
    if (Result.IterationsObserved >= Opts.MaxIterations) {
      Stop = true; // Observed enough iterations.
      return;
    }
    CurrentIteration = Result.IterationsObserved++;
  }
}

bool InspectRun::takeEdge(uint32_t EdgeIdx, BasicBlock *To) {
  Frame &F = Frames.back();
  bool Stop = false;
  onBlockEntered(F, F.Block, To, Stop);
  if (Stop)
    return true;
  const DecodedMethod::Edge &E = F.D->Edges[EdgeIdx];
  for (uint32_t Mv = E.MovesBegin; Mv != E.MovesEnd; ++Mv)
    F.Regs[F.D->Moves[Mv].first] = F.Regs[F.D->Moves[Mv].second];
  F.PC = E.Target;
  F.Block = To;
  return false;
}

InspectionResult InspectRun::run(const std::vector<uint64_t> &Args) {
  std::vector<IVal> ArgVals;
  for (uint64_t A : Args)
    ArgVals.push_back(IVal::known(A));
  pushFrame(*TargetCode, LI, /*Depth=*/0, ArgVals, NoSlot);
  bool Stop = false;
  onBlockEntered(Frames.back(), nullptr, Frames.back().Block, Stop);

  while (!Stop) {
    Frame &F = Frames.back();
    const Op &O = F.D->Ops[F.PC++];
    if (O.K == OpKind::TrapEdge) {
      // Malformed IR: a block without a terminator, or a phi without an
      // input for the edge just taken.
      if (degrade(O))
        return Result;
      continue;
    }
    if (++Result.StepsUsed > Opts.StepBudget) {
      // Budget exceeded: keep what we have. A callee hands `unknown` back
      // and its caller stops at its next step.
      if (!F.Depth)
        return Result;
      popFrame(IVal::unknown());
      continue;
    }

    IVal *R = F.Regs.data();
    if (isArithmetic(O.K)) {
      // The operands come from the registers, the operation from the IR.
      IVal L = R[O.A];
      IVal Rhs = O.B != NoSlot ? R[O.B] : IVal::known(0);
      std::optional<uint64_t> V;
      if (L.Known && Rhs.Known) {
        if (const auto *B = dyn_cast<BinaryInst>(O.I))
          V = sem::evalBinary(B->binOp(), B->lhs()->type(), L.Raw, Rhs.Raw);
        else
          V = sem::evalConv(cast<ConvInst>(O.I)->convOp(), L.Raw);
      }
      R[O.Dst] = V ? IVal::known(*V) : IVal::unknown();
      continue;
    }

    switch (O.K) {
    case OpKind::GetField32:
    case OpKind::GetField64:
    case OpKind::GetStatic32:
    case OpKind::GetStatic64:
    case OpKind::ALoad32:
    case OpKind::ALoad64:
    case OpKind::ArrayLength: {
      std::optional<vm::Addr> A = loadAddress(O, R);
      if (!A) {
        R[O.Dst] = IVal::unknown();
        break;
      }
      if (!F.Depth && Graph.nodeFor(O.I))
        recordAddress(O.I, *A);
      if (O.K == OpKind::ArrayLength)
        R[O.Dst] = arrayLengthOf(R[O.A].Raw);
      else
        R[O.Dst] = loadMem(*A, O.K == OpKind::GetField32 ||
                                       O.K == OpKind::GetStatic32 ||
                                       O.K == OpKind::ALoad32
                                   ? Type::I32
                                   : Type::I64);
      break;
    }

    case OpKind::PutField32:
    case OpKind::PutField64:
      if (R[O.A].Known && R[O.A].Raw)
        storeMem(R[O.A].Raw + static_cast<uint64_t>(O.Imm), R[O.B]);
      break;
    case OpKind::PutStatic32:
    case OpKind::PutStatic64:
      storeMem(static_cast<vm::Addr>(O.Imm), R[O.A]);
      break;
    case OpKind::AStore32:
    case OpKind::AStore64:
      if (R[O.A].Known && R[O.A].Raw && R[O.B].Known)
        storeMem(R[O.A].Raw + vm::ObjectHeaderSize +
                     R[O.B].Raw * static_cast<uint64_t>(O.Imm),
                 R[O.C]);
      break;

    case OpKind::NewObject:
      R[O.Dst] = IVal::known(privateAlloc(
          cast<NewObjectInst>(O.I)->objectClass()->instanceSize()));
      break;
    case OpKind::NewArray: {
      IVal Len = R[O.A];
      uint64_t Elems = Len.Known ? Len.Raw : 64;
      vm::Addr A = privateAlloc(
          vm::ObjectHeaderSize +
          Elems * ir::storageSize(cast<NewArrayInst>(O.I)->elementType()));
      if (Len.Known)
        storeMem(A + vm::ArrayLengthOffset, Len);
      R[O.Dst] = IVal::known(A);
      break;
    }

    case OpKind::Call: {
      // By default: "we interpret a method invocation by simply skipping
      // it and assuming that the return value, if any, is unknown." With
      // FollowCalls (the paper's discussed extension) callees are stepped
      // into, sharing the store buffer, private heap and step budget, up
      // to MaxCallDepth deep.
      const DecodedMethod::CallSite &CS = F.D->Calls[O.A];
      if (Opts.FollowCalls && !CS.Callee->isNative() &&
          F.Depth < Opts.MaxCallDepth && CS.Callee->numBlocks() != 0) {
        std::vector<IVal> CallArgs;
        for (uint32_t I = 0; I != CS.NumArgs; ++I)
          CallArgs.push_back(R[F.D->ArgSlots[CS.ArgsBegin + I]]);
        auto &Info = Callees[CS.Callee];
        if (!Info) {
          CS.Callee->recomputePreds();
          Info = std::make_unique<CalleeInfo>(CS.Callee);
        }
        pushFrame(*Info->Code, Info->LI, F.Depth + 1, CallArgs, O.Dst);
        break;
      }
      if (O.Dst != NoSlot)
        R[O.Dst] = IVal::unknown();
      break;
    }

    case OpKind::SpecLoad: {
      IVal Base = R[O.A], Idx = R[O.B];
      R[O.Dst] = Base.Known && Idx.Known
                     ? loadMem(Base.Raw + static_cast<uint64_t>(O.Imm) +
                                   Idx.Raw * O.C,
                               Type::Ref)
                     : IVal::unknown();
      break;
    }
    case OpKind::Prefetch:
    case OpKind::GuardedPrefetch:
      break; // Already-optimized inner loops: prefetches are no-ops.
    case OpKind::TrapInst:
      break; // An undefined operation or unresolved call: stays unknown.

    case OpKind::Branch: {
      const auto *Br = cast<BranchInst>(O.I);
      IVal Cond = R[O.A];
      BasicBlock *Taken;
      if (Cond.Known)
        Taken = Cond.Raw ? Br->trueSuccessor() : Br->falseSuccessor();
      else
        Taken = F.Depth ? Br->falseSuccessor() : pickUnknownBranch(Br);

      // Respect per-entry loop caps: if the chosen edge would re-enter a
      // capped loop, take the other side when possible.
      if (!edgeAllowed(F, F.Block, Taken)) {
        BasicBlock *Other = Taken == Br->trueSuccessor()
                                ? Br->falseSuccessor()
                                : Br->trueSuccessor();
        if (edgeAllowed(F, F.Block, Other))
          Taken = Other;
      }
      Stop = takeEdge(Taken == Br->trueSuccessor() ? O.B : O.C, Taken);
      break;
    }
    case OpKind::Jump:
      Stop = takeEdge(O.B, cast<JumpInst>(O.I)->target());
      break;
    case OpKind::Ret:
      if (!F.Depth)
        return Result;
      popFrame(O.A != NoSlot ? R[O.A] : IVal::unknown());
      break;

    default:
      spf_unreachable("arithmetic and trap-edge ops are handled above");
    }
  }
  return Result;
}

ObjectInspector::ObjectInspector(const vm::Heap &Heap,
                                 const analysis::LoopInfo &LI,
                                 InspectorOptions Opts)
    : Heap(Heap), LI(LI), Opts(Opts) {}

InspectionResult ObjectInspector::inspect(Method *M,
                                          const std::vector<uint64_t> &Args,
                                          analysis::Loop *TargetLoop,
                                          const LoadDependenceGraph &Graph) {
  InspectRun Run(Heap, LI, Opts, M, TargetLoop, Graph);
  return Run.run(Args);
}
