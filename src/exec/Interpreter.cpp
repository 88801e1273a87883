//===- exec/Interpreter.cpp -----------------------------------------------===//
///
/// The execution engine: a step loop over decoded methods (ir/Decode.h),
/// each lowered once, on first call. A load's SiteId is looked up on its
/// first execution and cached in the op, which keeps the first-execution
/// numbering.
///
/// Activations live on one contiguous register stack; calls and returns
/// switch frames inside a single loop instead of recursing.
///
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"

#include "ir/Decode.h"
#include "ir/Semantics.h"
#include "support/ErrorHandling.h"
#include "support/FaultInjection.h"
#include "support/Status.h"

#include <algorithm>
#include <limits>
#include <type_traits>

using namespace spf;
using namespace spf::exec;
using namespace spf::ir;

namespace {

/// A runtime condition the simulated program cannot recover from. Thrown
/// (not fatal): the VM process survives, the harness quarantines the cell.
[[noreturn]] void trap(const char *Msg) { throw support::RuntimeTrap(Msg); }

static_assert(std::is_same_v<SiteId, uint32_t>, "Op::Site holds a SiteId");
/// Deepest simulated call chain before the overflow trap.
constexpr size_t MaxCallDepth = 512;

} // namespace

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

DecodedMethod &Interpreter::decodedFor(Method *M) {
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
