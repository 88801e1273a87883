//===- tests/inspect_test.cpp - Object inspection (Section 3.2) -----------===//

#include "TestKernels.h"
#include "core/ObjectInspector.h"
#include "core/StrideAnalysis.h"
#include "workloads/KernelBuilder.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>

using namespace spf;
using namespace spf::core;
using namespace spf::ir;
using namespace spf::testkernels;

namespace {

struct JessFixture {
  JessWorld W;
  analysis::DominatorTree DT;
  analysis::LoopInfo LI;

  JessFixture(unsigned N = 64, bool Scramble = true)
      : W(N, Scramble), DT((W.Find->recomputePreds(), W.Find)),
        LI(W.Find, DT) {}

  analysis::Loop *outer() { return LI.topLevelLoops()[0]; }
  analysis::Loop *inner() { return outer()->subLoops()[0]; }

  InspectionResult inspect(analysis::Loop *Target,
                           InspectorOptions Opts = InspectorOptions()) {
    LoadDependenceGraph G(Target, LI);
    ObjectInspector Insp(*W.Heap, LI, Opts);
    return Insp.inspect(W.Find, W.findArgs(), Target, G);
  }
};

/// Canonical text of everything an inspection of the Jess method found:
/// the scalar fields, each sub-loop's trips (by header block), and every
/// trace record as iteration:address (eight to a line), with addresses
/// relative to the heap base and loads named as in Table 1. The text
/// starts with a newline, so an expected raw string opens on its own line.
std::string describe(const JessFixture &F, const InspectionResult &R) {
  std::ostringstream OS;
  OS << "\nreached=" << R.ReachedTarget << " iterations=" << R.IterationsObserved
     << " exited-early=" << R.TargetExitedEarly << " steps=" << R.StepsUsed
     << " degraded=" << R.Degraded << "\n";
  std::map<std::string, TripStats> Trips;
  for (const auto &[L, TS] : R.SubLoopTrips)
    Trips[L->header()->name()] = TS;
  for (const auto &[Name, TS] : Trips)
    OS << "trips " << Name << " " << TS.Entries << "/" << TS.Iterations
       << "\n";
  const JessWorld &W = F.W;
  const ir::Instruction *Loads[] = {W.L1, W.L2, W.L3, W.L4,  W.L5, W.L6,
                                    W.L7, W.L8, W.L9, W.L10, W.L11};
  size_t Named = 0;
  for (size_t K = 0; K != std::size(Loads); ++K) {
    auto It = R.Trace.find(Loads[K]);
    if (It == R.Trace.end())
      continue;
    ++Named;
    OS << "L" << K + 1;
    size_t N = 0;
    for (const AddrRecord &Rec : It->second)
      OS << (N++ % 8 ? " " : "\n ") << Rec.Iteration << ":"
         << static_cast<int64_t>(Rec.Address - W.Heap->heapBase());
    OS << "\n";
  }
  if (Named != R.Trace.size())
    OS << "unnamed traced loads: " << R.Trace.size() - Named << "\n";
  return OS.str();
}

// The complete result for both Jess targets, with calls skipped and
// followed. Any change to the step count, the loop bookkeeping or a single
// recorded address shows up here.

TEST(InspectTest, OuterTargetResultIsExact) {
  JessFixture F;
  EXPECT_EQ(describe(F, F.inspect(F.outer())), R"(
reached=1 iterations=20 exited-early=0 steps=401 degraded=0
trips inner.header 20/20
L1
 0:24 1:24 2:24 3:24 4:24 5:24 6:24 7:24
 8:24 9:24 10:24 11:24 12:24 13:24 14:24 15:24
 16:24 17:24 18:24 19:24
L2
 0:16 1:16 2:16 3:16 4:16 5:16 6:16 7:16
 8:16 9:16 10:16 11:16 12:16 13:16 14:16 15:16
 16:16 17:16 18:16 19:16
L3
 0:40 1:40 2:40 3:40 4:40 5:40 6:40 7:40
 8:40 9:40 10:40 11:40 12:40 13:40 14:40 15:40
 16:40 17:40 18:40 19:40
L4
 0:48 1:56 2:64 3:72 4:80 5:88 6:96 7:104
 8:112 9:120 10:128 11:136 12:144 13:152 14:160 15:168
 16:176 17:184 18:192 19:200
L5
 0:13896 1:13896 2:13896 3:13896 4:13896 5:13896 6:13896 7:13896
 8:13896 9:13896 10:13896 11:13896 12:13896 13:13896 14:13896 15:13896
 16:13896 17:13896 18:13896 19:13896
L6
 0:13888 1:13888 2:13888 3:13888 4:13888 5:13888 6:13888 7:13888
 8:13888 9:13888 10:13888 11:13888 12:13888 13:13888 14:13888 15:13888
 16:13888 17:13888 18:13888 19:13888
L7
 0:13912 1:13912 2:13912 3:13912 4:13912 5:13912 6:13912 7:13912
 8:13912 9:13912 10:13912 11:13912 12:13912 13:13912 14:13912 15:13912
 16:13912 17:13912 18:13912 19:13912
L8
 0:13920 1:13920 2:13920 3:13920 4:13920 5:13920 6:13920 7:13920
 8:13920 9:13920 10:13920 11:13920 12:13920 13:13920 14:13920 15:13920
 16:13920 17:13920 18:13920 19:13920
L9
 0:6192 1:4320 2:2448 3:5568 4:3696 5:10144 6:3488 7:6400
 8:4528 9:784 10:4112 11:7232 12:10352 13:1616 14:4944 15:4736
 16:11184 17:12640 18:5984 19:576
L10
 0:6216 1:4344 2:2472 3:5592 4:3720 5:10168 6:3512 7:6424
 8:4552 9:808 10:4136 11:7256 12:10376 13:1640 14:4968 15:4760
 16:11208 17:12664 18:6008 19:600
L11
 0:6224 1:4352 2:2480 3:5600 4:3728 5:10176 6:3520 7:6432
 8:4560 9:816 10:4144 11:7264 12:10384 13:1648 14:4976 15:4768
 16:11216 17:12672 18:6016 19:608
)");
}

TEST(InspectTest, InnerTargetResultIsExact) {
  JessFixture F;
  EXPECT_EQ(describe(F, F.inspect(F.inner())), R"(
reached=1 iterations=6 exited-early=1 steps=71 degraded=0
L6
 0:13888 1:13888 2:13888 3:13888 4:13888
L7
 0:13912 1:13912 2:13912 3:13912 4:13912
L8
 0:13920 1:13928 2:13936 3:13944 4:13952
L9
 0:6192 1:6192 2:6192 3:6192 4:6192
L10
 0:6216 1:6216 2:6216 3:6216 4:6216
L11
 0:6224 1:6232 2:6240 3:6248 4:6256
)");
}

TEST(InspectFollowCallsTest, OuterTargetResultIsExact) {
  JessFixture F;
  InspectorOptions Opts;
  Opts.FollowCalls = true;
  EXPECT_EQ(describe(F, F.inspect(F.outer(), Opts)), R"(
reached=1 iterations=20 exited-early=0 steps=481 degraded=0
trips inner.header 20/20
L1
 0:24 1:24 2:24 3:24 4:24 5:24 6:24 7:24
 8:24 9:24 10:24 11:24 12:24 13:24 14:24 15:24
 16:24 17:24 18:24 19:24
L2
 0:16 1:16 2:16 3:16 4:16 5:16 6:16 7:16
 8:16 9:16 10:16 11:16 12:16 13:16 14:16 15:16
 16:16 17:16 18:16 19:16
L3
 0:40 1:40 2:40 3:40 4:40 5:40 6:40 7:40
 8:40 9:40 10:40 11:40 12:40 13:40 14:40 15:40
 16:40 17:40 18:40 19:40
L4
 0:48 1:56 2:64 3:72 4:80 5:88 6:96 7:104
 8:112 9:120 10:128 11:136 12:144 13:152 14:160 15:168
 16:176 17:184 18:192 19:200
L5
 0:13896 1:13896 2:13896 3:13896 4:13896 5:13896 6:13896 7:13896
 8:13896 9:13896 10:13896 11:13896 12:13896 13:13896 14:13896 15:13896
 16:13896 17:13896 18:13896 19:13896
L6
 0:13888 1:13888 2:13888 3:13888 4:13888 5:13888 6:13888 7:13888
 8:13888 9:13888 10:13888 11:13888 12:13888 13:13888 14:13888 15:13888
 16:13888 17:13888 18:13888 19:13888
L7
 0:13912 1:13912 2:13912 3:13912 4:13912 5:13912 6:13912 7:13912
 8:13912 9:13912 10:13912 11:13912 12:13912 13:13912 14:13912 15:13912
 16:13912 17:13912 18:13912 19:13912
L8
 0:13920 1:13920 2:13920 3:13920 4:13920 5:13920 6:13920 7:13920
 8:13920 9:13920 10:13920 11:13920 12:13920 13:13920 14:13920 15:13920
 16:13920 17:13920 18:13920 19:13920
L9
 0:6192 1:4320 2:2448 3:5568 4:3696 5:10144 6:3488 7:6400
 8:4528 9:784 10:4112 11:7232 12:10352 13:1616 14:4944 15:4736
 16:11184 17:12640 18:5984 19:576
L10
 0:6216 1:4344 2:2472 3:5592 4:3720 5:10168 6:3512 7:6424
 8:4552 9:808 10:4136 11:7256 12:10376 13:1640 14:4968 15:4760
 16:11208 17:12664 18:6008 19:600
L11
 0:6224 1:4352 2:2480 3:5600 4:3728 5:10176 6:3520 7:6432
 8:4560 9:816 10:4144 11:7264 12:10384 13:1648 14:4976 15:4768
 16:11216 17:12672 18:6016 19:608
)");
}

TEST(InspectFollowCallsTest, InnerTargetResultIsExact) {
  JessFixture F;
  InspectorOptions Opts;
  Opts.FollowCalls = true;
  EXPECT_EQ(describe(F, F.inspect(F.inner(), Opts)), R"(
reached=1 iterations=1 exited-early=1 steps=23 degraded=0
L6
 0:13888
L7
 0:13912
L8
 0:13920
L9
 0:6192
L10
 0:6216
L11
 0:6224
)");
}

TEST(InspectFollowCallsTest, BudgetRunningOutInsideACalleeOvershootsByOne) {
  // The budget check fails inside equals(); the callee hands `unknown`
  // back and the caller stops at its own next step, one step later.
  for (auto [Budget, Steps, Iterations] :
       {std::tuple<uint64_t, uint64_t, unsigned>{17, 18, 1}, {18, 20, 1},
        {21, 23, 1}, {22, 23, 1}, {42, 44, 2}, {477, 479, 20},
        {478, 479, 20}, {481, 481, 20}}) {
    JessFixture F;
    InspectorOptions Opts;
    Opts.FollowCalls = true;
    Opts.StepBudget = Budget;
    InspectionResult R = F.inspect(F.outer(), Opts);
    EXPECT_EQ(R.StepsUsed, Steps) << "budget " << Budget;
    EXPECT_EQ(R.IterationsObserved, Iterations) << "budget " << Budget;
  }
}

TEST(InspectTest, ReachesTargetAndObservesRequestedIterations) {
  JessFixture F;
  InspectionResult R = F.inspect(F.outer());
  EXPECT_TRUE(R.ReachedTarget);
  EXPECT_EQ(R.IterationsObserved, 20u);
  EXPECT_FALSE(R.TargetExitedEarly);
  EXPECT_EQ(R.StepsUsed, 401u);
}

TEST(InspectTest, RecordsFirstAddressPerIterationWithRealValues) {
  JessFixture F;
  InspectionResult R = F.inspect(F.outer());

  // L4 = aaload v[i]: its addresses are v+16, v+24, ... — stride 8.
  auto It = R.Trace.find(F.W.L4);
  ASSERT_NE(It, R.Trace.end());
  const auto &Recs = It->second;
  ASSERT_EQ(Recs.size(), 20u);
  vm::Addr V = F.W.Heap->load(F.W.Tv + F.W.TvV->Offset, ir::Type::Ref);
  for (unsigned I = 0; I != Recs.size(); ++I) {
    EXPECT_EQ(Recs[I].Iteration, I);
    EXPECT_EQ(Recs[I].Address, V + vm::ObjectHeaderSize + 8 * I);
  }

  // L1 (tv.ptr) is loop-invariant: same address every iteration.
  const auto &R1 = R.Trace.at(F.W.L1);
  ASSERT_EQ(R1.size(), 20u);
  for (const auto &Rec : R1)
    EXPECT_EQ(Rec.Address, F.W.Tv + F.W.TvPtr->Offset);
}

TEST(InspectTest, L9AddressesFollowTheScrambledTokens) {
  JessFixture F;
  InspectionResult R = F.inspect(F.outer());
  // L9 = getfield tmp.facts: address = token + 16, with tokens scrambled.
  vm::Addr V = F.W.Heap->load(F.W.Tv + F.W.TvV->Offset, ir::Type::Ref);
  const auto &Recs = R.Trace.at(F.W.L9);
  ASSERT_GE(Recs.size(), 19u); // Recorded (nearly) every iteration.
  for (const auto &Rec : Recs) {
    vm::Addr Tok = F.W.Heap->load(
        F.W.Heap->elemAddr(V, Rec.Iteration), ir::Type::Ref);
    EXPECT_EQ(Rec.Address, Tok + F.W.TokFacts->Offset);
  }
}

TEST(InspectTest, InspectionIsSideEffectFree) {
  JessFixture F;
  // Snapshot the whole used heap.
  std::vector<uint8_t> Before(F.W.Heap->bytesUsed());
  for (uint64_t I = 0; I != Before.size(); I += 8) {
    uint64_t V = F.W.Heap->load(F.W.Heap->heapBase() + I, ir::Type::I64);
    memcpy(&Before[I], &V, std::min<uint64_t>(8, Before.size() - I));
  }
  uint64_t UsedBefore = F.W.Heap->bytesUsed();
  uint64_t AllocsBefore = F.W.Heap->allocationCount();

  F.inspect(F.outer());

  EXPECT_EQ(F.W.Heap->bytesUsed(), UsedBefore);
  EXPECT_EQ(F.W.Heap->allocationCount(), AllocsBefore);
  for (uint64_t I = 0; I + 8 <= Before.size(); I += 8) {
    uint64_t V = F.W.Heap->load(F.W.Heap->heapBase() + I, ir::Type::I64);
    uint64_t Old;
    memcpy(&Old, &Before[I], 8);
    ASSERT_EQ(V, Old) << "heap mutated at offset " << I;
  }
}

TEST(InspectTest, CallsAreSkippedSoInnerLoopRunsOncePerOuterIteration) {
  JessFixture F;
  InspectionResult R = F.inspect(F.outer());
  // equals() returns unknown; the unknown-branch policy prefers the
  // shallower successor (continue TokenLoop), so the inner loop is
  // entered once and iterates once per outer iteration.
  auto It = R.SubLoopTrips.find(F.inner());
  ASSERT_NE(It, R.SubLoopTrips.end());
  EXPECT_EQ(It->second.Entries, 20u);
  EXPECT_EQ(It->second.Iterations, 20u);
}

TEST(InspectTest, InnerLoopAsTargetExitsEarlyWithSmallTripCount) {
  JessFixture F;
  InspectionResult R = F.inspect(F.inner());
  EXPECT_TRUE(R.ReachedTarget);
  // When the inner loop itself is inspected, known conditions drive it:
  // j runs to t.size (5) and the loop exits — a small-trip observation.
  EXPECT_TRUE(R.TargetExitedEarly);
  EXPECT_EQ(R.IterationsObserved, 6u); // 5 body iterations + exit check.
}

TEST(InspectTest, StepBudgetAbortsGracefully) {
  JessFixture F;
  InspectorOptions Opts;
  Opts.StepBudget = 40;
  InspectionResult R = F.inspect(F.outer(), Opts);
  EXPECT_EQ(R.StepsUsed, 41u);
  EXPECT_EQ(R.IterationsObserved, 2u);
  EXPECT_FALSE(R.TargetExitedEarly);
}

// -- Store buffering, private heap, pre-target loops ----------------------

struct ScratchWorld {
  vm::TypeTable Types;
  const vm::ClassDesc *Cell;
  const vm::FieldDesc *FVal;
  std::unique_ptr<vm::Heap> Heap;
  ir::Module M;

  ScratchWorld() {
    auto *C = Types.addClass("Cell");
    FVal = Types.addField(C, "v", ir::Type::I32);
    Cell = C;
    vm::HeapConfig HC;
    HC.HeapBytes = 1 << 20;
    Heap = std::make_unique<vm::Heap>(Types, HC);
  }
};

TEST(InspectTest, StoresAreBufferedAndLoadsSeeThem) {
  ScratchWorld S;
  vm::Addr Obj = S.Heap->allocObject(*S.Cell);
  S.Heap->store(Obj + S.FVal->Offset, ir::Type::I32, 5);
  vm::Addr Arr = S.Heap->allocArray(ir::Type::Ref, 8);
  S.Heap->store(S.Heap->elemAddr(Arr, 0), ir::Type::Ref, Obj);

  // loop { c = a[0]; c.v = c.v + 1; sink = aload a[c.v % 8]; }
  // If stores were visible, c.v would grow; buffered stores must still be
  // seen by subsequent loads *within the inspection*.
  IRBuilder B(S.M);
  Method *Fn = S.M.addMethod("f", Type::I32, {Type::Ref, Type::I32});
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(1)));
  Value *C = B.aload(Fn->arg(0), B.i32(0), Type::Ref);
  Value *V = B.getField(C, S.FVal);
  B.putField(C, S.FVal, B.add(V, B.i32(1)));
  Instruction *Probe =
      cast<Instruction>(B.aload(Fn->arg(0), B.rem(B.getField(C, S.FVal),
                                                  B.i32(8)),
                                Type::Ref));
  L.close();
  B.ret(B.i32(0));
  Fn->recomputePreds();
  ASSERT_TRUE(verifyMethod(Fn));

  analysis::DominatorTree DT(Fn);
  analysis::LoopInfo LI(Fn, DT);
  LoadDependenceGraph G(LI.topLevelLoops()[0], LI);
  ObjectInspector Insp(*S.Heap, LI);
  InspectionResult R =
      Insp.inspect(Fn, {Arr, 100}, LI.topLevelLoops()[0], G);

  // Probe index = (5 + iter + 1) % 8: the buffered increments are seen.
  const auto &Recs = R.Trace.at(Probe);
  ASSERT_GE(Recs.size(), 8u);
  for (const auto &Rec : Recs) {
    uint64_t Idx = (5 + Rec.Iteration + 1) % 8;
    EXPECT_EQ(Rec.Address, S.Heap->elemAddr(Arr, Idx));
  }
  // And the real heap still holds 5.
  EXPECT_EQ(S.Heap->load(Obj + S.FVal->Offset, ir::Type::I32), 5u);
}

TEST(InspectTest, AllocationsGoToThePrivateHeap) {
  ScratchWorld S;
  // loop { c = new Cell; c.v = 9; acc = c.v; probe = a[acc % 4] }
  IRBuilder B(S.M);
  Method *Fn = S.M.addMethod("f", Type::I32, {Type::Ref, Type::I32});
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(1)));
  Value *C = B.newObject(S.Cell);
  B.putField(C, S.FVal, B.i32(9));
  Value *V = B.getField(C, S.FVal); // Must read 9 from the shadow store.
  Instruction *Probe = cast<Instruction>(
      B.aload(Fn->arg(0), B.rem(V, B.i32(4)), Type::I32));
  L.close();
  B.ret(B.i32(0));
  ASSERT_TRUE(verifyMethod(Fn));

  vm::Addr Arr = S.Heap->allocArray(ir::Type::I32, 8);
  uint64_t UsedBefore = S.Heap->bytesUsed();

  analysis::DominatorTree DT(Fn);
  analysis::LoopInfo LI(Fn, DT);
  LoadDependenceGraph G(LI.topLevelLoops()[0], LI);
  ObjectInspector Insp(*S.Heap, LI);
  InspectionResult R = Insp.inspect(Fn, {Arr, 50}, LI.topLevelLoops()[0], G);

  EXPECT_EQ(S.Heap->bytesUsed(), UsedBefore); // Nothing really allocated.
  const auto &Recs = R.Trace.at(Probe);
  ASSERT_GE(Recs.size(), 10u);
  for (const auto &Rec : Recs)
    EXPECT_EQ(Rec.Address, S.Heap->elemAddr(Arr, 9 % 4)); // v == 9 seen.
}

TEST(InspectTest, PreTargetLoopsRunOnce) {
  ScratchWorld S;
  // pre: for (k = 0; k < 1000; k++) base++;   <- interpreted once
  // target: for (i = 0; i < n; i++) probe = a[(base + i) % 8];
  IRBuilder B(S.M);
  Method *Fn = S.M.addMethod("f", Type::I32, {Type::Ref, Type::I32});
  B.setInsertPoint(Fn->addBlock("entry"));

  workloads::LoopNest Pre(B, "pre");
  PhiInst *K = Pre.civ(B.i32(0));
  PhiInst *Base = Pre.addCarried(B.i32(0));
  Pre.beginBody(B.cmpLt(K, B.i32(1000)));
  Pre.setNext(Base, B.add(Base, B.i32(1)));
  Pre.close();

  workloads::LoopNest L(B, "target");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(1)));
  Instruction *Probe = cast<Instruction>(B.aload(
      Fn->arg(0), B.rem(B.add(Base, I), B.i32(8)), Type::I32));
  L.close();
  B.ret(B.i32(0));
  ASSERT_TRUE(verifyMethod(Fn));

  vm::Addr Arr = S.Heap->allocArray(ir::Type::I32, 8);

  analysis::DominatorTree DT(Fn);
  analysis::LoopInfo LI(Fn, DT);
  // The target is the SECOND top-level loop.
  ASSERT_EQ(LI.topLevelLoops().size(), 2u);
  analysis::Loop *Target = LI.topLevelLoops()[1];
  LoadDependenceGraph G(Target, LI);
  ObjectInspector Insp(*S.Heap, LI);
  InspectionResult R = Insp.inspect(Fn, {Arr, 100}, Target, G);

  EXPECT_TRUE(R.ReachedTarget);
  // The pre-loop ran once, so base == 1 (not 1000): the probe addresses
  // start at element (1 + 0) % 8 = 1.
  const auto &Recs = R.Trace.at(Probe);
  ASSERT_GE(Recs.size(), 8u);
  EXPECT_EQ(Recs[0].Address, S.Heap->elemAddr(Arr, 1));
  // And the inspection spent nowhere near 1000 pre-loop iterations.
  EXPECT_EQ(R.StepsUsed, 170u);
}


// -- Malformed IR degrades instead of aborting -----------------------------

/// Inspects `f(a, 30)`'s first top-level loop the way the pass would,
/// applying \p Break to the IR after the loop analyses ran.
InspectionResult inspectFirstLoop(
    ScratchWorld &S, Method *Fn, vm::Addr Arr,
    InspectorOptions Opts = InspectorOptions(),
    const std::function<void()> &Break = [] {}) {
  Fn->recomputePreds();
  analysis::DominatorTree DT(Fn);
  analysis::LoopInfo LI(Fn, DT);
  LoadDependenceGraph G(LI.topLevelLoops()[0], LI);
  Break();
  ObjectInspector Insp(*S.Heap, LI, Opts);
  return Insp.inspect(Fn, {Arr, 30}, LI.topLevelLoops()[0], G);
}

TEST(InspectMalformedTest, BlockWithoutTerminatorDegrades) {
  // for (i = 0; i < n; i++) a[i]; then the body loses its jump.
  ScratchWorld S;
  IRBuilder B(S.M);
  Method *Fn = S.M.addMethod("f", Type::I32, {Type::Ref, Type::I32});
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(1)));
  B.aload(Fn->arg(0), I, Type::I32);
  L.close();
  B.ret(B.i32(0));
  ASSERT_TRUE(verifyMethod(Fn));

  vm::Addr Arr = S.Heap->allocArray(ir::Type::I32, 64);
  BasicBlock *Body = L.bodyBlock();
  InspectionResult R =
      inspectFirstLoop(S, Fn, Arr, InspectorOptions(),
                       [Body] { Body->erase(Body->terminator()); });
  EXPECT_TRUE(R.ReachedTarget);
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.DegradeReason, "malformed IR: block without terminator");
  EXPECT_TRUE(R.Trace.empty()); // Nothing of a broken loop is trusted.
  EXPECT_EQ(R.IterationsObserved, 1u);
  EXPECT_EQ(R.StepsUsed, 4u);
}

TEST(InspectMalformedTest, PhiWithoutInputForItsEdgeDegrades) {
  // entry -> header: i = phi [entry: 0] (no input for the back edge);
  // header: br i < n, body, exit; body: a[i]; jump header.
  ScratchWorld S;
  IRBuilder B(S.M);
  Method *Fn = S.M.addMethod("f", Type::I32, {Type::Ref, Type::I32});
  BasicBlock *Entry = Fn->addBlock("entry");
  BasicBlock *Header = Fn->addBlock("header");
  BasicBlock *Body = Fn->addBlock("body");
  BasicBlock *Exit = Fn->addBlock("exit");
  B.setInsertPoint(Entry);
  B.jump(Header);
  B.setInsertPoint(Header);
  PhiInst *I = B.phi(Type::I32);
  I->addIncoming(Entry, B.i32(0));
  B.br(B.cmpLt(I, Fn->arg(1)), Body, Exit);
  B.setInsertPoint(Body);
  B.aload(Fn->arg(0), I, Type::I32);
  B.jump(Header);
  B.setInsertPoint(Exit);
  B.ret(B.i32(0));

  vm::Addr Arr = S.Heap->allocArray(ir::Type::I32, 64);
  InspectionResult R = inspectFirstLoop(S, Fn, Arr);
  EXPECT_TRUE(R.ReachedTarget);
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.DegradeReason,
            "malformed IR: phi without input for predecessor");
  EXPECT_TRUE(R.Trace.empty());
  // The back edge into iteration 1 is where the missing input shows.
  EXPECT_EQ(R.IterationsObserved, 2u);
  EXPECT_EQ(R.StepsUsed, 5u);
}

} // namespace

// -- Inter-procedural inspection (the paper's discussed extension) ---------

namespace followcalls {

using namespace spf;
using namespace spf::core;
using namespace spf::testkernels;

TEST(InspectFollowCallsTest, EqualsResultBecomesKnown) {
  // With FollowCalls, the inner loop's equals() invocation is stepped
  // into and its result is a concrete value: the inner loop executes its
  // real (data-dependent) trip counts instead of the unknown-branch
  // heuristic's single iteration.
  JessWorld W(64, /*Scramble=*/true);
  W.Find->recomputePreds();
  analysis::DominatorTree DT(W.Find);
  analysis::LoopInfo LI(W.Find, DT);
  analysis::Loop *Outer = LI.topLevelLoops()[0];
  analysis::Loop *Inner = Outer->subLoops()[0];
  LoadDependenceGraph G(Outer, LI);

  InspectorOptions Opts;
  Opts.FollowCalls = true;
  ObjectInspector Insp(*W.Heap, LI, Opts);
  InspectionResult R = Insp.inspect(W.Find, W.findArgs(), Outer, G);

  ASSERT_TRUE(R.ReachedTarget);
  // The query token matches no scanned token on every early iteration, so
  // the real inner-loop trip is small but exact; crucially the stride
  // discoveries are the same as with skipped calls.
  annotateStrides(G, R, StrideOptions());
  EXPECT_TRUE(G.nodes()[*G.nodeFor(W.L4)].InterStride.has_value());
  LdgEdge *E = G.edgeBetween(*G.nodeFor(W.L9), *G.nodeFor(W.L10));
  ASSERT_NE(E, nullptr);
  EXPECT_TRUE(E->IntraStride.has_value());
  EXPECT_EQ(*E->IntraStride, 24);
  EXPECT_NE(R.SubLoopTrips.find(Inner), R.SubLoopTrips.end());
}

TEST(InspectFollowCallsTest, FollowingCostsMoreSteps) {
  // The paper's trade-off: accuracy up, compilation time up.
  JessWorld W(64, true);
  W.Find->recomputePreds();
  analysis::DominatorTree DT(W.Find);
  analysis::LoopInfo LI(W.Find, DT);
  analysis::Loop *Outer = LI.topLevelLoops()[0];
  LoadDependenceGraph G(Outer, LI);

  ObjectInspector Plain(*W.Heap, LI);
  InspectionResult RPlain = Plain.inspect(W.Find, W.findArgs(), Outer, G);

  InspectorOptions Opts;
  Opts.FollowCalls = true;
  ObjectInspector Follow(*W.Heap, LI, Opts);
  InspectionResult RFollow = Follow.inspect(W.Find, W.findArgs(), Outer, G);

  EXPECT_EQ(RPlain.StepsUsed, 401u);
  EXPECT_EQ(RFollow.StepsUsed, 481u);
}

TEST(InspectFollowCallsTest, RecursionIsDepthLimited) {
  // A self-recursive callee must not hang the inspector.
  ScratchWorld S;
  IRBuilder B(S.M);
  Method *Rec = S.M.addMethod("rec", Type::I32, {Type::I32});
  {
    BasicBlock *Entry = Rec->addBlock("entry");
    BasicBlock *Base = Rec->addBlock("base");
    BasicBlock *Call = Rec->addBlock("call");
    B.setInsertPoint(Entry);
    B.br(B.cmpLe(Rec->arg(0), B.i32(0)), Base, Call);
    B.setInsertPoint(Base);
    B.ret(B.i32(1));
    B.setInsertPoint(Call);
    Value *Sub = B.call(Rec, Type::I32, {B.sub(Rec->arg(0), B.i32(1))});
    B.ret(B.add(Sub, B.i32(1)));
  }

  Method *Fn = S.M.addMethod("f", Type::I32, {Type::Ref, Type::I32});
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(1)));
  Value *V = B.call(Rec, Type::I32, {B.i32(1000000)}); // Deep recursion.
  B.aload(Fn->arg(0), B.rem(V, B.i32(4)), Type::I32);
  L.close();
  B.ret(B.i32(0));
  ASSERT_TRUE(verifyMethod(Fn));

  vm::Addr Arr = S.Heap->allocArray(ir::Type::I32, 8);
  Fn->recomputePreds();
  analysis::DominatorTree DT(Fn);
  analysis::LoopInfo LI(Fn, DT);
  LoadDependenceGraph G(LI.topLevelLoops()[0], LI);
  InspectorOptions Opts;
  Opts.FollowCalls = true;
  Opts.MaxCallDepth = 3;
  ObjectInspector Insp(*S.Heap, LI, Opts);
  InspectionResult R = Insp.inspect(Fn, {Arr, 50}, LI.topLevelLoops()[0], G);
  EXPECT_TRUE(R.ReachedTarget);
  EXPECT_EQ(R.StepsUsed, 521u);
  EXPECT_EQ(R.IterationsObserved, 20u);

  // A budget that runs out inside the recursion overshoots by one step
  // per frame that unwinds: "budget:steps" for budgets 1..60.
  std::ostringstream Steps;
  for (uint64_t Budget = 1; Budget <= 60; ++Budget) {
    Opts.StepBudget = Budget;
    ObjectInspector Capped(*S.Heap, LI, Opts);
    Steps << Budget << ":"
          << Capped.inspect(Fn, {Arr, 50}, LI.topLevelLoops()[0], G).StepsUsed
          << " ";
  }
  EXPECT_EQ(Steps.str(), "1:2 2:3 3:4 4:6 5:7 6:8 7:9 8:11 9:12 10:13 11:14 12:16 13:17 "
            "14:18 15:19 16:20 17:21 18:21 19:22 20:22 21:23 22:23 23:24 "
            "24:25 25:26 26:27 27:28 28:29 29:30 30:32 31:33 32:34 33:35 "
            "34:37 35:38 36:39 37:40 38:42 39:43 40:44 41:45 42:46 43:47 "
            "44:47 45:48 46:48 47:49 48:49 49:50 50:51 51:52 52:53 53:54 "
            "54:55 55:56 56:58 57:59 58:60 59:61 60:63 ");
}

TEST(InspectFollowCallsTest, CalleeStoresAreBufferedToo) {
  // A callee that increments a field: following it must keep the side
  // effect in the shared store buffer, visible to the caller's loads but
  // never written to the real heap.
  ScratchWorld S;
  IRBuilder B(S.M);
  Method *Bump = S.M.addMethod("bump", Type::Void, {Type::Ref});
  B.setInsertPoint(Bump->addBlock("entry"));
  Value *Old = B.getField(Bump->arg(0), S.FVal);
  B.putField(Bump->arg(0), S.FVal, B.add(Old, B.i32(1)));
  B.ret();

  Method *Fn = S.M.addMethod("f", Type::I32, {Type::Ref, Type::Ref,
                                              Type::I32});
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(2)));
  B.call(Bump, Type::Void, {Fn->arg(1)});
  Value *V = B.getField(Fn->arg(1), S.FVal);
  Instruction *Probe = cast<Instruction>(
      B.aload(Fn->arg(0), B.rem(V, B.i32(8)), Type::I32));
  L.close();
  B.ret(B.i32(0));
  ASSERT_TRUE(verifyMethod(Fn));

  vm::Addr Arr = S.Heap->allocArray(ir::Type::I32, 8);
  vm::Addr Obj = S.Heap->allocObject(*S.Cell);
  S.Heap->store(Obj + S.FVal->Offset, ir::Type::I32, 3);

  Fn->recomputePreds();
  analysis::DominatorTree DT(Fn);
  analysis::LoopInfo LI(Fn, DT);
  LoadDependenceGraph G(LI.topLevelLoops()[0], LI);
  InspectorOptions Opts;
  Opts.FollowCalls = true;
  ObjectInspector Insp(*S.Heap, LI, Opts);
  InspectionResult R =
      Insp.inspect(Fn, {Arr, Obj, 20}, LI.topLevelLoops()[0], G);

  // Iteration k loads (3 + k + 1) % 8.
  const auto &Recs = R.Trace.at(Probe);
  ASSERT_GE(Recs.size(), 8u);
  for (const auto &Rec : Recs)
    EXPECT_EQ(Rec.Address, S.Heap->elemAddr(Arr, (3 + Rec.Iteration + 1) % 8));
  // Real heap untouched.
  EXPECT_EQ(S.Heap->load(Obj + S.FVal->Offset, ir::Type::I32), 3u);
}


TEST(InspectFollowCallsTest, CalleeLoopsRunOncePerEntry) {
  // count(n) { c = 0; for (k = 0; k < n; k++) c++; return c; } stepped
  // into from the target loop: the callee's loop follows the pre-target
  // rule, so it returns 1 whatever n is, and the probe reads a[1].
  ScratchWorld S;
  IRBuilder B(S.M);
  Method *Count = S.M.addMethod("count", Type::I32, {Type::I32});
  B.setInsertPoint(Count->addBlock("entry"));
  workloads::LoopNest K(B, "k");
  PhiInst *KIv = K.civ(B.i32(0));
  PhiInst *C = K.addCarried(B.i32(0));
  K.beginBody(B.cmpLt(KIv, Count->arg(0)));
  K.setNext(C, B.add(C, B.i32(1)));
  K.close();
  B.ret(C);

  Method *Fn = S.M.addMethod("f", Type::I32, {Type::Ref, Type::I32});
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(1)));
  Value *N = B.call(Count, Type::I32, {B.i32(100)});
  Instruction *Probe =
      cast<Instruction>(B.aload(Fn->arg(0), N, Type::I32));
  L.close();
  B.ret(B.i32(0));
  ASSERT_TRUE(verifyMethod(Count));
  ASSERT_TRUE(verifyMethod(Fn));

  vm::Addr Arr = S.Heap->allocArray(ir::Type::I32, 8);
  InspectorOptions Opts;
  Opts.FollowCalls = true;
  InspectionResult R = inspectFirstLoop(S, Fn, Arr, Opts);
  EXPECT_EQ(R.IterationsObserved, 20u);
  EXPECT_EQ(R.StepsUsed, 341u);
  const auto &Recs = R.Trace.at(Probe);
  ASSERT_EQ(Recs.size(), 20u);
  for (const auto &Rec : Recs)
    EXPECT_EQ(Rec.Address, S.Heap->elemAddr(Arr, 1));
}

TEST(InspectFollowCallsTest, CalleeWithoutTerminatorDegrades) {
  // A followed callee whose only block falls off its end: the call yields
  // `unknown`, the caller keeps inspecting, and the loop is degraded.
  ScratchWorld S;
  IRBuilder B(S.M);
  Method *Bad = S.M.addMethod("bad", Type::I32, {Type::I32});
  B.setInsertPoint(Bad->addBlock("entry"));
  B.add(Bad->arg(0), B.i32(1)); // No ret.

  Method *Fn = S.M.addMethod("f", Type::I32, {Type::Ref, Type::I32});
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(1)));
  Value *V = B.call(Bad, Type::I32, {I});
  Instruction *Probe = cast<Instruction>(B.aload(Fn->arg(0), I, Type::I32));
  B.aload(Fn->arg(0), B.rem(V, B.i32(4)), Type::I32);
  L.close();
  B.ret(B.i32(0));
  ASSERT_TRUE(verifyMethod(Fn));

  vm::Addr Arr = S.Heap->allocArray(ir::Type::I32, 64);
  InspectorOptions Opts;
  Opts.FollowCalls = true;
  InspectionResult R = inspectFirstLoop(S, Fn, Arr, Opts);
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.DegradeReason, "malformed IR: callee block without terminator");
  EXPECT_EQ(R.IterationsObserved, 20u);
  EXPECT_EQ(R.StepsUsed, 201u);
  // Only the load whose address does not depend on the call is traced.
  EXPECT_EQ(R.Trace.size(), 1u);
  ASSERT_EQ(R.Trace.count(Probe), 1u);
  EXPECT_EQ(R.Trace.at(Probe).size(), 20u);
}

} // namespace followcalls
