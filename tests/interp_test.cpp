//===- tests/interp_test.cpp - IR execution engine ------------------------===//

#include "TestKernels.h"
#include "analysis/LoopInfo.h"
#include "core/ObjectInspector.h"
#include "core/PrefetchCodeGen.h"
#include "exec/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/Semantics.h"
#include "ir/Verifier.h"
#include "jit/CompileManager.h"
#include "opt/ConstantFolding.h"
#include "sim/CountingSink.h"
#include "sim/MemorySystem.h"
#include "support/Status.h"
#include "workloads/KernelBuilder.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

#include <climits>

using namespace spf;
using namespace spf::ir;

namespace {

class InterpTest : public ::testing::Test {
protected:
  InterpTest()
      : Heap(Types, smallHeap()), Mem((*sim::MachineConfig::byName("pentium4"))),
        Interp(Heap, Mem) {}

  static vm::HeapConfig smallHeap() {
    vm::HeapConfig HC;
    HC.HeapBytes = 1 << 20;
    return HC;
  }

  uint64_t run(Method *M, std::vector<uint64_t> Args) {
    EXPECT_TRUE(verifyMethod(M));
    return Interp.run(M, Args);
  }

  vm::TypeTable Types;
  vm::Heap Heap;
  sim::MemorySystem Mem;
  exec::Interpreter Interp;
  Module M;
};

TEST_F(InterpTest, IntegerArithmetic) {
  Method *Fn = M.addMethod("arith", Type::I32, {Type::I32, Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *S = B.add(Fn->arg(0), Fn->arg(1));
  Value *D = B.mul(S, B.i32(3));
  Value *R = B.sub(D, B.rem(Fn->arg(0), B.i32(5)));
  B.ret(B.div(R, B.i32(2)));
  // ((7+4)*3 - 7%5) / 2 = (33 - 2) / 2 = 15
  EXPECT_EQ(run(Fn, {7, 4}), 15u);
}

TEST_F(InterpTest, I32WrapsAt32Bits) {
  Method *Fn = M.addMethod("wrap", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  B.ret(B.add(Fn->arg(0), B.i32(1)));
  uint64_t R = run(Fn, {0x7fffffffull});
  // INT32_MAX + 1 wraps to INT32_MIN, sign-extended in the slot.
  EXPECT_EQ(static_cast<int64_t>(R), -2147483648LL);
}

TEST_F(InterpTest, FloatArithmeticAndConversion) {
  Method *Fn = M.addMethod("fp", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *F = B.conv(ConvInst::ConvOp::IToF, Fn->arg(0));
  Value *G = B.mul(F, B.f64(2.5));
  B.ret(B.conv(ConvInst::ConvOp::FToI, G));
  EXPECT_EQ(run(Fn, {10}), 25u);
}

TEST_F(InterpTest, LoopWithPhiComputesSum) {
  Method *Fn = M.addMethod("sum", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  PhiInst *S = L.addCarried(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(0)));
  L.setNext(S, B.add(S, I));
  L.close();
  B.ret(S);
  EXPECT_EQ(run(Fn, {10}), 45u); // 0+1+...+9
}

TEST_F(InterpTest, FieldAndArrayRoundTrip) {
  auto *Cls = Types.addClass("Pair");
  const vm::FieldDesc *FA = Types.addField(Cls, "a", Type::I32);
  const vm::FieldDesc *FB = Types.addField(Cls, "b", Type::I64);

  Method *Fn = M.addMethod("rt", Type::I64, {});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *O = B.newObject(Cls);
  B.putField(O, FA, B.i32(-3));
  B.putField(O, FB, B.i64(1000));
  Value *Arr = B.newArray(Type::I64, B.i32(4));
  B.astore(Arr, B.i32(2), B.getField(O, FB));
  Value *A = B.conv(ConvInst::ConvOp::SExt32To64, B.getField(O, FA));
  Value *E = B.aload(Arr, B.i32(2), Type::I64);
  B.ret(B.add(A, E));
  EXPECT_EQ(static_cast<int64_t>(run(Fn, {})), 997);
}

TEST_F(InterpTest, ArrayLengthLoadsHeader) {
  Method *Fn = M.addMethod("len", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *Arr = B.newArray(Type::I32, Fn->arg(0));
  B.ret(B.arrayLength(Arr));
  EXPECT_EQ(run(Fn, {17}), 17u);
}

TEST_F(InterpTest, CallsAndRecursion) {
  Method *Fib = M.addMethod("fib", Type::I32, {Type::I32});
  IRBuilder B(M);
  BasicBlock *Entry = Fib->addBlock("entry");
  BasicBlock *Base = Fib->addBlock("base");
  BasicBlock *Rec = Fib->addBlock("rec");
  B.setInsertPoint(Entry);
  B.br(B.cmpLt(Fib->arg(0), B.i32(2)), Base, Rec);
  B.setInsertPoint(Base);
  B.ret(Fib->arg(0));
  B.setInsertPoint(Rec);
  Value *A = B.call(Fib, Type::I32, {B.sub(Fib->arg(0), B.i32(1))});
  Value *C = B.call(Fib, Type::I32, {B.sub(Fib->arg(0), B.i32(2))});
  B.ret(B.add(A, C));
  EXPECT_EQ(run(Fib, {10}), 55u);
  EXPECT_GT(Interp.stats().Calls, 100u);
}

TEST_F(InterpTest, NativeMethodsExecuteDirectly) {
  Method *Nat = M.addMethod("native.max", Type::I32, {Type::I32, Type::I32});
  Nat->setNative([](const std::vector<uint64_t> &Args) {
    int64_t A = static_cast<int64_t>(Args[0]);
    int64_t B = static_cast<int64_t>(Args[1]);
    return static_cast<uint64_t>(A > B ? A : B);
  });
  Method *Fn = M.addMethod("callNative", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  B.ret(B.call(Nat, Type::I32, {Fn->arg(0), B.i32(42)}));
  EXPECT_EQ(run(Fn, {7}), 42u);
  EXPECT_EQ(run(Fn, {100}), 100u);
}

TEST_F(InterpTest, AllocationFailureTriggersGcAndRetries) {
  auto *Cls = Types.addClass("Blob");
  for (int I = 0; I < 20; ++I)
    Types.addField(Cls, "f" + std::to_string(I), Type::I64);

  // Allocate in a loop, keeping only the newest object: the rest is
  // garbage the collector must reclaim mid-run.
  Method *Fn = M.addMethod("churn", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(0)));
  B.newObject(Cls); // 176 bytes of garbage per iteration.
  L.close();
  B.ret(B.i32(1));

  // 20000 iterations x 176B ~ 3.4 MB through a 1 MB heap.
  EXPECT_EQ(run(Fn, {20000}), 1u);
  EXPECT_GT(Interp.stats().GcRuns, 0u);
  EXPECT_EQ(Interp.stats().Allocations, 20000u);
}

TEST_F(InterpTest, GcPreservesLiveDataReachableFromFrames) {
  auto *Cls = Types.addClass("Cell");
  const vm::FieldDesc *FV = Types.addField(Cls, "v", Type::I32);
  auto *Blob = Types.addClass("Garbage");
  for (int I = 0; I < 30; ++I)
    Types.addField(Blob, "f" + std::to_string(I), Type::I64);

  Method *Fn = M.addMethod("live", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *Keep = B.newObject(Cls); // Live across the whole loop.
  B.putField(Keep, FV, B.i32(777));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(0)));
  B.newObject(Blob);
  L.close();
  B.ret(B.getField(Keep, FV)); // Must still read 777 after GCs.

  EXPECT_EQ(run(Fn, {10000}), 777u);
  EXPECT_GT(Interp.stats().GcRuns, 0u);
}

TEST_F(InterpTest, PrefetchInstructionsAreCountedAndHarmless) {
  Method *Fn = M.addMethod("pf", Type::I32, {Type::Ref, Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  PhiInst *S = L.addCarried(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(1)));
  Value *E = B.aload(Fn->arg(0), I, Type::I32);
  B.prefetch(Fn->arg(0), I, 4, 64);
  Value *Spec = B.specLoad(Fn->arg(0), I, 4, 16);
  B.prefetch(Spec, nullptr, 0, 0, /*Guarded=*/true);
  L.setNext(S, B.add(S, E));
  L.close();
  B.ret(S);

  vm::Addr Arr = Heap.allocArray(Type::I32, 64);
  for (unsigned I = 0; I != 64; ++I)
    Heap.store(Heap.elemAddr(Arr, I), Type::I32, I);
  EXPECT_EQ(run(Fn, {Arr, 64}), 2016u); // Sum unchanged by prefetching.
  EXPECT_EQ(Interp.stats().PrefetchRelated, 3u * 64);
  EXPECT_GT(Mem.stats().SwPrefetchesIssued, 0u);
  EXPECT_GT(Mem.stats().GuardedLoads, 0u);
}

TEST_F(InterpTest, SpecLoadOfInvalidAddressYieldsNull) {
  Method *Fn = M.addMethod("spec", Type::Ref, {Type::Ref});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  // Far beyond any allocation: the guard must suppress the access.
  Value *V = B.specLoad(Fn->arg(0), nullptr, 0, 1 << 30);
  B.ret(V);
  vm::Addr Arr = Heap.allocArray(Type::I32, 4);
  EXPECT_EQ(run(Fn, {Arr}), 0u);
}

TEST_F(InterpTest, RetiredCountsExcludePhis) {
  Method *Fn = M.addMethod("count", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, Fn->arg(0)));
  L.close();
  B.ret(I);

  uint64_t Before = Interp.stats().Retired;
  run(Fn, {5});
  uint64_t Retired = Interp.stats().Retired - Before;
  // Per iteration: cmp + br + body jump + (latch) add + jump = 5; plus the
  // entry jump, the final cmp + br, and ret: 5*5 + 1 + 2 + 1 = 29. Phis
  // retire nothing.
  EXPECT_EQ(Retired, 29u);
}

// -- Java-exact arithmetic: engine, folder and inspector agree ------------

struct SemCase {
  const char *Name;
  BinaryInst::BinOp Op;
  Type Ty;
  int64_t L, R, Expected;
};

// The three defects the shared semantics fixed (i64 MIN / -1 and MIN % -1
// raised SIGFPE, i32 shifts masked by 63, signed overflow was UB), plus
// their neighbours.
const SemCase SemCases[] = {
    {"div i64 MIN,-1", BinaryInst::BinOp::Div, Type::I64, INT64_MIN, -1,
     INT64_MIN},
    {"rem i64 MIN,-1", BinaryInst::BinOp::Rem, Type::I64, INT64_MIN, -1, 0},
    {"div i32 MIN,-1", BinaryInst::BinOp::Div, Type::I32, INT32_MIN, -1,
     INT32_MIN},
    {"rem i32 MIN,-1", BinaryInst::BinOp::Rem, Type::I32, INT32_MIN, -1, 0},
    {"shl i32 1,33", BinaryInst::BinOp::Shl, Type::I32, 1, 33, 2},
    {"shr i32 -8,33", BinaryInst::BinOp::Shr, Type::I32, -8, 33, -4},
    {"shl i64 1,65", BinaryInst::BinOp::Shl, Type::I64, 1, 65, 2},
    {"add i64 MAX,1", BinaryInst::BinOp::Add, Type::I64, INT64_MAX, 1,
     INT64_MIN},
    {"sub i64 MIN,1", BinaryInst::BinOp::Sub, Type::I64, INT64_MIN, 1,
     INT64_MAX},
    {"mul i64 2^62,4", BinaryInst::BinOp::Mul, Type::I64, int64_t(1) << 62, 4,
     0},
    {"add i32 MAX,1", BinaryInst::BinOp::Add, Type::I32, INT32_MAX, 1,
     INT32_MIN},
    {"mul i32 MIN,-1", BinaryInst::BinOp::Mul, Type::I32, INT32_MIN, -1,
     INT32_MIN},
};

/// The value the constant folder leaves in `ret op(L, R)`.
std::optional<uint64_t> foldedValue(const SemCase &C) {
  Module M;
  Method *Fn = M.addMethod("fold", C.Ty, {});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  B.ret(B.binary(C.Op, M.intConst(C.Ty, C.L), M.intConst(C.Ty, C.R)));
  opt::foldConstants(Fn);
  auto *Ret = cast<RetInst>(Fn->entry()->terminator());
  if (auto *K = dyn_cast<Constant>(Ret->value()))
    return K->raw();
  return std::nullopt;
}

/// The value the object inspector computes for op(L, R): the method loads
/// arr[op(L, R) == Expected] in its loop, so the recorded address says
/// whether the inspector's known-value path produced the expected result.
bool inspectorAgrees(const SemCase &C) {
  vm::TypeTable Types;
  vm::Heap Heap(Types, [] {
    vm::HeapConfig HC;
    HC.HeapBytes = 1 << 16;
    return HC;
  }());
  vm::Addr Arr = Heap.allocArray(Type::I32, 4);

  Module M;
  Method *Fn = M.addMethod("insp", Type::I32, {Type::Ref, C.Ty, C.Ty});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  L.beginBody(B.cmpLt(I, B.i32(4)));
  Value *Res = B.binary(C.Op, Fn->arg(1), Fn->arg(2));
  Value *Hit = B.cmpEq(Res, M.intConst(C.Ty, C.Expected));
  auto *Load = cast<Instruction>(B.aload(Fn->arg(0), Hit, Type::I32));
  L.close();
  B.ret(B.i32(0));

  Fn->recomputePreds();
  analysis::DominatorTree DT(Fn);
  analysis::LoopInfo LI(Fn, DT);
  analysis::Loop *Target = LI.topLevelLoops()[0];
  core::LoadDependenceGraph G(Target, LI);
  core::ObjectInspector Insp(Heap, LI);
  core::InspectionResult R = Insp.inspect(
      Fn, {Arr, static_cast<uint64_t>(C.L), static_cast<uint64_t>(C.R)},
      Target, G);
  auto It = R.Trace.find(Load);
  return It != R.Trace.end() && !It->second.empty() &&
         It->second.front().Address == Arr + vm::ObjectHeaderSize + 4;
}

TEST_F(InterpTest, JavaArithmeticAgreesAcrossEngineFolderAndInspector) {
  for (const SemCase &C : SemCases) {
    SCOPED_TRACE(C.Name);
    uint64_t Want = C.Ty == Type::I32 ? ir::sem::sext32(C.Expected)
                                      : static_cast<uint64_t>(C.Expected);
    uint64_t L = static_cast<uint64_t>(C.L), R = static_cast<uint64_t>(C.R);

    EXPECT_EQ(ir::sem::evalBinary(C.Op, C.Ty, L, R), Want);

    Method *Fn = M.addMethod(std::string("sem.") + C.Name, C.Ty, {C.Ty, C.Ty});
    IRBuilder B(M);
    B.setInsertPoint(Fn->addBlock("entry"));
    B.ret(B.binary(C.Op, Fn->arg(0), Fn->arg(1)));
    EXPECT_EQ(run(Fn, {L, R}), Want);

    EXPECT_EQ(foldedValue(C), Want);
    EXPECT_TRUE(inspectorAgrees(C));
  }
}

TEST_F(InterpTest, OnlyAZeroDivisorTraps) {
  Method *Fn = M.addMethod("divz", Type::I64, {Type::I64, Type::I64});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  B.ret(B.rem(Fn->arg(0), Fn->arg(1)));
  EXPECT_THROW(run(Fn, {7, 0}), support::RuntimeTrap);
  EXPECT_EQ(ir::sem::evalBinary(BinaryInst::BinOp::Div, Type::I32, 7, 0),
            std::nullopt);
  // The folder leaves a zero divisor for the runtime to trap on.
  EXPECT_EQ(foldedValue({"div 7,0", BinaryInst::BinOp::Div, Type::I32, 7, 0,
                         0}),
            std::nullopt);
}

TEST_F(InterpTest, F64ToI32FollowsJava) {
  auto D2I = [](double D) {
    return static_cast<int64_t>(ir::sem::evalConv(
        ConvInst::ConvOp::FToI, ir::sem::f64Bits(D)));
  };
  EXPECT_EQ(D2I(-2.9), -2);
  EXPECT_EQ(D2I(1e12), INT32_MAX);
  EXPECT_EQ(D2I(-1e12), INT32_MIN);
  EXPECT_EQ(D2I(std::nan("")), 0);
}

// -- The decoded engine ---------------------------------------------------

TEST_F(InterpTest, PhiSwapAcrossBackEdgeIsParallel) {
  Method *Fn = M.addMethod("swap", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  workloads::LoopNest L(B, "i");
  PhiInst *I = L.civ(B.i32(0));
  PhiInst *A = L.addCarried(B.i32(1));
  PhiInst *Bv = L.addCarried(B.i32(2));
  L.beginBody(B.cmpLt(I, Fn->arg(0)));
  L.setNext(A, Bv); // a = phi(b), b = phi(a): a swap every iteration.
  L.setNext(Bv, A);
  L.close();
  B.ret(B.add(B.mul(A, B.i32(10)), Bv));
  EXPECT_EQ(run(Fn, {0}), 12u);
  EXPECT_EQ(run(Fn, {1}), 21u);
  EXPECT_EQ(run(Fn, {3}), 21u);
  EXPECT_EQ(run(Fn, {4}), 12u);
}

TEST_F(InterpTest, MixedModeHookRewriteIsRedecodedAndSitesSurvive) {
  auto *Cls = Types.addClass("Box");
  const vm::FieldDesc *FV = Types.addField(Cls, "v", Type::I32);
  Method *Fn = M.addMethod("get", Type::I32, {Type::Ref});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  auto *Add =
      cast<Instruction>(B.add(B.getField(Fn->arg(0), FV), B.i32(1)));
  B.ret(Add);

  vm::Addr Obj = Heap.allocObject(*Cls);
  Heap.store(Obj + FV->Offset, Type::I32, 40);
  Interp.enableMixedMode(
      [&](Method *Hot, const std::vector<uint64_t> &) {
        ASSERT_EQ(Hot, Fn);
        Add->setOperand(1, M.intConst(Type::I32, 2)); // "Compiled" code.
      },
      /*Threshold=*/2);

  EXPECT_EQ(run(Fn, {Obj}), 41u); // Interpreted, decoded form #1.
  EXPECT_EQ(run(Fn, {Obj}), 42u); // Hook fires at entry: re-decoded.
  EXPECT_TRUE(Interp.isCompiled(Fn));
  EXPECT_EQ(run(Fn, {Obj}), 42u);
  // The load kept its first-execution SiteId through the re-decode.
  EXPECT_EQ(Interp.loadSiteCount(), 1u);
  ASSERT_EQ(Mem.siteStats().size(), 1u);
  EXPECT_EQ(Mem.siteStats()[0].Loads, 3u);
}

TEST(InterpEngineTest, StripAndReJitRedecodesAndSurvivingLoadsKeepSites) {
  testkernels::JessWorld W;
  jit::CompileManager::Options Opts;
  Opts.Pass = workloads::passOptionsFor(
      *sim::MachineConfig::byName("pentium4"), core::PrefetchMode::InterIntra);
  jit::CompileManager Jit(*W.Heap, Opts);
  Jit.compile(W.Find, W.findArgs());
  ASSERT_GT(Jit.aggregatePrefetch().CodeGen.SpecLoads, 0u);

  sim::MemorySystem Mem(*sim::MachineConfig::byName("pentium4"));
  Mem.enablePrefetchHealth();
  exec::Interpreter Interp(*W.Heap, Mem);
  Interp.enablePrefetchGovernance();
  uint64_t R1 = Interp.run(W.Find, W.findArgs());
  unsigned Sites = Interp.loadSiteCount();
  std::vector<sim::SiteStats> First = Mem.siteStats();
  uint64_t Prefetching = Interp.stats().PrefetchRelated;
  ASSERT_GT(Prefetching, 0u);

  // Strip the prefetch code: the next run must execute none of it.
  core::CodeGenStats Stripped = core::stripPrefetchCode(*W.Find);
  ASSERT_GT(Stripped.SpecLoads, 0u);
  Interp.invalidateMethodInfo();
  EXPECT_EQ(Interp.run(W.Find, W.findArgs()), R1);
  EXPECT_EQ(Interp.stats().PrefetchRelated, Prefetching);

  // The governor's re-inspection path: re-JIT, invalidate, run again.
  Jit.compile(W.Find, W.findArgs());
  Interp.invalidateMethodInfo();
  EXPECT_EQ(Interp.run(W.Find, W.findArgs()), R1);
  EXPECT_EQ(Interp.stats().PrefetchRelated, 2 * Prefetching);

  // Every demand load kept its site across both rewrites: no new sites,
  // and each site's load count exactly tripled.
  EXPECT_EQ(Interp.loadSiteCount(), Sites);
  ASSERT_EQ(Mem.siteStats().size(), First.size());
  for (size_t S = 0; S != First.size(); ++S)
    EXPECT_EQ(Mem.siteStats()[S].Loads, 3 * First[S].Loads) << "site " << S;
}

TEST_F(InterpTest, GcInDeepCallChainUpdatesEveryFrame) {
  auto *Cls = Types.addClass("Node");
  const vm::FieldDesc *FV = Types.addField(Cls, "v", Type::I32);
  auto *Blob = Types.addClass("Blob");
  for (int I = 0; I < 30; ++I)
    Types.addField(Blob, "f" + std::to_string(I), Type::I64);

  // churn(n): allocate n blobs of garbage.
  Method *Churn = M.addMethod("churn", Type::I32, {Type::I32});
  IRBuilder B(M);
  B.setInsertPoint(Churn->addBlock("entry"));
  {
    workloads::LoopNest L(B, "i");
    PhiInst *I = L.civ(B.i32(0));
    L.beginBody(B.cmpLt(I, Churn->arg(0)));
    B.newObject(Blob);
    L.close();
    B.ret(B.i32(0));
  }

  // deep(d): garbage first, then a kept node holding d; recurse to the
  // bottom, churn there, and sum every frame's node on the way back. Each
  // frame's node is live only through its register slot.
  Method *Deep = M.addMethod("deep", Type::I32, {Type::I32});
  BasicBlock *Entry = Deep->addBlock("entry");
  BasicBlock *Bottom = Deep->addBlock("bottom");
  BasicBlock *Rec = Deep->addBlock("rec");
  B.setInsertPoint(Entry);
  B.newObject(Blob);
  Value *Node = B.newObject(Cls);
  B.putField(Node, FV, Deep->arg(0));
  B.br(B.cmpEq(Deep->arg(0), B.i32(0)), Bottom, Rec);
  B.setInsertPoint(Bottom);
  B.call(Churn, Type::I32, {B.i32(4000)});
  B.ret(B.getField(Node, FV));
  B.setInsertPoint(Rec);
  Value *Sub = B.call(Deep, Type::I32, {B.sub(Deep->arg(0), B.i32(1))});
  B.ret(B.add(Sub, B.getField(Node, FV)));

  // 400 frames grow the register stack several times before the bottom
  // churns ~1 MB through the 1 MB heap.
  EXPECT_EQ(run(Deep, {400}), 400u * 401 / 2);
  EXPECT_GT(Interp.stats().GcRuns, 0u);
}

TEST(InterpEngineTest, TrapMidBlockStillDeliversEarlierEvents) {
  vm::TypeTable Types;
  auto *Cls = Types.addClass("Pair");
  const vm::FieldDesc *FA = Types.addField(Cls, "a", Type::I32);
  const vm::FieldDesc *FN = Types.addField(Cls, "next", Type::Ref);
  vm::HeapConfig HC;
  HC.HeapBytes = 1 << 16;
  vm::Heap Heap(Types, HC);
  Module M;
  Method *Fn = M.addMethod("npe", Type::I32, {Type::Ref});
  IRBuilder B(M);
  B.setInsertPoint(Fn->addBlock("entry"));
  Value *A = B.getField(Fn->arg(0), FA);
  Value *A2 = B.add(A, B.getField(Fn->arg(0), FA));
  B.putField(Fn->arg(0), FA, A2);
  Value *Next = B.getField(Fn->arg(0), FN); // null
  B.ret(B.getField(Next, FA));              // traps

  vm::Addr Obj = Heap.allocObject(*Cls);
  sim::CountingSink Counts;
  exec::Interpreter Interp(Heap, Counts);
  EXPECT_THROW(Interp.run(Fn, {Obj}), support::RuntimeTrap);
  // Three loads, one store and the add's tick reached the sink although
  // the block never filled and run() never returned normally.
  EXPECT_EQ(Counts.Loads, 3u);
  EXPECT_EQ(Counts.Stores, 1u);
  EXPECT_EQ(Counts.TicksTotal, 1u);
  EXPECT_EQ(Interp.stats().Retired, 6u);
}

} // namespace
