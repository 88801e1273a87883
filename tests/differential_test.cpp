//===- tests/differential_test.cpp - Interpreter vs C++ oracle ------------===//
//
// Property tests that pit the execution engine against independently
// written C++ evaluations, and the three IR evaluators against each other:
//
//  * random straight-line arithmetic programs, evaluated by a direct C++
//    mirror of each emitted operation, by the interpreter, by the constant
//    folder, and by object inspection (which must all agree);
//  * random heap programs (field/array traffic) against a std::map-based
//    memory oracle;
//  * random strided loops: the addresses object inspection records for
//    the first 20 iterations are the ones the interpreter touches, and
//    running the prefetch pass never changes the loop's result.
//
//===----------------------------------------------------------------------===//

#include "core/ObjectInspector.h"
#include "core/PrefetchPass.h"
#include "exec/Interpreter.h"
#include "ir/Verifier.h"
#include "opt/ConstantFolding.h"
#include "support/SplitMix64.h"
#include "trace/RecordingSink.h"
#include "workloads/KernelBuilder.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

using namespace spf;
using namespace spf::ir;

namespace {

int32_t wrap32(int64_t V) { return static_cast<int32_t>(V); }

/// Emits a random i32 op and returns both the IR value and the oracle's
/// evaluation.
struct RandomExpr {
  Value *V;
  int32_t Oracle;
};

RandomExpr emitRandomOp(IRBuilder &B, SplitMix64 &Rng,
                        std::vector<RandomExpr> &Pool) {
  RandomExpr A = Pool[Rng.nextBelow(Pool.size())];
  RandomExpr C = Pool[Rng.nextBelow(Pool.size())];
  switch (Rng.nextBelow(10)) {
  case 0:
    return {B.add(A.V, C.V), wrap32(int64_t(A.Oracle) + C.Oracle)};
  case 1:
    return {B.sub(A.V, C.V), wrap32(int64_t(A.Oracle) - C.Oracle)};
  case 2:
    return {B.mul(A.V, C.V), wrap32(int64_t(A.Oracle) * C.Oracle)};
  case 3:
    return {B.xorOp(A.V, C.V), A.Oracle ^ C.Oracle};
  case 4:
    return {B.andOp(A.V, C.V), A.Oracle & C.Oracle};
  case 5: {
    // Java masks an i32 shift count to its low five bits.
    int32_t Sh = static_cast<int32_t>(Rng.nextBelow(40));
    return {B.shl(A.V, B.i32(Sh)),
            wrap32(static_cast<int64_t>(A.Oracle) << (Sh & 31))};
  }
  case 6: {
    int32_t Sh = static_cast<int32_t>(Rng.nextBelow(40));
    // IR shr is arithmetic over the sign-extended 64-bit slot.
    return {B.shr(A.V, B.i32(Sh)), A.Oracle >> (Sh & 31)};
  }
  case 7:
    return {B.cmpLt(A.V, C.V), A.Oracle < C.Oracle ? 1 : 0};
  case 8: {
    if (C.Oracle == 0)
      return {B.add(A.V, C.V), wrap32(int64_t(A.Oracle) + C.Oracle)};
    return {B.rem(A.V, C.V), wrap32(int64_t(A.Oracle) % C.Oracle)};
  }
  default: {
    // MIN / -1 wraps to MIN instead of trapping.
    if (C.Oracle == 0)
      return {B.sub(A.V, C.V), wrap32(int64_t(A.Oracle) - C.Oracle)};
    return {B.div(A.V, C.V), wrap32(int64_t(A.Oracle) / C.Oracle)};
  }
  }
}

/// One round's random i32 program over the leaves \p X and \p Y (whose
/// values are \p XVal and \p YVal) and a few edge constants: the last
/// value computed and its oracle. The same \p Seed emits the same
/// operations over any leaves.
RandomExpr emitRandomProgram(IRBuilder &B, uint64_t Seed, Value *X,
                             int32_t XVal, Value *Y, int32_t YVal) {
  SplitMix64 Rng(Seed);
  std::vector<RandomExpr> Pool = {{X, XVal},
                                  {Y, YVal},
                                  {B.i32(7), 7},
                                  {B.i32(-1), -1},
                                  {B.i32(INT32_MIN), INT32_MIN}};
  RandomExpr Last = Pool[0];
  unsigned Ops = 10 + static_cast<unsigned>(Rng.nextBelow(40));
  for (unsigned I = 0; I != Ops; ++I) {
    Last = emitRandomOp(B, Rng, Pool);
    Pool.push_back(Last);
    if (Pool.size() > 10)
      Pool.erase(Pool.begin());
  }
  return Last;
}

TEST(DifferentialTest, RandomArithmeticMatchesOracle) {
  SplitMix64 Rng(0xabcdef12);
  for (int Round = 0; Round != 200; ++Round) {
    vm::TypeTable Types;
    vm::HeapConfig HC;
    HC.HeapBytes = 1 << 16;
    vm::Heap Heap(Types, HC);
    Module M;
    IRBuilder B(M);

    int32_t Arg0 = static_cast<int32_t>(Rng.next());
    int32_t Arg1 = static_cast<int32_t>(Rng.next());
    uint64_t Seed = Rng.next();
    std::vector<uint64_t> Args = {static_cast<uint64_t>(Arg0),
                                  static_cast<uint64_t>(Arg1)};

    // The engine, on the arguments.
    Method *Fn = M.addMethod("rand", Type::I32, {Type::I32, Type::I32});
    B.setInsertPoint(Fn->addBlock("entry"));
    RandomExpr Last =
        emitRandomProgram(B, Seed, Fn->arg(0), Arg0, Fn->arg(1), Arg1);
    B.ret(Last.V);
    ASSERT_TRUE(verifyMethod(Fn));
    sim::MemorySystem Mem((*sim::MachineConfig::byName("pentium4")));
    exec::Interpreter Interp(Heap, Mem);
    int32_t Engine = static_cast<int32_t>(Interp.run(Fn, Args));
    EXPECT_EQ(Engine, Last.Oracle) << "round " << Round << ": engine";

    // The constant folder, on the same program over constant leaves.
    Method *Folded = M.addMethod("folded", Type::I32, {});
    B.setInsertPoint(Folded->addBlock("entry"));
    B.ret(emitRandomProgram(B, Seed, B.i32(Arg0), Arg0, B.i32(Arg1), Arg1).V);
    opt::foldConstants(Folded);
    const auto *Ret = cast<RetInst>(Folded->entry()->terminator());
    ASSERT_TRUE(isa<Constant>(Ret->value())) << "round " << Round;
    EXPECT_EQ(static_cast<int32_t>(cast<Constant>(Ret->value())->raw()),
              Engine)
        << "round " << Round << ": folder";

    // Object inspection, which only reveals values as addresses: the
    // program runs ahead of a one-iteration loop that loads a[v], with
    // v's 32 bits as a non-negative 64-bit index.
    Method *Probe = M.addMethod("probe", Type::I32,
                                {Type::I32, Type::I32, Type::Ref});
    B.setInsertPoint(Probe->addBlock("entry"));
    Value *V = emitRandomProgram(B, Seed, Probe->arg(0), Arg0, Probe->arg(1),
                                 Arg1)
                   .V;
    Value *Index = B.andOp(B.conv(ConvInst::ConvOp::SExt32To64, V),
                           B.i64(0xFFFFFFFFll));
    workloads::LoopNest L(B, "i");
    PhiInst *I = L.civ(B.i32(0));
    L.beginBody(B.cmpLt(I, B.i32(1)));
    auto *Load = cast<Instruction>(B.aload(Probe->arg(2), Index, Type::I32));
    L.close();
    B.ret(B.i32(0));
    Probe->recomputePreds();
    analysis::DominatorTree DT(Probe);
    analysis::LoopInfo LI(Probe, DT);
    core::LoadDependenceGraph G(LI.topLevelLoops()[0], LI);
    ASSERT_TRUE(G.nodeFor(Load));
    const vm::Addr Arr = Heap.heapBase();
    core::ObjectInspector Insp(Heap, LI);
    core::InspectionResult R =
        Insp.inspect(Probe, {Args[0], Args[1], Arr}, LI.topLevelLoops()[0], G);
    ASSERT_EQ(R.Trace.count(Load), 1u) << "round " << Round;
    vm::Addr A = R.Trace.at(Load).front().Address;
    EXPECT_EQ(static_cast<int32_t>((A - Arr - vm::ObjectHeaderSize) / 4),
              Engine)
        << "round " << Round << ": inspector";
  }
}

TEST(DifferentialTest, RandomHeapTrafficMatchesMapOracle) {
  SplitMix64 Rng(0x77777777);
  for (int Round = 0; Round != 20; ++Round) {
    vm::TypeTable Types;
    vm::HeapConfig HC;
    HC.HeapBytes = 1 << 20;
    vm::Heap Heap(Types, HC);
    Module M;
    IRBuilder B(M);

    const unsigned N = 64;
    vm::Addr Arr = Heap.allocArray(Type::I32, N);
    std::vector<int32_t> Oracle(N, 0);
    for (unsigned I = 0; I != N; ++I) {
      int32_t V = static_cast<int32_t>(Rng.nextBelow(1000));
      Heap.store(Heap.elemAddr(Arr, I), Type::I32, V);
      Oracle[I] = V;
    }

    // Random store/load program over the array with in-range indices.
    Method *Fn = M.addMethod("heap", Type::I32, {Type::Ref});
    B.setInsertPoint(Fn->addBlock("entry"));
    Value *Sum = B.i32(0);
    int64_t OracleSum = 0;
    for (int Op = 0; Op != 40; ++Op) {
      unsigned Idx = static_cast<unsigned>(Rng.nextBelow(N));
      if (Rng.nextBelow(2)) {
        unsigned Src = static_cast<unsigned>(Rng.nextBelow(N));
        Value *L = B.aload(Fn->arg(0), B.i32(Src), Type::I32);
        Value *Inc = B.add(L, B.i32(3));
        B.astore(Fn->arg(0), B.i32(Idx), Inc);
        Oracle[Idx] = wrap32(int64_t(Oracle[Src]) + 3);
      } else {
        Value *L = B.aload(Fn->arg(0), B.i32(Idx), Type::I32);
        Sum = B.add(Sum, L);
        OracleSum = wrap32(OracleSum + Oracle[Idx]);
      }
    }
    B.ret(Sum);
    ASSERT_TRUE(verifyMethod(Fn));

    sim::MemorySystem Mem((*sim::MachineConfig::byName("athlonmp")));
    exec::Interpreter Interp(Heap, Mem);
    uint64_t Got = Interp.run(Fn, {Arr});
    EXPECT_EQ(static_cast<int32_t>(Got), wrap32(OracleSum));
    for (unsigned I = 0; I != N; ++I)
      ASSERT_EQ(static_cast<int32_t>(
                    Heap.load(Heap.elemAddr(Arr, I), Type::I32)),
                Oracle[I]);
  }
}

/// Random strided-loop programs: arrays of objects with random pitches
/// and field sets, a loop summing random fields. Inspection must see the
/// engine's addresses, and the prefetch pass (in every mode, on both
/// machine parameterizations) must preserve results.
TEST(DifferentialTest, PrefetchPassPreservesRandomLoopResults) {
  SplitMix64 Rng(0x51515151);
  for (int Round = 0; Round != 15; ++Round) {
    vm::TypeTable Types;
    auto *Cls = Types.addClass("R" + std::to_string(Round));
    std::vector<const vm::FieldDesc *> Fields;
    unsigned NumFields = 2 + static_cast<unsigned>(Rng.nextBelow(9));
    for (unsigned F = 0; F != NumFields; ++F)
      Fields.push_back(Types.addField(Cls, "f" + std::to_string(F),
                                      Rng.nextBelow(2) ? Type::I32
                                                       : Type::I64));

    vm::HeapConfig HC;
    HC.HeapBytes = 8 << 20;
    vm::Heap Heap(Types, HC);
    const unsigned N = 200 + static_cast<unsigned>(Rng.nextBelow(800));
    vm::Addr Arr = Heap.allocArray(Type::Ref, N);
    for (unsigned I = 0; I != N; ++I) {
      vm::Addr Obj = Heap.allocObject(*Cls);
      for (const auto *F : Fields)
        Heap.store(Obj + F->Offset, F->Ty, Rng.nextBelow(1 << 20));
      Heap.store(Heap.elemAddr(Arr, I), Type::Ref, Obj);
    }
    // Sometimes scramble (intra-only territory), sometimes keep order.
    if (Rng.nextBelow(2))
      for (unsigned I = N - 1; I > 0; --I) {
        unsigned J = static_cast<unsigned>(Rng.nextBelow(I + 1));
        uint64_t T = Heap.load(Heap.elemAddr(Arr, I), Type::Ref);
        Heap.store(Heap.elemAddr(Arr, I), Type::Ref,
                   Heap.load(Heap.elemAddr(Arr, J), Type::Ref));
        Heap.store(Heap.elemAddr(Arr, J), Type::Ref, T);
      }

    Module M;
    IRBuilder B(M);
    Method *Fn = M.addMethod("loop", Type::I64, {Type::Ref, Type::I32});
    B.setInsertPoint(Fn->addBlock("entry"));
    workloads::LoopNest L(B, "i");
    PhiInst *I = L.civ(B.i32(0));
    PhiInst *Acc = L.addCarried(B.i64(0));
    L.beginBody(B.cmpLt(I, Fn->arg(1)));
    Value *Obj = B.aload(Fn->arg(0), I, Type::Ref);
    // The loop's loads in execution order.
    std::vector<const Instruction *> LoopLoads = {cast<Instruction>(Obj)};
    Value *AccNext = Acc;
    unsigned Loads = 1 + static_cast<unsigned>(Rng.nextBelow(3));
    for (unsigned K = 0; K != Loads; ++K) {
      const auto *F = Fields[Rng.nextBelow(Fields.size())];
      Value *V = B.getField(Obj, F);
      LoopLoads.push_back(cast<Instruction>(V));
      if (F->Ty == Type::I32)
        V = B.conv(ConvInst::ConvOp::SExt32To64, V);
      AccNext = B.add(AccNext, V);
    }
    L.setNext(Acc, AccNext);
    L.close();
    B.ret(Acc);
    ASSERT_TRUE(verifyMethod(Fn));

    // Reference result, untransformed, with the engine's access stream.
    uint64_t Expected;
    std::vector<exec::AccessEvent> Events;
    {
      sim::MemorySystem Mem((*sim::MachineConfig::byName("pentium4")));
      trace::CapturingSink Capture(Mem, Events);
      exec::Interpreter Interp(Heap, Capture);
      Expected = Interp.run(Fn, {Arr, N});
    }

    // Object inspection records, per load and iteration, the first
    // address the engine accesses in that iteration.
    {
      std::vector<vm::Addr> EngineLoads;
      for (const exec::AccessEvent &E : Events)
        if (E.Kind == exec::EventKind::Load)
          EngineLoads.push_back(E.Value);
      ASSERT_EQ(EngineLoads.size(), size_t(N) * LoopLoads.size());
      Fn->recomputePreds();
      analysis::DominatorTree DT(Fn);
      analysis::LoopInfo LI(Fn, DT);
      core::LoadDependenceGraph G(LI.topLevelLoops()[0], LI);
      core::ObjectInspector Insp(Heap, LI);
      core::InspectionResult R =
          Insp.inspect(Fn, {Arr, N}, LI.topLevelLoops()[0], G);
      ASSERT_EQ(R.IterationsObserved, 20u);
      for (size_t K = 0; K != LoopLoads.size(); ++K) {
        const auto &Recs = R.Trace.at(LoopLoads[K]);
        ASSERT_EQ(Recs.size(), 20u) << "round " << Round << " load " << K;
        for (unsigned It = 0; It != 20; ++It) {
          EXPECT_EQ(Recs[It].Iteration, It);
          EXPECT_EQ(Recs[It].Address,
                    EngineLoads[It * LoopLoads.size() + K])
              << "round " << Round << " load " << K << " iteration " << It;
        }
      }
    }

    for (auto Machine : {(*sim::MachineConfig::byName("pentium4")),
                         (*sim::MachineConfig::byName("athlonmp"))}) {
      for (auto Mode : {core::PrefetchMode::Inter,
                        core::PrefetchMode::InterIntra}) {
        // Fresh copy of the method per configuration: rebuild it by
        // rerunning the pass on the already-transformed method would
        // accumulate prefetches, which is fine for this invariant.
        core::PrefetchPassOptions Opts =
            workloads::passOptionsFor(Machine, Mode);
        core::PrefetchPass Pass(Heap, Opts);
        Pass.run(Fn, {Arr, N});
        ASSERT_TRUE(verifyMethod(Fn));

        sim::MemorySystem Mem(Machine);
        exec::Interpreter Interp(Heap, Mem);
        uint64_t Got = Interp.run(Fn, {Arr, N});
        ASSERT_EQ(Got, Expected)
            << "round " << Round << " on " << Machine.Name;
      }
    }
  }
}

} // namespace
