//===- tests/acct_test.cpp - Cycle attribution and timeline sampling ------===//
//
// The observability PR's tentpole invariant, pinned end to end: every
// simulated cycle is charged to exactly one CycleAccounting category
// (acct().total() == cycles() on every machine, through the per-event
// member path AND the batched consume() fast path), per-site stall
// attribution agrees between both dispatch paths, prefetch-health
// counters stay bit-identical batched vs per-event, and the
// TimelineSampler produces the same sample series live and on replay —
// boundary samples included — with deterministic decimation.
//
//===----------------------------------------------------------------------===//

#include "obs/Timeline.h"
#include "sim/MemorySystem.h"
#include "trace/TraceBuffer.h"
#include "workloads/Runner.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace spf;

namespace {

workloads::WorkloadConfig tinyConfig() {
  workloads::WorkloadConfig Cfg;
  Cfg.Scale = 0.05;
  return Cfg;
}

const std::vector<sim::MachineConfig> &allMachines() {
  static const std::vector<sim::MachineConfig> Machines = {
      (*sim::MachineConfig::byName("pentium4")),
      (*sim::MachineConfig::byName("athlonmp")),
      (*sim::MachineConfig::byName("modern3l"))};
  return Machines;
}

/// Records one INTER+INTRA trace of \p Spec at tiny scale.
trace::TraceBuffer recordTrace(const workloads::WorkloadSpec &Spec) {
  workloads::RunOptions Opt;
  Opt.Machine = allMachines()[0];
  Opt.Algo = workloads::Algorithm::InterIntra;
  Opt.Config = tinyConfig();
  trace::TraceBuffer Buf;
  Opt.Record = &Buf;
  workloads::runWorkload(Spec, Opt);
  EXPECT_FALSE(Buf.overflowed()) << Spec.Name;
  return Buf;
}

// -- The attribution invariant ----------------------------------------------

TEST(CycleAccountingTest, SyntheticEventsChargeTheRightCategories) {
  sim::MemorySystem Mem(allMachines()[0]);
  const sim::MachineConfig &Cfg = allMachines()[0];
  Mem.tick(10);
  EXPECT_EQ(Mem.acct().Compute, 10 * Cfg.ComputeCycles);
  Mem.load(0x10000, 0);   // Cold miss: L1 base + deeper levels + memory.
  Mem.load(0x10008, 0);   // Hot hit: L1 base cost only.
  Mem.prefetch(0x20000);
  Mem.guardedLoad(0x30000);
  Mem.guardedLoadFault();
  const sim::CycleAccounting &A = Mem.acct();
  EXPECT_GT(A.Level[0], 0u);
  EXPECT_GT(A.MemPenalty, 0u);
  EXPECT_GT(A.PrefetchIssue, 0u);
  EXPECT_GT(A.GuardFault, 0u);
  EXPECT_EQ(A.total(), Mem.cycles());
  // Per-site stall attribution covers every charged demand-load cycle.
  uint64_t SiteStall = 0;
  for (const sim::SiteStats &S : Mem.siteStats())
    SiteStall += S.StallCycles;
  EXPECT_EQ(SiteStall, Mem.stats().CyclesStalledOnLoads);
}

TEST(CycleAccountingTest, TotalEqualsCyclesBothDispatchPathsAllMachines) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("db");
  ASSERT_NE(Spec, nullptr);
  trace::TraceBuffer Buf = recordTrace(*Spec);
  for (const sim::MachineConfig &Machine : allMachines()) {
    sim::MemorySystem Batched(Machine), PerEvent(Machine);
    ASSERT_TRUE(trace::replay(Buf, Batched)) << Machine.Name;
    ASSERT_TRUE(trace::replayPerEvent(Buf, PerEvent)) << Machine.Name;
    // The invariant on each path, and bit-identical attribution across
    // the batched/per-event divide.
    EXPECT_EQ(Batched.acct().total(), Batched.cycles()) << Machine.Name;
    EXPECT_EQ(PerEvent.acct().total(), PerEvent.cycles()) << Machine.Name;
    EXPECT_EQ(Batched.acct(), PerEvent.acct()) << Machine.Name;
    EXPECT_EQ(Batched.siteStats(), PerEvent.siteStats()) << Machine.Name;
  }
}

TEST(CycleAccountingTest, LiveRunsSatisfyTheInvariantOnEveryMachine) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("compress");
  ASSERT_NE(Spec, nullptr);
  for (const sim::MachineConfig &Machine : allMachines()) {
    workloads::RunOptions Opt;
    Opt.Machine = Machine;
    Opt.Algo = workloads::Algorithm::InterIntra;
    Opt.Config = tinyConfig();
    workloads::RunResult R = workloads::runWorkload(*Spec, Opt);
    EXPECT_EQ(R.Acct.total(), R.CompiledCycles) << Machine.Name;
  }
}

TEST(CycleAccountingTest, GovernorRunsSatisfyTheInvariant) {
  // Governor runs enable prefetch-health tracking: tagged L1 hits leave
  // the batched fast path for the member handlers, which must
  // self-account identically.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("db");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Opt;
  Opt.Machine = allMachines()[0];
  Opt.Algo = workloads::Algorithm::InterIntra;
  Opt.Config = tinyConfig();
  Opt.Epochs = 3;
  Opt.GcVariant = vm::GcVariant::AddressShuffle;
  Opt.Governor = true;
  workloads::RunResult R = workloads::runWorkload(*Spec, Opt);
  EXPECT_EQ(R.Acct.total(), R.CompiledCycles);
  EXPECT_GT(R.Acct.Compute, 0u);
}

TEST(CycleAccountingTest, ReplayAcctMatchesDirectInterpretation) {
  // The replayed attribution (batched consume) must be bit-identical to
  // direct interpretation (per-event member calls), stall columns
  // included. Recorded per machine: the planner's machine facets shape
  // the event stream, so a trace only serves machines that share them.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("db");
  ASSERT_NE(Spec, nullptr);
  for (const sim::MachineConfig &Machine : allMachines()) {
    workloads::RunOptions Opt;
    Opt.Machine = Machine;
    Opt.Algo = workloads::Algorithm::InterIntra;
    Opt.Config = tinyConfig();
    trace::TraceBuffer Buf;
    Opt.Record = &Buf;
    workloads::RunResult Direct = workloads::runWorkload(*Spec, Opt);
    ASSERT_FALSE(Buf.overflowed()) << Machine.Name;
    workloads::RunResult Replayed =
        workloads::replayTrace(Direct, Buf, Machine);
    EXPECT_EQ(Replayed.Acct, Direct.Acct) << Machine.Name;
    EXPECT_EQ(Replayed.Sites, Direct.Sites) << Machine.Name;
    EXPECT_EQ(Replayed.Acct.total(), Replayed.CompiledCycles)
        << Machine.Name;
  }
}

// -- Prefetch-health parity -------------------------------------------------

TEST(PrefetchHealthTest, BatchedMatchesPerEventWithHealthTracking) {
  // A live governed cell's own event stream: unlike a recorded trace, its
  // prefetch and guarded-load events carry the governor's attribution
  // sites, so tags resolve against real sites on both dispatch paths.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("db");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Opt;
  Opt.Machine = allMachines()[0];
  Opt.Algo = workloads::Algorithm::InterIntra;
  Opt.Config = tinyConfig();
  Opt.Epochs = 3;
  Opt.GcVariant = vm::GcVariant::AddressShuffle;
  Opt.Governor = true;
  std::vector<exec::AccessEvent> Events;
  Opt.Capture = &Events;
  workloads::RunResult Live = workloads::runWorkload(*Spec, Opt);
  ASSERT_TRUE(std::any_of(Events.begin(), Events.end(),
                          [](const exec::AccessEvent &E) {
                            return E.Kind != exec::EventKind::Load &&
                                   E.Site != 0;
                          }));

  for (const sim::MachineConfig &Machine : allMachines()) {
    sim::MemorySystem Batched(Machine), PerEvent(Machine);
    Batched.enablePrefetchHealth();
    PerEvent.enablePrefetchHealth();
    // Odd-sized blocks, so site runs and cursors cross block edges.
    constexpr size_t Block = 1000;
    for (size_t I = 0; I < Events.size(); I += Block)
      Batched.consume(Events.data() + I, std::min(Block, Events.size() - I));
    for (const exec::AccessEvent &E : Events)
      exec::dispatch(E, PerEvent);
    EXPECT_GT(PerEvent.stats().SwPrefetchesUseful +
                  PerEvent.stats().SwPrefetchesLate,
              0u) << Machine.Name;
    EXPECT_EQ(Batched.stats(), PerEvent.stats()) << Machine.Name;
    EXPECT_EQ(Batched.siteStats(), PerEvent.siteStats()) << Machine.Name;
    EXPECT_EQ(Batched.acct(), PerEvent.acct()) << Machine.Name;
    EXPECT_EQ(Batched.acct().total(), Batched.cycles()) << Machine.Name;
    if (Machine.Name == Opt.Machine.Name) {
      // The live run consumed the same stream.
      EXPECT_EQ(Batched.stats(), Live.Mem);
      EXPECT_EQ(Batched.siteStats(), Live.Sites);
      EXPECT_EQ(Batched.acct(), Live.Acct);
    }
  }
}

// -- Timeline sampling ------------------------------------------------------

TEST(TimelineTest, LiveAndReplayProduceIdenticalSamples) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("db");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Opt;
  Opt.Machine = allMachines()[0];
  Opt.Algo = workloads::Algorithm::InterIntra;
  Opt.Config = tinyConfig();
  Opt.Epochs = 3;
  Opt.TimelineEvery = 1000;
  trace::TraceBuffer Buf;
  Opt.Record = &Buf;
  workloads::RunResult Live = workloads::runWorkload(*Spec, Opt);
  ASSERT_FALSE(Buf.overflowed());
  ASSERT_FALSE(Live.Timeline.empty());
  ASSERT_EQ(Live.BoundaryEvents.size(), 2u); // Epochs - 1 boundaries.

  // Boundary samples re-fire from the recorded event indices; every
  // other sample re-fires from the cadence. Bit-identical series.
  workloads::RunResult Replayed =
      workloads::replayTrace(Live, Buf, Opt.Machine, Opt.TimelineEvery);
  ASSERT_EQ(Replayed.Timeline.size(), Live.Timeline.size());
  for (size_t I = 0; I != Live.Timeline.size(); ++I)
    EXPECT_EQ(Replayed.Timeline[I], Live.Timeline[I]) << "sample " << I;

  size_t Boundaries = 0;
  for (const obs::TimelineSample &S : Live.Timeline)
    if (S.Boundary)
      ++Boundaries;
  EXPECT_EQ(Boundaries, Live.BoundaryEvents.size());

  // Each sample satisfies the attribution invariant, and the series is
  // monotone in both event index and cycles.
  for (size_t I = 0; I != Live.Timeline.size(); ++I) {
    const obs::TimelineSample &S = Live.Timeline[I];
    EXPECT_EQ(S.Acct.total(), S.Cycles) << "sample " << I;
    if (I) {
      EXPECT_GE(S.EventIndex, Live.Timeline[I - 1].EventIndex);
      EXPECT_GE(S.Cycles, Live.Timeline[I - 1].Cycles);
    }
  }
  // The final sample is the whole run.
  EXPECT_EQ(Live.Timeline.back().Cycles, Live.CompiledCycles);
  EXPECT_EQ(Live.Acct, Live.Timeline.back().Acct);

  // TimelineEvery=0 replays of the same exec side carry no timeline.
  workloads::RunResult Plain = workloads::replayTrace(Live, Buf, Opt.Machine);
  EXPECT_TRUE(Plain.Timeline.empty());
  EXPECT_EQ(Plain.Acct, Live.Acct);
}

TEST(TimelineTest, SamplerSplitsBatchesDeterministically) {
  // Driving the sampler with one big consume() block must produce the
  // same samples as event-at-a-time calls: the sampler splits blocks at
  // sample points and forwards the pieces to the batched fast path.
  std::vector<exec::AccessEvent> Events;
  uint64_t Addr = 0x10000;
  for (unsigned I = 0; I != 1000; ++I) {
    Events.push_back({exec::EventKind::Tick, 3, 0});
    Events.push_back({exec::EventKind::Load, Addr += 64, 0});
    if (I % 3 == 0)
      Events.push_back({exec::EventKind::Store, Addr, 0});
  }
  sim::MemorySystem MemA(allMachines()[0]), MemB(allMachines()[0]);
  obs::TimelineSampler A(MemA, 37), B(MemB, 37);
  A.consume(Events.data(), Events.size());
  for (const exec::AccessEvent &E : Events)
    B.consume(&E, 1);
  A.finish();
  B.finish();
  EXPECT_EQ(A.samples(), B.samples());
  EXPECT_EQ(MemA.cycles(), MemB.cycles());
  EXPECT_EQ(MemA.acct(), MemB.acct());
}

TEST(TimelineTest, DecimationKeepsBoundariesAndStaysDeterministic) {
  // A tiny MaxSamples forces repeated decimation; boundary samples are
  // never dropped and two identical runs produce identical series.
  auto Run = [](std::vector<obs::TimelineSample> &Out,
                std::vector<uint64_t> &BoundariesOut) {
    sim::MemorySystem Mem(allMachines()[0]);
    obs::TimelineSampler S(Mem, /*Every=*/1, /*MaxSamples=*/8);
    uint64_t Addr = 0x40000;
    for (unsigned I = 0; I != 500; ++I) {
      S.tick(2);
      S.load(Addr += 64, 0);
      if (I == 100 || I == 300) {
        S.tick(5);
        S.boundary();
      }
    }
    S.finish();
    BoundariesOut = S.takeBoundaryEvents();
    Out = S.takeSamples();
  };
  std::vector<obs::TimelineSample> First, Second;
  std::vector<uint64_t> BoundaryEvents, BoundaryEvents2;
  Run(First, BoundaryEvents);
  Run(Second, BoundaryEvents2);
  EXPECT_EQ(First, Second);
  EXPECT_EQ(BoundaryEvents, BoundaryEvents2);
  ASSERT_EQ(BoundaryEvents.size(), 2u);
  // Decimation honored the cap's order of magnitude (it halves when the
  // cap is hit, so the series can sit just under it) and kept both
  // boundary samples.
  EXPECT_LE(First.size(), 16u);
  size_t Boundaries = 0;
  for (const obs::TimelineSample &S : First)
    if (S.Boundary)
      ++Boundaries;
  EXPECT_EQ(Boundaries, 2u);
  // Samples remain monotone and internally consistent after decimation.
  for (size_t I = 1; I < First.size(); ++I) {
    EXPECT_GE(First[I].EventIndex, First[I - 1].EventIndex);
    EXPECT_EQ(First[I].Acct.total(), First[I].Cycles);
  }
}

} // namespace
