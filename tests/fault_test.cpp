//===- tests/fault_test.cpp - Failure containment and chaos injection -----===//
//
// Coverage for the failure-containment layer: the seeded fault injector
// itself, graceful degradation of inspection/planning, the guarded-load
// fault path, and the harness's retry/quarantine/timeout machinery.
// The overarching invariant: no injected fault may change a simulated
// program's result or take the process down.
//
//===----------------------------------------------------------------------===//

#include "TestKernels.h"
#include "core/ObjectInspector.h"
#include "core/PrefetchPass.h"
#include "core/PrefetchPlanner.h"
#include "core/StrideAnalysis.h"
#include "harness/Experiment.h"
#include "sim/MemorySystem.h"
#include "support/Env.h"
#include "support/FaultInjection.h"
#include "support/Status.h"
#include "workloads/KernelBuilder.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

using namespace spf;
using namespace spf::core;
using namespace spf::support;
using namespace spf::testkernels;

namespace {

/// Saves and restores one environment variable around a test body.
struct ScopedEnv {
  std::string Name;
  bool HadOld;
  std::string Old;

  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    const char *O = std::getenv(Name);
    HadOld = O != nullptr;
    Old = O ? O : "";
    if (Value)
      setenv(Name, Value, 1);
    else
      unsetenv(Name);
  }
  ~ScopedEnv() {
    if (HadOld)
      setenv(Name.c_str(), Old.c_str(), 1);
    else
      unsetenv(Name.c_str());
  }
};

// -- Configuration parsing -------------------------------------------------

TEST(FaultConfigTest, ParsesSingleSite) {
  auto C = FaultConfig::parse("inspect-read:0.25:7");
  ASSERT_TRUE(C.has_value());
  EXPECT_TRUE(C->anyEnabled());
  const auto &S = C->site(FaultSite::InspectHeapRead);
  EXPECT_TRUE(S.Enabled);
  EXPECT_DOUBLE_EQ(S.Rate, 0.25);
  EXPECT_EQ(S.Seed, 7u);
  EXPECT_FALSE(C->site(FaultSite::Alloc).Enabled);
  EXPECT_FALSE(C->site(FaultSite::GuardAddr).Enabled);
  EXPECT_FALSE(C->site(FaultSite::CellExec).Enabled);
}

TEST(FaultConfigTest, ParsesMultipleSites) {
  auto C = FaultConfig::parse("alloc:0.5:1,guard-addr:1:2,cell:0.125:3");
  ASSERT_TRUE(C.has_value());
  EXPECT_TRUE(C->site(FaultSite::Alloc).Enabled);
  EXPECT_TRUE(C->site(FaultSite::GuardAddr).Enabled);
  EXPECT_DOUBLE_EQ(C->site(FaultSite::GuardAddr).Rate, 1.0);
  EXPECT_TRUE(C->site(FaultSite::CellExec).Enabled);
  EXPECT_FALSE(C->site(FaultSite::InspectHeapRead).Enabled);
}

TEST(FaultConfigTest, AllEnablesEverySiteWithDistinctStreams) {
  auto C = FaultConfig::parse("all:0.1:42");
  ASSERT_TRUE(C.has_value());
  for (unsigned I = 0; I != NumFaultSites; ++I) {
    EXPECT_TRUE(C->Sites[I].Enabled) << "site " << I;
    EXPECT_DOUBLE_EQ(C->Sites[I].Rate, 0.1);
  }
  // Per-site seeds must differ, or every site would fire in lockstep.
  EXPECT_NE(C->site(FaultSite::InspectHeapRead).Seed,
            C->site(FaultSite::Alloc).Seed);
}

TEST(FaultConfigTest, RejectsMalformedSpecs) {
  std::string Err;
  EXPECT_FALSE(FaultConfig::parse("bogus-site:0.5:1", &Err).has_value());
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(FaultConfig::parse("alloc:1.5:1").has_value()); // Rate > 1.
  EXPECT_FALSE(FaultConfig::parse("alloc:-0.1:1").has_value());
  EXPECT_FALSE(FaultConfig::parse("alloc:0.5").has_value()); // No seed.
  EXPECT_FALSE(FaultConfig::parse("").has_value());
  EXPECT_FALSE(FaultConfig::parse("alloc:zero:1").has_value());
}

TEST(FaultConfigTest, FromEnvUnsetDisablesEverything) {
  ScopedEnv E("SPF_FAULTS", nullptr);
  FaultConfig C = FaultConfig::fromEnv();
  EXPECT_FALSE(C.anyEnabled());
}

TEST(FaultConfigTest, ParsesCrashSite) {
  auto C = FaultConfig::parse("crash:0.5:9");
  ASSERT_TRUE(C.has_value());
  EXPECT_TRUE(C->site(FaultSite::Crash).Enabled);
  EXPECT_DOUBLE_EQ(C->site(FaultSite::Crash).Rate, 0.5);
  EXPECT_FALSE(C->site(FaultSite::CellExec).Enabled);
}

TEST(FaultConfigTest, ParsesDiskSites) {
  auto C = FaultConfig::parse("disk-write:0.25:5,disk-sync:0.5:6");
  ASSERT_TRUE(C.has_value());
  EXPECT_TRUE(C->site(FaultSite::DiskWrite).Enabled);
  EXPECT_DOUBLE_EQ(C->site(FaultSite::DiskWrite).Rate, 0.25);
  EXPECT_TRUE(C->site(FaultSite::DiskSync).Enabled);
  EXPECT_DOUBLE_EQ(C->site(FaultSite::DiskSync).Rate, 0.5);
  EXPECT_FALSE(C->site(FaultSite::CellExec).Enabled);
  // Round trip through the canonical names.
  EXPECT_STREQ(faultSiteName(FaultSite::DiskWrite), "disk-write");
  EXPECT_STREQ(faultSiteName(FaultSite::DiskSync), "disk-sync");
  EXPECT_EQ(parseFaultSiteName("disk-write"), FaultSite::DiskWrite);
  EXPECT_EQ(parseFaultSiteName("disk-sync"), FaultSite::DiskSync);
}

TEST(FaultConfigTest, ExecutionSitePredicateExcludesDiskSites) {
  // Disk-only chaos must keep trace reuse on (it exists to exercise the
  // spill/journal writes), so the gate is "any *execution* site", not
  // "any site".
  auto DiskOnly = FaultConfig::parse("disk-write:0.5:1,disk-sync:0.5:2");
  ASSERT_TRUE(DiskOnly.has_value());
  EXPECT_TRUE(DiskOnly->anyEnabled());
  EXPECT_FALSE(DiskOnly->anyExecutionSiteEnabled());

  auto Mixed = FaultConfig::parse("disk-write:0.5:1,cell:0.1:2");
  ASSERT_TRUE(Mixed.has_value());
  EXPECT_TRUE(Mixed->anyExecutionSiteEnabled());

  // "all" arms every site, disk included — and counts as execution chaos.
  auto All = FaultConfig::parse("all:0.1:3");
  ASSERT_TRUE(All.has_value());
  EXPECT_TRUE(All->site(FaultSite::DiskWrite).Enabled);
  EXPECT_TRUE(All->site(FaultSite::DiskSync).Enabled);
  EXPECT_TRUE(All->anyExecutionSiteEnabled());

  // A rate-zero execution site is enabled but can never fire: not chaos.
  auto Zero = FaultConfig::parse("cell:0:4");
  ASSERT_TRUE(Zero.has_value());
  EXPECT_FALSE(Zero->anyExecutionSiteEnabled());
}

// -- Fail-fast environment parsing -----------------------------------------
//
// A malformed knob must kill the process immediately with a clear message
// and exit code 2 (support::ConfigErrorExit) — a typo'd SPF_FAULTS that
// silently disables chaos mode would make a chaos CI job pass vacuously.

TEST(EnvFailFastDeathTest, MalformedSpfFaultsExitsWithConfigError) {
  ScopedEnv E("SPF_FAULTS", "not a spec");
  EXPECT_EXIT(FaultConfig::fromEnv(),
              ::testing::ExitedWithCode(support::ConfigErrorExit),
              "invalid SPF_FAULTS");
}

TEST(EnvFailFastDeathTest, MalformedSpfTraceMbExitsWithConfigError) {
  ScopedEnv E("SPF_TRACE_MB", "lots");
  EXPECT_EXIT(support::envDouble("SPF_TRACE_MB", 256.0, 0.0),
              ::testing::ExitedWithCode(support::ConfigErrorExit),
              "invalid SPF_TRACE_MB");
}

TEST(EnvFailFastDeathTest, NegativeSpfCellTimeoutExitsWithConfigError) {
  ScopedEnv E("SPF_CELL_TIMEOUT", "-3");
  EXPECT_EXIT(support::envDouble("SPF_CELL_TIMEOUT", 0.0, 0.0),
              ::testing::ExitedWithCode(support::ConfigErrorExit),
              "invalid SPF_CELL_TIMEOUT");
}

TEST(EnvFailFastDeathTest, NonPositiveStrictMinimumExitsWithConfigError) {
  for (const char *Bad : {"abc", "0", "-1", "1.0x"}) {
    ScopedEnv E("SPF_SCALE", Bad);
    EXPECT_EXIT(support::envDouble("SPF_SCALE", 1.0, 0.0, true),
                ::testing::ExitedWithCode(support::ConfigErrorExit),
                "invalid SPF_SCALE")
        << Bad;
  }
  ScopedEnv E("SPF_SCALE", "0.05");
  EXPECT_DOUBLE_EQ(support::envDouble("SPF_SCALE", 1.0, 0.0, true), 0.05);
}

TEST(EnvFailFastDeathTest, MalformedSpfCellMemMbExitsWithConfigError) {
  ScopedEnv E("SPF_CELL_MEM_MB", "-64");
  EXPECT_EXIT(support::envU64("SPF_CELL_MEM_MB", 0),
              ::testing::ExitedWithCode(support::ConfigErrorExit),
              "invalid SPF_CELL_MEM_MB");
}

TEST(EnvFailFastTest, WellFormedValuesParse) {
  {
    ScopedEnv E("SPF_CELL_TIMEOUT", "2.5");
    EXPECT_DOUBLE_EQ(support::envDouble("SPF_CELL_TIMEOUT", 0.0, 0.0), 2.5);
  }
  {
    ScopedEnv E("SPF_CELL_MEM_MB", "512");
    EXPECT_EQ(support::envU64("SPF_CELL_MEM_MB", 0), 512u);
  }
  {
    ScopedEnv E("SPF_CELL_MEM_MB", nullptr);
    EXPECT_EQ(support::envU64("SPF_CELL_MEM_MB", 7), 7u); // Unset: default.
  }
}

// -- Injector determinism --------------------------------------------------

TEST(FaultInjectorTest, SameConfigAndSaltYieldTheSameDecisions) {
  auto C = FaultConfig::parse("alloc:0.5:99");
  ASSERT_TRUE(C.has_value());
  FaultInjector A(*C, 17), B(*C, 17);
  for (unsigned I = 0; I != 1000; ++I)
    ASSERT_EQ(A.shouldFail(FaultSite::Alloc), B.shouldFail(FaultSite::Alloc))
        << "decision " << I;
  EXPECT_EQ(A.totalInjected(), B.totalInjected());
  EXPECT_GT(A.totalInjected(), 0u); // Rate 0.5 over 1000 draws fires.
}

TEST(FaultInjectorTest, DifferentSaltsYieldDifferentStreams) {
  auto C = FaultConfig::parse("alloc:0.5:99");
  ASSERT_TRUE(C.has_value());
  FaultInjector A(*C, 1), B(*C, 2);
  unsigned Differing = 0;
  for (unsigned I = 0; I != 1000; ++I)
    Differing += A.shouldFail(FaultSite::Alloc) !=
                 B.shouldFail(FaultSite::Alloc);
  EXPECT_GT(Differing, 0u); // Retries must re-roll, not replay.
}

TEST(FaultInjectorTest, RateExtremes) {
  auto C1 = FaultConfig::parse("cell:1:5");
  ASSERT_TRUE(C1.has_value());
  FaultInjector Always(*C1);
  for (unsigned I = 0; I != 100; ++I)
    ASSERT_TRUE(Always.shouldFail(FaultSite::CellExec));

  auto C0 = FaultConfig::parse("cell:0:5");
  ASSERT_TRUE(C0.has_value());
  FaultInjector Never(*C0);
  for (unsigned I = 0; I != 100; ++I)
    ASSERT_FALSE(Never.shouldFail(FaultSite::CellExec));
  EXPECT_EQ(Never.totalInjected(), 0u);
}

TEST(FaultScopeTest, ActivatesPerThreadAndNests) {
  EXPECT_EQ(FaultScope::current(), nullptr);
  EXPECT_FALSE(SPF_FAULT_POINT(FaultSite::Alloc)); // No scope: never fires.

  auto C = FaultConfig::parse("alloc:1:1");
  ASSERT_TRUE(C.has_value());
  FaultInjector Outer(*C), Inner(*C);
  {
    FaultScope S1(Outer);
    EXPECT_EQ(FaultScope::current(), &Outer);
    EXPECT_TRUE(SPF_FAULT_POINT(FaultSite::Alloc));
    {
      FaultScope S2(Inner);
      EXPECT_EQ(FaultScope::current(), &Inner);
      EXPECT_TRUE(SPF_FAULT_POINT(FaultSite::Alloc)); // Draws from Inner.
    }
    EXPECT_EQ(FaultScope::current(), &Outer); // Restored on unwind.
  }
  EXPECT_EQ(FaultScope::current(), nullptr);
  EXPECT_GT(Outer.totalInjected(), 0u);
  EXPECT_GT(Inner.totalInjected(), 0u);
}

// -- Graceful degradation of inspection ------------------------------------

/// With every inspection heap read faulted to `unknown`, the pass must
/// degrade to "no prefetch" — never crash, never emit a bogus plan.
TEST(DegradationTest, FaultedInspectionYieldsNoPrefetches) {
  JessWorld W(64, /*Scramble=*/true);
  auto C = FaultConfig::parse("inspect-read:1:3");
  ASSERT_TRUE(C.has_value());
  FaultInjector Injector(*C);
  FaultScope Scope(Injector);

  PrefetchPassOptions Opts;
  Opts.Planner.Mode = PrefetchMode::InterIntra;
  Opts.Planner.LineBytes = 64;
  PrefetchPass Pass(*W.Heap, Opts);
  PrefetchPassResult R = Pass.run(W.Find, W.findArgs());

  EXPECT_GT(R.InspectionFaultsInjected, 0u);
  EXPECT_EQ(R.CodeGen.Prefetches, 0u);
  EXPECT_EQ(R.CodeGen.SpecLoads, 0u);
  EXPECT_GT(Injector.injectedCount(FaultSite::InspectHeapRead), 0u);
}

/// The same pass without faults emits code — the degradation above comes
/// from the injector, not from the kernel being unprefetchable.
TEST(DegradationTest, SameKernelPrefetchesWithoutFaults) {
  JessWorld W(64, /*Scramble=*/true);
  PrefetchPassOptions Opts;
  Opts.Planner.Mode = PrefetchMode::InterIntra;
  Opts.Planner.LineBytes = 64;
  PrefetchPass Pass(*W.Heap, Opts);
  PrefetchPassResult R = Pass.run(W.Find, W.findArgs());
  EXPECT_EQ(R.InspectionFaultsInjected, 0u);
  EXPECT_GT(R.CodeGen.Prefetches + R.CodeGen.SpecLoads, 0u);
}

// -- StepBudget abort path -------------------------------------------------

/// An inspection cut off by the step budget must leave a *consistent*
/// partial trace (iterations in range and monotone per load), and the
/// stride/planning pipeline must still produce a structurally valid plan
/// from it.
TEST(StepBudgetTest, PartialTraceStaysConsistentAndPlannable) {
  for (uint64_t Budget : {40u, 200u, 800u}) {
    JessWorld W(64, /*Scramble=*/true);
    W.Find->recomputePreds();
    analysis::DominatorTree DT(W.Find);
    analysis::LoopInfo LI(W.Find, DT);
    analysis::DefUse DU(W.Find);
    analysis::Loop *Target = LI.topLevelLoops()[0];
    LoadDependenceGraph G(Target, LI);

    InspectorOptions Opts;
    Opts.StepBudget = Budget;
    ObjectInspector Insp(*W.Heap, LI, Opts);
    InspectionResult R = Insp.inspect(W.Find, W.findArgs(), Target, G);

    EXPECT_LE(R.StepsUsed, Budget + 1) << "budget " << Budget;
    EXPECT_FALSE(R.Degraded);
    for (const auto &[Load, Recs] : R.Trace) {
      unsigned Prev = 0;
      bool First = true;
      for (const AddrRecord &Rec : Recs) {
        EXPECT_LT(Rec.Iteration, Opts.MaxIterations);
        if (!First) {
          EXPECT_GT(Rec.Iteration, Prev) << "trace not monotone";
        }
        Prev = Rec.Iteration;
        First = false;
      }
    }

    // The pipeline downstream of the partial trace must stay sound.
    annotateStrides(G, R, StrideOptions());
    PlannerOptions POpts;
    POpts.Mode = PrefetchMode::InterIntra;
    POpts.LineBytes = 64;
    LoopPlan Plan = planPrefetches(G, DU, POpts);
    for (const AnchorPlan &A : Plan.Anchors) {
      EXPECT_NE(A.Anchor, nullptr);
      EXPECT_NE(A.Base, nullptr);
      for (const DerefPrefetch &D : A.Derefs)
        EXPECT_NE(D.ForLoad, nullptr);
    }
  }
}

// -- Guarded-load fault model ----------------------------------------------

TEST(GuardFaultTest, MemorySystemChargesTheFaultCostWithoutFills) {
  sim::MachineConfig Cfg = (*sim::MachineConfig::byName("pentium4"));
  sim::MemorySystem Mem(Cfg);
  uint64_t Before = Mem.cycles();
  sim::MemoryStats Stats0 = Mem.stats();

  Mem.guardedLoadFault();

  EXPECT_EQ(Mem.stats().GuardedLoadFaults, Stats0.GuardedLoadFaults + 1);
  EXPECT_EQ(Mem.cycles(), Before + Cfg.GuardFaultCost);
  // The recovery branch touches no memory: no loads, no misses, no
  // successful guarded loads, no prefetch traffic.
  EXPECT_EQ(Mem.stats().Loads, Stats0.Loads);
  EXPECT_EQ(Mem.stats().L1LoadMisses, Stats0.L1LoadMisses);
  EXPECT_EQ(Mem.stats().L2LoadMisses, Stats0.L2LoadMisses);
  EXPECT_EQ(Mem.stats().DtlbLoadMisses, Stats0.DtlbLoadMisses);
  EXPECT_EQ(Mem.stats().GuardedLoads, Stats0.GuardedLoads);
  EXPECT_EQ(Mem.stats().SwPrefetchesIssued, Stats0.SwPrefetchesIssued);
}

/// End to end: corrupting guarded-load addresses makes the software
/// exception check fire (GuardedLoadFaults > 0) while the program's
/// result stays bit-identical — the guard contains the bad address.
TEST(GuardFaultTest, CorruptedAddressesFailTheGuardNotTheProgram) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("jess");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Opt;
  Opt.Machine = (*sim::MachineConfig::byName("pentium4"));
  Opt.Algo = workloads::Algorithm::InterIntra;
  Opt.Config.Scale = 0.05;

  workloads::RunResult Clean = workloads::runWorkload(*Spec, Opt);
  ASSERT_TRUE(Clean.SelfCheckOk);
  ASSERT_GT(Clean.Mem.GuardedLoads, 0u); // P4 INTER+INTRA uses guards.

  auto C = FaultConfig::parse("guard-addr:1:11");
  ASSERT_TRUE(C.has_value());
  FaultInjector Injector(*C);
  workloads::RunResult Chaos;
  {
    FaultScope Scope(Injector);
    Chaos = workloads::runWorkload(*Spec, Opt);
  }

  EXPECT_GT(Chaos.Mem.GuardedLoadFaults, 0u);
  EXPECT_EQ(Chaos.ReturnValue, Clean.ReturnValue); // Contained.
  EXPECT_TRUE(Chaos.SelfCheckOk);
  EXPECT_EQ(Chaos.Retired, Clean.Retired); // Same instruction stream.
}

// -- Harness: retry, quarantine, timeout -----------------------------------

harness::ExperimentPlan tinyJessPlan(unsigned Cells = 1) {
  harness::ExperimentPlan Plan;
  for (unsigned I = 0; I != Cells; ++I) {
    harness::ExperimentCell C;
    C.Group = "chaos";
    C.Spec = workloads::findWorkload("jess");
    C.Opt.Config.Scale = 0.05;
    Plan.add(std::move(C));
  }
  return Plan;
}

TEST(ChaosHarnessTest, CertainCellFaultsAreQuarantinedNotFailed) {
  ScopedEnv E("SPF_FAULTS", "cell:1:21");
  ScopedEnv T("SPF_CELL_TIMEOUT", nullptr);
  harness::ExperimentPlan Plan = tinyJessPlan(2);
  harness::ExperimentResult R = harness::runPlan(Plan, 2);

  // Injected transients are the chaos harness working as intended:
  // quarantine, bounded retries, clean exit.
  EXPECT_TRUE(R.ok()) << (R.Failures.empty() ? "" : R.Failures[0]);
  ASSERT_EQ(R.Quarantine.size(), 2u);
  for (unsigned I = 0; I != 2; ++I) {
    EXPECT_FALSE(R.Cells[I].Ran);
    EXPECT_TRUE(R.Cells[I].Transient);
    EXPECT_EQ(R.Cells[I].Attempts, 3u); // MaxTransientAttempts.
    EXPECT_EQ(R.Quarantine[I].Kind, "faulted");
    EXPECT_EQ(R.Quarantine[I].CellIndex, I);
    EXPECT_EQ(R.Quarantine[I].Attempts, 3u);
  }

  // The JSON report reflects it: clean, but with a populated quarantine.
  std::ostringstream OS;
  harness::writeJsonReport(OS, Plan, R, 0.05, 2);
  std::string S = OS.str();
  EXPECT_NE(S.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(S.find("\"ran\":false"), std::string::npos);
  EXPECT_NE(S.find("\"kind\":\"faulted\""), std::string::npos);
  EXPECT_EQ(S.find("\"quarantine\":[]"), std::string::npos);
}

TEST(ChaosHarnessTest, TransientRetriesSucceedAndAreRecorded) {
  // Rate 0.5: across 8 cells x 3 attempts, some cells fail the first
  // attempt and then succeed (probabilistically certain with this seed —
  // the injector is deterministic, so no flakiness).
  ScopedEnv E("SPF_FAULTS", "cell:0.5:31");
  ScopedEnv T("SPF_CELL_TIMEOUT", nullptr);
  harness::ExperimentPlan Plan = tinyJessPlan(8);
  harness::ExperimentResult R = harness::runPlan(Plan, 4);

  EXPECT_TRUE(R.ok());
  bool SawRetried = false, SawFirstTry = false;
  for (const harness::CellResult &Cell : R.Cells) {
    if (Cell.Ran && Cell.Attempts > 1)
      SawRetried = true;
    if (Cell.Ran && Cell.Attempts == 1)
      SawFirstTry = true;
  }
  EXPECT_TRUE(SawRetried);
  EXPECT_TRUE(SawFirstTry);
  for (const harness::QuarantineRecord &Q : R.Quarantine)
    if (Q.Kind == "retried") {
      EXPECT_GT(Q.Attempts, 1u);
    }
}

TEST(ChaosHarnessTest, ChaosRunsAreScheduleIndependent) {
  ScopedEnv E("SPF_FAULTS",
              "inspect-read:0.02:1,alloc:0.001:2,guard-addr:0.05:3,cell:0.4:4");
  ScopedEnv T("SPF_CELL_TIMEOUT", nullptr);
  harness::ExperimentPlan Plan = tinyJessPlan(6);

  harness::ExperimentResult Serial = harness::runPlan(Plan, 1);
  harness::ExperimentResult Parallel = harness::runPlan(Plan, 4);

  ASSERT_EQ(Serial.Cells.size(), Parallel.Cells.size());
  for (unsigned I = 0; I != Plan.size(); ++I) {
    EXPECT_EQ(Serial.Cells[I].Ran, Parallel.Cells[I].Ran) << I;
    EXPECT_EQ(Serial.Cells[I].Attempts, Parallel.Cells[I].Attempts) << I;
    if (Serial.Cells[I].Ran && Parallel.Cells[I].Ran) {
      EXPECT_EQ(Serial.run(I).ReturnValue, Parallel.run(I).ReturnValue) << I;
      EXPECT_EQ(Serial.run(I).CompiledCycles, Parallel.run(I).CompiledCycles)
          << I;
      EXPECT_EQ(Serial.run(I).Retired, Parallel.run(I).Retired) << I;
      EXPECT_EQ(Serial.run(I).Mem.GuardedLoadFaults,
                Parallel.run(I).Mem.GuardedLoadFaults)
          << I;
    }
  }
  ASSERT_EQ(Serial.Quarantine.size(), Parallel.Quarantine.size());
  for (unsigned I = 0; I != Serial.Quarantine.size(); ++I) {
    EXPECT_EQ(Serial.Quarantine[I].Kind, Parallel.Quarantine[I].Kind);
    EXPECT_EQ(Serial.Quarantine[I].CellIndex,
              Parallel.Quarantine[I].CellIndex);
  }
  EXPECT_EQ(Serial.Failures, Parallel.Failures);
}

TEST(ChaosHarnessTest, TimeoutIsQuarantinedAndFailed) {
  ScopedEnv E("SPF_FAULTS", nullptr);
  ScopedEnv T("SPF_CELL_TIMEOUT", "0.000001"); // Expires immediately.
  harness::ExperimentPlan Plan = tinyJessPlan(1);
  harness::ExperimentResult R = harness::runPlan(Plan, 1);

  // A timeout is a real problem (unlike an injected transient): the cell
  // is quarantined AND the sweep fails.
  EXPECT_FALSE(R.ok());
  ASSERT_EQ(R.Quarantine.size(), 1u);
  EXPECT_EQ(R.Quarantine[0].Kind, "timeout");
  EXPECT_FALSE(R.Cells[0].Ran);
  EXPECT_TRUE(R.Cells[0].TimedOut);
  EXPECT_EQ(R.Cells[0].Attempts, 1u); // Timeouts are not retried.
  ASSERT_EQ(R.Failures.size(), 1u);
  EXPECT_NE(R.Failures[0].find("timed out"), std::string::npos);
}

TEST(ChaosHarnessTest, NoFaultsMeansNoQuarantineAndNoOverhead) {
  ScopedEnv E("SPF_FAULTS", nullptr);
  ScopedEnv T("SPF_CELL_TIMEOUT", nullptr);
  harness::ExperimentPlan Plan = tinyJessPlan(1);
  harness::ExperimentResult R = harness::runPlan(Plan, 1);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.Quarantine.empty());
  ASSERT_TRUE(R.Cells[0].Ran);
  EXPECT_EQ(R.Cells[0].Attempts, 1u);
}

// -- Chaos x trace layer ---------------------------------------------------

TEST(ChaosTraceTest, GuardedLoadFaultsSurviveRecordAndReplay) {
  // A guard-addr chaos run exercises the GuardedLoadFault opcode for
  // real: record such a run and verify the replay reproduces the faulted
  // stream's statistics bit for bit (faults included).
  ScopedEnv T("SPF_CELL_TIMEOUT", nullptr);
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("jess");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Opt;
  Opt.Machine = (*sim::MachineConfig::byName("pentium4"));
  Opt.Algo = workloads::Algorithm::InterIntra;
  Opt.Config.Scale = 0.05;
  trace::TraceBuffer Buf;
  Opt.Record = &Buf;

  auto C = FaultConfig::parse("guard-addr:1:11");
  ASSERT_TRUE(C.has_value());
  FaultInjector Injector(*C);
  workloads::RunResult Direct;
  {
    FaultScope Scope(Injector);
    Direct = workloads::runWorkload(*Spec, Opt);
  }
  ASSERT_GT(Direct.Mem.GuardedLoadFaults, 0u); // The chaos really fired.
  ASSERT_FALSE(Buf.overflowed());

  workloads::RunResult Replayed =
      workloads::replayTrace(Direct, Buf, Opt.Machine);
  EXPECT_EQ(Replayed.Mem, Direct.Mem);
  EXPECT_EQ(Replayed.Sites, Direct.Sites);
  EXPECT_EQ(Replayed.CompiledCycles, Direct.CompiledCycles);
  EXPECT_EQ(Replayed.Mem.GuardedLoadFaults, Direct.Mem.GuardedLoadFaults);
}

TEST(ChaosTraceTest, FaultInjectionDisablesTraceReuse) {
  // With any fault site enabled, runPlan must not record or replay:
  // chaos exercises the real interpret path, and every cell re-rolls its
  // own fault stream. The results must match a run with reuse explicitly
  // off, and the cache must report itself disabled.
  ScopedEnv E("SPF_FAULTS", "guard-addr:0.05:3");
  ScopedEnv T("SPF_CELL_TIMEOUT", nullptr);
  harness::ExperimentPlan Plan = tinyJessPlan(4);

  harness::ExperimentResult WithTrace =
      harness::runPlan(Plan, 2, harness::TraceOptions());
  harness::TraceOptions Off;
  Off.Enabled = false;
  harness::ExperimentResult NoTrace = harness::runPlan(Plan, 2, Off);

  EXPECT_FALSE(WithTrace.TraceEnabled); // Auto-disabled by SPF_FAULTS.
  EXPECT_EQ(WithTrace.Trace.Hits + WithTrace.Trace.Misses, 0u);
  ASSERT_EQ(WithTrace.Cells.size(), NoTrace.Cells.size());
  for (unsigned I = 0; I != Plan.size(); ++I) {
    ASSERT_TRUE(WithTrace.Cells[I].Ran && NoTrace.Cells[I].Ran) << I;
    EXPECT_FALSE(WithTrace.run(I).Replayed) << I;
    EXPECT_EQ(WithTrace.run(I).Mem, NoTrace.run(I).Mem) << I;
    EXPECT_EQ(WithTrace.run(I).CompiledCycles, NoTrace.run(I).CompiledCycles)
        << I;
    EXPECT_EQ(WithTrace.run(I).Mem.GuardedLoadFaults,
              NoTrace.run(I).Mem.GuardedLoadFaults)
        << I;
  }
}

} // namespace
