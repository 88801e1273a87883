//===- bench/BenchCommon.h - Shared harness for the figures -----*- C++ -*-===//
///
/// \file
/// Helpers shared by the per-figure binaries: expand the 12 Table 3
/// workloads under the Section 4 configurations into an experiment plan,
/// run it on the parallel driver (src/harness), and print paper-style
/// rows.
///
/// The problem scale can be reduced for quick runs with SPF_SCALE (e.g.
/// SPF_SCALE=0.1 ./fig6_speedup_p4); the recorded EXPERIMENTS.md numbers
/// use the default 1.0. Worker count comes from --jobs N (or SPF_JOBS;
/// default: hardware concurrency). Any workload self-check failure or
/// baseline-vs-prefetch result mismatch makes the binary exit nonzero.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_BENCH_BENCHCOMMON_H
#define SPF_BENCH_BENCHCOMMON_H

#include "harness/Experiment.h"
#include "harness/JsonWriter.h"
#include "harness/Supervisor.h"
#include "harness/ThreadPool.h"
#include "obs/DecisionLog.h"
#include "obs/Obs.h"
#include "obs/StatRegistry.h"
#include "obs/Tracer.h"
#include "support/Env.h"
#include "support/FaultInjection.h"
#include "support/Process.h"
#include "support/Shutdown.h"
#include "workloads/Runner.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

namespace spf {
namespace bench {

/// SPF_SCALE: a strictly positive finite number (default 1.0). Anything
/// else exits with ConfigErrorExit before a cell runs.
inline double scaleFromEnv() {
  return support::envDouble("SPF_SCALE", 1.0, 0.0, /*MinExclusive=*/true);
}

inline workloads::WorkloadConfig benchConfig() {
  workloads::WorkloadConfig Cfg;
  Cfg.Scale = scaleFromEnv();
  return Cfg;
}

/// Resolves a machine by registry name (sim::MachineConfig::byName) or
/// exits with ConfigErrorExit (2) listing the known names.
inline sim::MachineConfig machineByNameOrExit(const std::string &Name) {
  if (std::optional<sim::MachineConfig> M = sim::MachineConfig::byName(Name))
    return *M;
  std::string Known;
  for (const std::string &N : sim::MachineConfig::knownNames()) {
    if (!Known.empty())
      Known += ", ";
    Known += N;
  }
  support::envConfigError("--machine", Name.c_str(),
                          "unknown machine; known names: " + Known);
}

/// Loads and validates a machine file (machines/*.json schema, see
/// DESIGN.md) or exits with ConfigErrorExit carrying the diagnostic.
inline sim::MachineConfig machineFromFileOrExit(const std::string &Path) {
  std::string Error;
  if (std::optional<sim::MachineConfig> M =
          sim::MachineConfig::fromFile(Path, &Error))
    return *M;
  support::envConfigError("--machine-file", Path.c_str(), Error);
}

/// Machine-selection flags shared by benches that support them:
///   --machine NAME       a builtin from the registry (repeatable;
///                        aliases like "p4"/"athlon"/"modern" work)
///   --machine-file FILE  a JSON machine description (repeatable)
///   --hw-prefetch KIND   override the hardware prefetcher of every
///                        selected machine: none | stream | rpt
/// Returns the selected machines in flag order; empty when no machine
/// flag was given, in which case callers use their default plan (the
/// --hw-prefetch override still applies to it via \p HwOverride).
inline std::vector<sim::MachineConfig>
machinesFromArgs(int argc, char **argv,
                 std::optional<sim::HwPrefetchKind> *HwOverride = nullptr) {
  std::vector<sim::MachineConfig> Machines;
  std::optional<sim::HwPrefetchKind> Kind;
  auto ParseKind = [](const std::string &V) {
    std::optional<sim::HwPrefetchKind> K = sim::parseHwPrefetchKind(V);
    if (!K)
      support::envConfigError("--hw-prefetch", V.c_str(),
                              "expected none|stream|rpt");
    return *K;
  };
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--machine" && I + 1 < argc)
      Machines.push_back(machineByNameOrExit(argv[++I]));
    else if (A.rfind("--machine=", 0) == 0)
      Machines.push_back(machineByNameOrExit(A.substr(10)));
    else if (A == "--machine-file" && I + 1 < argc)
      Machines.push_back(machineFromFileOrExit(argv[++I]));
    else if (A.rfind("--machine-file=", 0) == 0)
      Machines.push_back(machineFromFileOrExit(A.substr(15)));
    else if (A == "--hw-prefetch" && I + 1 < argc)
      Kind = ParseKind(argv[++I]);
    else if (A.rfind("--hw-prefetch=", 0) == 0)
      Kind = ParseKind(A.substr(14));
  }
  if (Kind)
    for (sim::MachineConfig &M : Machines)
      M.HwPrefetch = *Kind;
  if (HwOverride)
    *HwOverride = Kind;
  return Machines;
}

/// Epoch / GC-variant / governor knobs shared by adaptation-aware
/// benches (bench/adaptation, bench/sweep):
///   --epochs N            epochs per run, >= 1 (or SPF_EPOCHS)
///   --gc-variant NAME     sliding-compact | mark-sweep | address-shuffle |
///                         promotion-order (or SPF_GC_VARIANT)
///   --governor on|off     online prefetch-health governor (or
///                         SPF_GOVERNOR=on|off)
///   --phase-change        shuffle ref arrays at the midpoint boundary
///                         (or SPF_PHASE_CHANGE=1)
/// Invalid values exit with support::ConfigErrorExit (2) before any cell
/// runs.
struct AdaptationKnobs {
  unsigned Epochs = 1;
  vm::GcVariant GcVariant = vm::GcVariant::SlidingCompact;
  bool Governor = false;
  bool PhaseChange = false;

  void applyTo(workloads::RunOptions &Opt) const {
    Opt.Epochs = Epochs;
    Opt.GcVariant = GcVariant;
    Opt.Governor = Governor;
    Opt.PhaseChange = PhaseChange;
  }
};

inline AdaptationKnobs adaptationFromArgs(int argc, char **argv) {
  AdaptationKnobs K;
  auto ParseEpochs = [](const char *Flag, const std::string &V) {
    char *End = nullptr;
    long N = std::strtol(V.c_str(), &End, 10);
    if (!End || *End != '\0' || N < 1 || N > 1000000)
      support::envConfigError(Flag, V.c_str(),
                              "expected an integer epoch count >= 1");
    return static_cast<unsigned>(N);
  };
  auto ParseVariant = [](const char *Flag, const std::string &V) {
    std::optional<vm::GcVariant> G = vm::parseGcVariant(V);
    if (!G)
      support::envConfigError(Flag, V.c_str(),
                              "expected sliding-compact|mark-sweep|"
                              "address-shuffle|promotion-order");
    return *G;
  };
  auto ParseOnOff = [](const char *Flag, const std::string &V) {
    if (V == "on" || V == "1" || V == "true")
      return true;
    if (V == "off" || V == "0" || V == "false")
      return false;
    support::envConfigError(Flag, V.c_str(), "expected on|off");
  };
  if (const char *E = std::getenv("SPF_EPOCHS"))
    K.Epochs = ParseEpochs("SPF_EPOCHS", E);
  if (const char *E = std::getenv("SPF_GC_VARIANT"))
    K.GcVariant = ParseVariant("SPF_GC_VARIANT", E);
  if (const char *E = std::getenv("SPF_GOVERNOR"))
    K.Governor = ParseOnOff("SPF_GOVERNOR", E);
  if (const char *E = std::getenv("SPF_PHASE_CHANGE"))
    K.PhaseChange = ParseOnOff("SPF_PHASE_CHANGE", E);
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--epochs" && I + 1 < argc)
      K.Epochs = ParseEpochs("--epochs", argv[++I]);
    else if (A.rfind("--epochs=", 0) == 0)
      K.Epochs = ParseEpochs("--epochs", A.substr(9));
    else if (A == "--gc-variant" && I + 1 < argc)
      K.GcVariant = ParseVariant("--gc-variant", argv[++I]);
    else if (A.rfind("--gc-variant=", 0) == 0)
      K.GcVariant = ParseVariant("--gc-variant", A.substr(13));
    else if (A == "--governor" && I + 1 < argc)
      K.Governor = ParseOnOff("--governor", argv[++I]);
    else if (A.rfind("--governor=", 0) == 0)
      K.Governor = ParseOnOff("--governor", A.substr(11));
    else if (A == "--phase-change")
      K.PhaseChange = true;
  }
  return K;
}

/// Number of correctness failures recorded so far in this binary.
inline unsigned &failureCount() {
  static unsigned Count = 0;
  return Count;
}

/// Records one correctness failure; the binary will exit nonzero.
inline void reportFailure(const std::string &Msg) {
  ++failureCount();
  std::fprintf(stderr, "FAILURE: %s\n", Msg.c_str());
}

/// Exit code for a sweep that was interrupted (shutdown signal or
/// --sweep-deadline) but wrote a valid partial report. Distinct from 1
/// (correctness failure) and support::ConfigErrorExit (2): scripts can
/// tell "rerun with --resume" from "investigate".
inline constexpr int InterruptedExit = 3;

/// Set when any plan this binary ran was interrupted (see exitCode()).
inline bool &sawInterrupted() {
  static bool Interrupted = false;
  return Interrupted;
}

/// The exit code every bench main() must return: 1 iff any workload
/// self-check failed or prefetching changed a result; InterruptedExit
/// for a clean-but-interrupted partial sweep; 0 otherwise.
inline int exitCode() {
  if (failureCount())
    return 1;
  return sawInterrupted() ? InterruptedExit : 0;
}

/// Folds a finished plan's verdicts into this binary's failure count.
/// Returns true when the plan was fully clean.
inline bool reportPlanFailures(const harness::ExperimentResult &Result) {
  for (const std::string &F : Result.Failures)
    reportFailure(F);
  return Result.ok();
}

/// Worker count: --jobs N / --jobs=N on the command line, else SPF_JOBS,
/// else hardware concurrency.
inline unsigned jobsFromArgs(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    long V = -1;
    if (A == "--jobs" && I + 1 < argc)
      V = std::atol(argv[I + 1]);
    else if (A.rfind("--jobs=", 0) == 0)
      V = std::atol(A.c_str() + 7);
    if (V > 0)
      return static_cast<unsigned>(V);
  }
  return harness::defaultJobs();
}

/// Record-once / replay-many knobs from the command line:
///   --no-trace-reuse      interpret every cell directly (A/B baseline)
///   --trace-cache-mb N    in-memory trace budget in MB (0 disables;
///                         default: SPF_TRACE_MB, then 256)
///   --trace-dir DIR       spill evicted traces to DIR and reuse them
///                         across runs
inline harness::TraceOptions traceOptionsFromArgs(int argc, char **argv) {
  harness::TraceOptions T;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    double Mb = -1;
    if (A == "--no-trace-reuse")
      T.Enabled = false;
    else if (A == "--trace-cache-mb" && I + 1 < argc)
      Mb = std::atof(argv[I + 1]);
    else if (A.rfind("--trace-cache-mb=", 0) == 0)
      Mb = std::atof(A.c_str() + 17);
    else if (A == "--trace-dir" && I + 1 < argc)
      T.SpillDir = argv[I + 1];
    else if (A.rfind("--trace-dir=", 0) == 0)
      T.SpillDir = A.substr(12);
    if (Mb >= 0)
      T.BudgetBytes = static_cast<size_t>(Mb * 1024.0 * 1024.0);
  }
  return T;
}

/// Per-binary CLI state shared by every bench main: worker threads,
/// trace reuse, out-of-process isolation, and the run journal. Filled by
/// init(); consumed by runPlanCli(). PlanSeq numbers the runPlanCli
/// calls a binary makes, so the hidden worker protocol can name a cell
/// of any plan in a multi-plan binary.
struct BenchCli {
  int Argc = 0;
  char **Argv = nullptr;
  std::string SelfPath;
  std::optional<harness::WorkerRequest> Worker;
  unsigned Jobs = 0;
  harness::TraceOptions Trace;
  bool Isolate = false;
  uint64_t CellMemMb = 0;
  std::string JournalPath;
  bool Resume = false;
  /// Global wall-clock budget for each plan in seconds (0 = none);
  /// --sweep-deadline / SPF_SWEEP_DEADLINE_S.
  double SweepDeadlineSec = 0.0;
  /// Streaming aggregation sink (--cells-out FILE): one JSONL record per
  /// cell at in-order retirement; also turns on O(jobs)-resident folding.
  std::string CellsOut;
  unsigned PlanSeq = 0;
  // Observability outputs (src/obs). ProfileOut also arms the tracer in
  // supervised workers — they inherit the flag through workerArgv and
  // ship their spans back on the record line.
  std::string ProfileOut;   ///< Chrome trace_event JSON path.
  std::string StatsOut;     ///< Prometheus text dump path.
  std::string DecisionsOut; ///< Compile-decision JSON-lines path.
  bool Explain = false;     ///< Print the per-cell decision summary.
  bool DecisionsOpened = false; ///< First plan truncates, later append.
  /// Timeline sampling cadence (--timeline-every N / SPF_TIMELINE):
  /// cells of timeline-aware benches sample the cycle attribution every
  /// N memory events and the report grows cycle_breakdown / timeline /
  /// top_sites keys. 0 (the default) keeps reports byte-identical to
  /// the pre-timeline format; forced to 0 when observability is
  /// disabled (SPF_OBS=0 runs must stay byte-identical).
  uint64_t TimelineEvery = 0;
};

inline BenchCli &cli() {
  static BenchCli C;
  return C;
}

/// atexit hook (supervisor process only): writes the Chrome trace and
/// the Prometheus stats dump after main() has finished every plan.
inline void flushObservability() {
  BenchCli &C = cli();
  if (!C.ProfileOut.empty() && obs::Tracer::instance().active()) {
    std::ofstream OS(C.ProfileOut, std::ios::trunc);
    if (OS) {
      // Label our lane with the binary name; worker lanes are labeled
      // by pid in Tracer::writeChromeTrace.
      std::string Label = C.SelfPath;
      size_t Slash = Label.find_last_of('/');
      if (Slash != std::string::npos)
        Label = Label.substr(Slash + 1);
      size_t N = obs::Tracer::instance().writeChromeTrace(OS, Label);
      std::fprintf(stderr, "trace: %zu event(s) -> %s\n", N,
                   C.ProfileOut.c_str());
    } else {
      std::fprintf(stderr, "trace: cannot write %s\n", C.ProfileOut.c_str());
    }
  }
  if (!C.StatsOut.empty() && obs::enabled()) {
    std::ofstream OS(C.StatsOut, std::ios::trunc);
    if (OS)
      obs::stats().writeProm(OS);
    else
      std::fprintf(stderr, "stats: cannot write %s\n", C.StatsOut.c_str());
  }
}

/// Parses the shared bench flags. Call first in every bench main:
///   --jobs N            worker threads (or SPF_JOBS)
///   --no-trace-reuse / --trace-cache-mb N / --trace-dir DIR
///   --isolate           run every cell in a supervised worker process
///   --cell-mem-mb N     RLIMIT_AS per worker in MiB (or SPF_CELL_MEM_MB)
///   --journal FILE      append one fsync'd record per finished cell
///   --resume            graft a previous journal instead of re-running
///   --sweep-deadline S  stop admitting cells after S seconds and write
///                       a partial `interrupted` report (exit code 3;
///                       or SPF_SWEEP_DEADLINE_S)
///   --cells-out FILE    stream one JSONL record per cell and keep only
///                       O(jobs) cells resident (streaming aggregation)
/// Also installs the SIGTERM/SIGINT graceful-shutdown handlers in
/// supervisor processes (workers stay killable the default way), and
/// recognizes the hidden worker protocol (--run-cell ...); a worker
/// invocation is dispatched inside runPlanCli, never here.
inline void init(int argc, char **argv) {
  BenchCli &C = cli();
  C.Argc = argc;
  C.Argv = argv;
  C.SelfPath = support::selfExecutablePath(argv[0]);
  C.Worker = harness::parseWorkerRequest(argc, argv);
  C.Jobs = jobsFromArgs(argc, argv);
  C.Trace = traceOptionsFromArgs(argc, argv);
  C.CellMemMb = harness::cellMemMbFromEnv();
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--isolate") {
      C.Isolate = true;
    } else if (A == "--cell-mem-mb" && I + 1 < argc) {
      C.CellMemMb = static_cast<uint64_t>(std::atoll(argv[++I]));
    } else if (A.rfind("--cell-mem-mb=", 0) == 0) {
      C.CellMemMb = static_cast<uint64_t>(std::atoll(A.c_str() + 14));
    } else if (A == "--journal" && I + 1 < argc) {
      C.JournalPath = argv[++I];
    } else if (A.rfind("--journal=", 0) == 0) {
      C.JournalPath = A.substr(10);
    } else if (A == "--resume") {
      C.Resume = true;
    } else if (A == "--sweep-deadline" && I + 1 < argc) {
      C.SweepDeadlineSec = std::atof(argv[++I]);
    } else if (A.rfind("--sweep-deadline=", 0) == 0) {
      C.SweepDeadlineSec = std::atof(A.c_str() + 17);
    } else if (A == "--cells-out" && I + 1 < argc) {
      C.CellsOut = argv[++I];
    } else if (A.rfind("--cells-out=", 0) == 0) {
      C.CellsOut = A.substr(12);
    } else if (A == "--profile-out" && I + 1 < argc) {
      C.ProfileOut = argv[++I];
    } else if (A.rfind("--profile-out=", 0) == 0) {
      C.ProfileOut = A.substr(14);
    } else if (A == "--stats-out" && I + 1 < argc) {
      C.StatsOut = argv[++I];
    } else if (A.rfind("--stats-out=", 0) == 0) {
      C.StatsOut = A.substr(12);
    } else if (A == "--decisions-out" && I + 1 < argc) {
      C.DecisionsOut = argv[++I];
    } else if (A.rfind("--decisions-out=", 0) == 0) {
      C.DecisionsOut = A.substr(16);
    } else if (A == "--timeline-every" && I + 1 < argc) {
      C.TimelineEvery = static_cast<uint64_t>(std::atoll(argv[++I]));
    } else if (A.rfind("--timeline-every=", 0) == 0) {
      C.TimelineEvery = static_cast<uint64_t>(std::atoll(A.c_str() + 17));
    } else if (A == "--explain") {
      C.Explain = true;
    }
  }
  if (C.Resume && C.JournalPath.empty())
    support::envConfigError("--resume", "",
                            "--resume requires --journal FILE");
  if (C.SweepDeadlineSec <= 0)
    C.SweepDeadlineSec = support::sweepDeadlineSecondsFromEnv();
  // Graceful shutdown: supervisors latch SIGTERM/SIGINT and finish with
  // a partial report + exit code 3; workers keep default disposition so
  // a group kill still takes them down instantly.
  if (!C.Worker)
    support::installShutdownHandlers();
  if (C.ProfileOut.empty())
    if (const char *E = std::getenv("SPF_TRACE_OUT"))
      C.ProfileOut = E;
  if (C.StatsOut.empty())
    if (const char *E = std::getenv("SPF_STATS_OUT"))
      C.StatsOut = E;
  if (C.DecisionsOut.empty())
    if (const char *E = std::getenv("SPF_DECISIONS_OUT"))
      C.DecisionsOut = E;
  if (!C.TimelineEvery)
    C.TimelineEvery = support::envU64("SPF_TIMELINE", 0);
  // SPF_OBS=0 (or an -DSPF_OBSERVABILITY=OFF build) must produce
  // byte-identical reports: the timeline facet is an observability
  // feature, so it is hard-disabled along with the rest of obs.
  if (!obs::enabled())
    C.TimelineEvery = 0;
  // Arm the tracer in supervisors AND workers (workers inherit the flag
  // via workerArgv; their spans travel back on the record line). Only
  // the supervisor flushes files: workers _Exit before atexit runs, and
  // the hook is not registered for them anyway.
  if (!C.ProfileOut.empty() && obs::enabled())
    obs::Tracer::instance().enable();
  if (!C.Worker && (!C.ProfileOut.empty() || !C.StatsOut.empty()))
    std::atexit(flushObservability);
}

/// Emits the per-cell compile-decision log for one finished plan: the
/// human summary on stdout (--explain) and one JSON line per decision
/// (--decisions-out), each wrapped with its cell's identity so lines
/// from multi-plan binaries stay attributable.
inline void emitDecisions(const harness::ExperimentPlan &Plan,
                          const harness::ExperimentResult &Result) {
  BenchCli &C = cli();
  if (!C.Explain && C.DecisionsOut.empty())
    return;
  std::ofstream DS;
  if (!C.DecisionsOut.empty()) {
    DS.open(C.DecisionsOut,
            C.DecisionsOpened ? std::ios::app : std::ios::trunc);
    C.DecisionsOpened = true;
    if (!DS)
      std::fprintf(stderr, "decisions: cannot write %s\n",
                   C.DecisionsOut.c_str());
  }
  for (unsigned I = 0, E = static_cast<unsigned>(Plan.size()); I != E;
       ++I) {
    const harness::ExperimentCell &Cell = Plan.cells()[I];
    const std::vector<obs::DecisionEvent> &Decisions =
        Result.Cells[I].Run.Decisions;
    if (Decisions.empty())
      continue;
    if (C.Explain) {
      std::printf("\nexplain: %s [%s, %s] — %zu decision(s)\n",
                  Cell.Spec->Name.c_str(),
                  workloads::algorithmName(Cell.Opt.Algo),
                  Cell.Opt.Machine.Name.c_str(), Decisions.size());
      for (const obs::DecisionEvent &D : Decisions)
        std::printf("  %s\n", obs::formatDecision(D).c_str());
    }
    if (DS) {
      for (const obs::DecisionEvent &D : Decisions) {
        harness::JsonWriter J(DS);
        J.beginObject();
        J.key("cell").value(static_cast<uint64_t>(I));
        if (!Cell.Group.empty())
          J.key("group").value(Cell.Group);
        J.key("workload").value(Cell.Spec->Name);
        J.key("algorithm").value(workloads::algorithmName(Cell.Opt.Algo));
        J.key("machine").value(Cell.Opt.Machine.Name);
        J.key("decision");
        obs::writeDecisionJson(J, D);
        J.endObject();
        DS << '\n';
      }
    }
  }
}

/// Runs \p Plan under the configuration init() parsed. In a worker
/// invocation targeting this plan, runs the requested cell and exits;
/// for earlier plans of a multi-plan binary it fabricates empty results
/// (the worker's stdout goes to /dev/null, so the skipped plans' tables
/// print into the void) so control flow reaches the target plan without
/// executing anything.
inline harness::ExperimentResult
runPlanCli(const harness::ExperimentPlan &Plan) {
  BenchCli &C = cli();
  const unsigned Seq = C.PlanSeq++;
  if (C.Worker) {
    if (C.Worker->PlanSeq == Seq)
      harness::runCellWorker(Plan, *C.Worker, C.Trace); // Does not return.
    harness::ExperimentResult R;
    R.Cells.resize(Plan.size());
    for (harness::CellResult &Cell : R.Cells) {
      Cell.Ran = true;
      Cell.Attempts = 1;
    }
    return R;
  }

  harness::RunPlanOptions Opts;
  Opts.Trace = C.Trace;
  if (C.Isolate) {
    Opts.Isolate.Enabled = true;
    Opts.Isolate.CellMemMb = C.CellMemMb;
    const std::string Self = C.SelfPath;
    const int Argc = C.Argc;
    char **const Argv = C.Argv;
    Opts.Isolate.WorkerCommand = [Self, Argc, Argv,
                                  Seq](unsigned Cell, unsigned Attempt) {
      return harness::workerArgv(Self, Argc, Argv, Seq, Cell, Attempt);
    };
  }
  if (!C.JournalPath.empty()) {
    // Multi-plan binaries journal each plan separately.
    Opts.Journal.Path =
        Seq == 0 ? C.JournalPath
                 : C.JournalPath + ".plan" + std::to_string(Seq);
    Opts.Journal.Resume = C.Resume;
  }
  // Resource governor: every bench supervisor honors SIGTERM/SIGINT
  // (handlers installed in init) and the sweep deadline.
  Opts.Governor.Graceful = true;
  Opts.Governor.SweepDeadlineSec = C.SweepDeadlineSec;
  if (!C.CellsOut.empty()) {
    Opts.Stream.Enabled = true;
    Opts.Stream.CellsOutPath =
        Seq == 0 ? C.CellsOut : C.CellsOut + ".plan" + std::to_string(Seq);
  }
  harness::ExperimentResult Result = harness::runPlan(Plan, C.Jobs, Opts);
  if (Result.Interrupted) {
    sawInterrupted() = true;
    std::fprintf(stderr,
                 "interrupted: %s — %u cell(s) skipped; partial report is "
                 "valid%s\n",
                 Result.InterruptReason.c_str(), Result.CellsSkipped,
                 Result.JournalPath.empty()
                     ? ""
                     : ", rerun with --resume to complete the sweep");
  }
  emitDecisions(Plan, Result);
  return Result;
}

/// Writes the JSON report for one finished plan to \p Path ("-" =
/// stdout). File writes are one of the named ENOSPC/EIO injection points
/// (disk-write site): the first attempt runs under a fault scope and is
/// retried once *outside* it, so injected failures always recover while
/// real persistent failures still surface as a Failure at the caller.
inline bool writeReportTo(const std::string &Path,
                          const harness::ExperimentPlan &Plan,
                          const harness::ExperimentResult &Result,
                          double Scale, unsigned Jobs) {
  if (Path == "-") {
    harness::writeJsonReport(std::cout, Plan, Result, Scale, Jobs);
    return true;
  }
  support::FaultInjector Injector(support::FaultConfig::fromEnv(),
                                  /*StreamSalt=*/0x5e9075ULL);
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    bool Injected = false;
    if (Attempt == 0) {
      support::FaultScope Scope(Injector);
      Injected = SPF_FAULT_POINT(support::FaultSite::DiskWrite);
    }
    if (!Injected) {
      std::ofstream OS(Path, std::ios::trunc);
      if (OS) {
        harness::writeJsonReport(OS, Plan, Result, Scale, Jobs);
        OS.flush();
        if (OS)
          return true;
      }
    }
    if (obs::enabled())
      obs::stats().counter("spf_report_write_failures_total").inc();
    std::fprintf(stderr, "report: write to %s failed%s\n", Path.c_str(),
                 Attempt == 0 ? ", retrying" : "");
  }
  return false;
}

/// Results for one workload under the three configurations.
struct WorkloadRuns {
  const workloads::WorkloadSpec *Spec = nullptr;
  workloads::RunResult Base;
  workloads::RunResult Inter;
  workloads::RunResult Intra;
  bool HasInter = false;
};

/// Appends the full Table 3 sweep on \p Machine to \p Plan. When
/// \p WithInter is false only BASELINE and INTER+INTRA are planned
/// (enough for the MPI figures).
inline std::vector<unsigned> planAll(harness::ExperimentPlan &Plan,
                                     const sim::MachineConfig &Machine,
                                     bool WithInter,
                                     const std::string &Group = "") {
  using namespace workloads;
  std::vector<const WorkloadSpec *> Specs;
  for (const WorkloadSpec &Spec : allWorkloads())
    Specs.push_back(&Spec);
  std::vector<Algorithm> Algos{Algorithm::Baseline};
  if (WithInter)
    Algos.push_back(Algorithm::Inter);
  Algos.push_back(Algorithm::InterIntra);
  return Plan.addSweep(Specs, Algos, {Machine}, benchConfig(), Group);
}

/// Folds the cells planned by planAll back into per-workload rows.
/// \p First is the index of the sweep's first cell in \p Result.
inline std::vector<WorkloadRuns>
collectAll(const harness::ExperimentResult &Result, bool WithInter,
           unsigned First = 0) {
  using namespace workloads;
  std::vector<WorkloadRuns> Rows;
  unsigned PerWorkload = WithInter ? 3 : 2;
  unsigned I = First;
  for (const WorkloadSpec &Spec : allWorkloads()) {
    WorkloadRuns Row;
    Row.Spec = &Spec;
    Row.Base = Result.run(I);
    if (WithInter) {
      Row.Inter = Result.run(I + 1);
      Row.HasInter = true;
    }
    Row.Intra = Result.run(I + PerWorkload - 1);
    Rows.push_back(std::move(Row));
    I += PerWorkload;
  }
  return Rows;
}

/// Runs every Table 3 workload on \p Machine under the configuration
/// init() parsed (jobs, trace reuse, isolation, journal). Self-check
/// failures and baseline-vs-prefetch mismatches are recorded via
/// reportFailure(), so callers finish with `return bench::exitCode();`.
inline std::vector<WorkloadRuns> runAll(const sim::MachineConfig &Machine,
                                        bool WithInter) {
  harness::ExperimentPlan Plan;
  planAll(Plan, Machine, WithInter);
  harness::ExperimentResult Result = runPlanCli(Plan);
  reportPlanFailures(Result);
  return collectAll(Result, WithInter);
}

inline double speedup(const WorkloadRuns &Row,
                      const workloads::RunResult &Opt) {
  return workloads::speedupPercent(Row.Base, Opt,
                                   Row.Spec->CompiledFraction);
}

} // namespace bench
} // namespace spf

#endif // SPF_BENCH_BENCHCOMMON_H
