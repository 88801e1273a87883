//===- hostbench/hostbench.cpp - Host-time benchmark of the sweep ---------===//
///
/// \file
/// Measures where host time goes when the reproduction runs a sweep. One
/// named workload is a fixed harness::ExperimentPlan (the workload seed is
/// an argument). Two modes:
///
///   --trace 0  End to end: the plan runs through harness::runPlan at
///              jobs=1 (no isolation, no journal, default trace reuse),
///              repeated while --seconds allow; prints wall
///              time, simulated MIPS, peak RSS, failed share and the
///              paper-fidelity gap.
///   --trace 1  Per layer: runPlan once (the untraced reference), then a
///              traced pass over the same cells that calls each layer's
///              public entry point directly and records a span around
///              every call. The spans give the per-layer metrics.
///
/// Both modes print "setup-end-ns: N", the CLOCK_MONOTONIC time at which
/// the first runPlan call starts; run.py subtracts the time it spawned the
/// process to get setup_s. --setup-only stops there, before runPlan.
///
/// Both modes check the outputs (self-checks, prefetching cells against
/// their BASELINE, the default-seed digest; the traced mode also replay
/// equals live and the layer-sum) and print, as the last stdout line, one
/// JSON object {correct, attempted, failed, metrics}. Exit status: 0 when
/// every check passed, 1 when one failed, 2 on a bad command line.
///
/// The benchmark touches the program only through public module headers.
///
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"
#include "harness/Experiment.h"
#include "jit/CompileManager.h"
#include "sim/CountingSink.h"
#include "sim/MemorySystem.h"
#include "trace/RecordingSink.h"
#include "trace/TraceBuffer.h"
#include "workloads/Runner.h"
#include "workloads/Workload.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace spf;
using workloads::Algorithm;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

uint64_t monotonicNs() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return uint64_t(T.tv_sec) * 1000000000ull + uint64_t(T.tv_nsec);
}

long minorFaults() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_minflt;
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

// -- Workloads and metrics ----------------------------------------------------

struct WorkloadDef {
  const char *Name;
  const char *Why;
};

const WorkloadDef Workloads[] = {
    {"paper-full", "12 workloads x 3 algorithms x {pentium4, athlonmp} at "
                   "scale 1.0: the 72-cell sweep, live interpretation plus "
                   "the per-event model dominate"},
    {"paper-ci", "the same 72 cells at scale 0.3: fixed costs (workload "
                 "build, JIT) dominate"},
    {"modern-matrix", "modern3l x {none, sw, hw, combined} x 12 workloads: "
                      "half the cells replay through the batched model"},
    {"gc-governed", "db, jack, MonteCarlo x 3 algorithms x 2 machines, 10 "
                    "epochs, address-shuffle GC, governor, phase change"},
};

struct MetricDef {
  const char *Name;
  const char *Unit;
  const char *What;
};

const MetricDef EndToEndMetrics[] = {
    {"wall_s", "s", "median wall time of one runPlan call"},
    {"sim_mips", "Minstr/s", "simulated instructions / wall_s"},
    {"setup_s", "s", "process start to the runPlan call (run.py: median "
                     "over 21 cold starts)"},
    {"peak_rss_mb", "MiB", "getrusage max RSS of the process"},
};

// Printed with the end-to-end table but not in the JSON metrics: the
// share is 0 on correct code (the JSON carries it as failed/attempted),
// and paper_err_pp exists only on the paper-* workloads.
const MetricDef ReportedOnlyMetrics[] = {
    {"failed_share", "ratio", "cells failing a check / cells attempted"},
    {"paper_err_pp", "pp", "mean |INTER+INTRA speedup - paper| over "
                           "jess/db/Euler on both machines (paper-* only)"},
};

const MetricDef LayerMetrics[] = {
    {"workloads.build_s", "s", "WorkloadSpec::Build"},
    {"workloads.build_minflt", "count", "minor faults during Build"},
    {"vm.teardown_s", "s", "destroying the BuiltWorkload"},
    {"jit.compile_s", "s", "CompileManager::compile calls"},
    {"jit.units", "count", "CompileManager::compile calls"},
    {"jit.prefetch_share", "ratio", "prefetchUs / totalJitUs"},
    {"core.prefetches_emitted", "count", "PrefetchPassResult::CodeGen"},
    {"core.spec_loads_emitted", "count", "PrefetchPassResult::CodeGen"},
    {"exec.interp_s", "s", "Interpreter::run minus trace.record_s"},
    {"exec.retired", "count", "ExecStats::Retired (epoch 0)"},
    {"exec.mips", "Minstr/s", "exec.retired / exec.interp_s"},
    {"exec.sink_calls_per_instr", "ratio", "sink calls / retired"},
    {"trace.decode_s", "s", "trace::replay into a CountingSink"},
    {"trace.record_s", "s", "re-encode through RecordingSink minus decode"},
    {"trace.bytes_per_event", "B/event", "byteSize / events"},
    {"sim.model_batched_s", "s", "trace::replay into MemorySystem - decode"},
    {"sim.model_per_event_s", "s",
     "trace::replayPerEvent into MemorySystem - decode"},
    {"sim.ns_per_event", "ns", "sim.model_batched_s / sim.events"},
    {"sim.events", "count", "encoded trace events"},
    {"harness.cells_live", "count", "cells interpreted by runPlan"},
    {"harness.cells_replayed", "count", "cells replayed by runPlan"},
    {"harness.trace_lookups", "count", "trace-cache lookups"},
    {"harness.trace_hit_ratio", "ratio", "trace-cache hits / lookups"},
    {"harness.trace_evictions", "count", "trace-cache evictions"},
    {"runner.epochs_s", "s", "runWorkload minus build, JIT and teardown"},
    {"vm.gc_collections", "count", "RunResult::GcCollections"},
    {"opt.governor_reinspections", "count",
     "RunResult::GovernorReinspections"},
    {"obs.trace_overhead_pct", "%", "traced wall vs untraced wall"},
};

const MetricDef *findMetric(const std::string &Name) {
  for (const MetricDef &M : EndToEndMetrics)
    if (Name == M.Name)
      return &M;
  for (const MetricDef &M : ReportedOnlyMetrics)
    if (Name == M.Name)
      return &M;
  for (const MetricDef &M : LayerMetrics)
    if (Name == M.Name)
      return &M;
  return nullptr;
}

void printHelp() {
  std::printf(
      "usage: hostbench --workload NAME --seed N --seconds S --trace 0|1\n"
      "                 [--spans-out FILE] [--setup-only]\n\n"
      "  --seed N      workload seed, 0..4294967295 (WorkloadConfig::Seed =\n"
      "                0x5eed0000 + N; seed 1 is the program default)\n"
      "  --seconds S   measuring budget, 1..60: runPlan repeats while the\n"
      "                next call is expected to fit (at least once)\n"
      "  --trace 1     run the traced per-layer pass instead\n"
      "  --spans-out   write the traced pass's spans as JSON lines\n"
      "  --setup-only  print setup-end-ns and exit before runPlan\n\n"
      "expected data: " HOSTBENCH_EXPECTED "\n\n"
      "workloads:\n");
  for (const WorkloadDef &W : Workloads)
    std::printf("  %-14s %s\n", W.Name, W.Why);
  std::printf("\nend-to-end metrics (--trace 0):\n");
  for (const MetricDef &M : EndToEndMetrics)
    std::printf("  %-28s %-9s %s\n", M.Name, M.Unit, M.What);
  for (const MetricDef &M : ReportedOnlyMetrics)
    std::printf("  %-28s %-9s %s (printed, not in JSON)\n", M.Name, M.Unit,
                M.What);
  std::printf("\nper-layer metrics (--trace 1):\n");
  for (const MetricDef &M : LayerMetrics)
    std::printf("  %-28s %-9s %s\n", M.Name, M.Unit, M.What);
}

// -- Expected data --------------------------------------------------------------

/// Contents of the expected-data file: one record per line,
///   default-seed N | held-out-seed N
///   paper WORKLOAD MACHINE PERCENT
///   digest BENCH-WORKLOAD HEX
///   paper-err-pp BENCH-WORKLOAD VALUE
struct Expected {
  std::optional<uint64_t> DefaultSeed;
  struct PaperRef {
    std::string Workload, Machine;
    double Percent;
  };
  std::vector<PaperRef> Paper;
  std::map<std::string, std::string> Digest;
  std::map<std::string, std::string> PaperErr;
};

bool readExpected(const std::string &Path, Expected &E, std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream SS(Line);
    std::string Key;
    if (!(SS >> Key) || Key[0] == '#')
      continue;
    bool Ok = true;
    if (Key == "default-seed") {
      uint64_t Seed;
      Ok = static_cast<bool>(SS >> Seed);
      E.DefaultSeed = Seed;
    } else if (Key == "held-out-seed") {
      uint64_t Ignored;
      Ok = static_cast<bool>(SS >> Ignored);
    } else if (Key == "paper") {
      Expected::PaperRef R;
      Ok = static_cast<bool>(SS >> R.Workload >> R.Machine >> R.Percent);
      E.Paper.push_back(R);
    } else if (Key == "digest" || Key == "paper-err-pp") {
      std::string W, V;
      Ok = static_cast<bool>(SS >> W >> V);
      (Key == "digest" ? E.Digest : E.PaperErr)[W] = V;
    } else {
      Ok = false;
    }
    if (!Ok) {
      Err = Path + ": bad line '" + Line + "'";
      return false;
    }
  }
  if (!E.DefaultSeed) {
    Err = Path + ": no default-seed line";
    return false;
  }
  return true;
}

// -- Plans -------------------------------------------------------------------

workloads::WorkloadConfig configFor(double Scale, uint64_t Seed) {
  workloads::WorkloadConfig C;
  C.Scale = Scale;
  C.Seed = 0x5eed0000ull + Seed;
  return C;
}

std::vector<const workloads::WorkloadSpec *>
specsNamed(std::initializer_list<const char *> Names) {
  std::vector<const workloads::WorkloadSpec *> Specs;
  for (const char *N : Names)
    Specs.push_back(workloads::findWorkload(N));
  return Specs;
}

/// The set-up the end-to-end run times: machine configs, the workload
/// registry, plan expansion and the runPlan options (trace-cache budget).
struct Setup {
  harness::ExperimentPlan Plan;
  harness::RunPlanOptions Opts;
};

Setup setUp(const std::string &Workload, uint64_t Seed) {
  Setup S;
  const std::vector<Algorithm> Algos{Algorithm::Baseline, Algorithm::Inter,
                                     Algorithm::InterIntra};
  std::vector<const workloads::WorkloadSpec *> All;
  for (const workloads::WorkloadSpec &W : workloads::allWorkloads())
    All.push_back(&W);
  sim::MachineConfig P4 = *sim::MachineConfig::byName("pentium4");
  sim::MachineConfig Athlon = *sim::MachineConfig::byName("athlonmp");

  if (Workload == "paper-full" || Workload == "paper-ci") {
    workloads::WorkloadConfig C =
        configFor(Workload == "paper-full" ? 1.0 : 0.3, Seed);
    S.Plan.addSweep(All, Algos, {P4}, C, "p4");
    S.Plan.addSweep(All, Algos, {Athlon}, C, "athlon");
  } else if (Workload == "modern-matrix") {
    sim::MachineConfig Modern = *sim::MachineConfig::byName("modern3l");
    S.Plan.addModeSweep(All,
                        {harness::PrefetchSources::None,
                         harness::PrefetchSources::SwOnly,
                         harness::PrefetchSources::HwOnly,
                         harness::PrefetchSources::Combined},
                        {Modern}, configFor(1.0, Seed),
                        "machine:" + Modern.Name);
  } else { // gc-governed
    workloads::WorkloadConfig C = configFor(0.3, Seed);
    auto Specs = specsNamed({"db", "jack", "MonteCarlo"});
    S.Plan.addSweep(Specs, Algos, {P4}, C, "p4");
    S.Plan.addSweep(Specs, Algos, {Athlon}, C, "athlon");
    for (harness::ExperimentCell &Cell : S.Plan.cells()) {
      Cell.Opt.Epochs = 10;
      Cell.Opt.GcVariant = vm::GcVariant::AddressShuffle;
      Cell.Opt.Governor = true;
      Cell.Opt.PhaseChange = true;
    }
  }
  // Search is the one kernel whose amount of work depends on its input:
  // the random board sets the game-tree size (0 to 94 M retired
  // instructions over seeds at scale 1.0, where every other kernel's
  // count is seed-invariant). Its cells keep the program's default input
  // so that a run's work, and so its wall time, does not hinge on the seed.
  for (harness::ExperimentCell &Cell : S.Plan.cells())
    if (Cell.Spec->Name == "Search")
      Cell.Opt.Config.Seed = workloads::WorkloadConfig{}.Seed;
  // Defaults: trace reuse on with the SPF_TRACE_MB budget, no isolation,
  // no journal, no streaming.
  S.Opts = harness::RunPlanOptions{};
  return S;
}

std::string cellTag(const harness::ExperimentCell &C) {
  return C.Spec->Name + " [" + workloads::algorithmName(C.Opt.Algo) +
         (C.Mode != harness::PrefetchSources::Unset
              ? std::string("/") + harness::prefetchSourcesName(C.Mode)
              : std::string()) +
         ", " + C.Opt.Machine.Name + "]";
}

// -- Checks ------------------------------------------------------------------

/// Failed checks, grouped by the cell they concern (-1 = whole run).
struct Checks {
  std::map<int, std::vector<std::string>> ByCell;

  void fail(int Cell, std::string Msg) {
    ByCell[Cell].push_back(std::move(Msg));
  }
  unsigned failedCells() const {
    unsigned N = 0;
    for (const auto &[Cell, Msgs] : ByCell)
      N += Cell >= 0;
    return N;
  }
  unsigned failedUnits() const {
    return static_cast<unsigned>(ByCell.size());
  }
  void print() const {
    for (const auto &[Cell, Msgs] : ByCell)
      for (const std::string &M : Msgs)
        std::printf("FAILED %s: %s\n",
                    Cell < 0 ? "run" : ("cell " + std::to_string(Cell)).c_str(),
                    M.c_str());
  }
};

/// Per-cell outcome checks of one untraced runPlan result.
void checkResult(const harness::ExperimentPlan &Plan,
                 const harness::ExperimentResult &R, Checks &C) {
  for (unsigned I = 0; I != Plan.size(); ++I) {
    const harness::ExperimentCell &Cell = Plan.cells()[I];
    const harness::CellResult &CR = R.Cells[I];
    std::string Tag = cellTag(Cell);
    if (!CR.Ran || CR.Failed || CR.TimedOut || CR.Transient || CR.Crashed ||
        CR.DeadlineKilled || CR.Skipped || CR.Attempts != 1)
      C.fail(I, Tag + " did not run cleanly: " + CR.Error);
    else if (!CR.Run.SelfCheckOk)
      C.fail(I, Tag + " self-check failed");
    else if (Cell.CheckAgainst &&
             CR.Run.ReturnValue != R.Cells[*Cell.CheckAgainst].Run.ReturnValue)
      C.fail(I, Tag + " return value differs from its BASELINE cell");
  }
  for (const harness::QuarantineRecord &Q : R.Quarantine)
    C.fail(Q.CellIndex, "quarantined (" + Q.Kind + "): " + Q.Error);
  for (const std::string &F : R.Failures)
    C.fail(-1, "runPlan: " + F);
  if (R.Interrupted)
    C.fail(-1, "runPlan interrupted: " + R.InterruptReason);
}

/// FNV-1a over every simulated per-cell statistic (host-time fields such
/// as JitTotalUs, InterpretUs and Replayed are excluded).
class Digest {
public:
  void add(uint64_t V) {
    for (int B = 0; B != 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char Buf[17];
    std::snprintf(Buf, sizeof(Buf), "%016llx",
                  static_cast<unsigned long long>(H));
    return Buf;
  }

private:
  uint64_t H = 0xcbf29ce484222325ull;
};

void addMemoryStats(Digest &D, const sim::MemoryStats &M) {
  for (uint64_t V :
       {M.Loads, M.Stores, M.L1LoadMisses, M.L1StoreMisses, M.L2LoadMisses,
        M.DtlbLoadMisses, M.SwPrefetchesIssued, M.SwPrefetchesCancelled,
        M.GuardedLoads, M.GuardedLoadFaults, M.CyclesStalledOnLoads,
        M.LlcLoadMisses, M.PageWalks, M.PageWalkCycles, M.RptPrefetchesIssued,
        M.RptPrefetchesUseful, M.RptPrefetchesLate, M.RptPrefetchesUnused,
        M.SwPrefetchesUseful, M.SwPrefetchesLate, M.SwPrefetchesUnused})
    D.add(V);
}

std::string digestOf(const harness::ExperimentResult &R) {
  Digest D;
  for (const harness::CellResult &CR : R.Cells) {
    const workloads::RunResult &Run = CR.Run;
    for (uint64_t V : {Run.ReturnValue, uint64_t(Run.SelfCheckOk),
                       Run.CompiledCycles, Run.Retired})
      D.add(V);
    addMemoryStats(D, Run.Mem);
    const sim::CycleAccounting &A = Run.Acct;
    for (uint64_t V : {A.Compute, A.Wait, A.MemPenalty, A.Translation,
                       A.GuardFault, A.PrefetchIssue, uint64_t(A.Level.size())})
      D.add(V);
    for (uint64_t L : A.Level)
      D.add(L);
    D.add(Run.Sites.size());
    for (const sim::SiteStats &S : Run.Sites)
      for (uint64_t V : {S.Loads, S.L1Misses, S.L2Misses, S.DtlbMisses,
                         S.StallCycles, S.SwIssued, S.SwUseful, S.SwLate,
                         S.SwUnused, S.RptIssued, S.RptUseful, S.RptLate,
                         S.RptUnused})
        D.add(V);
    const exec::ExecStats &E = Run.Exec;
    for (uint64_t V :
         {E.Retired, E.PrefetchRelated, E.Calls, E.Allocations, E.GcRuns})
      D.add(V);
    const core::PrefetchPassResult &P = Run.Prefetch;
    for (uint64_t V :
         {uint64_t(P.LoopsVisited), uint64_t(P.LoopsSkippedSmallTrip),
          uint64_t(P.LoopsNotReached), uint64_t(P.LoopsDegraded),
          uint64_t(P.CodeGen.Prefetches), uint64_t(P.CodeGen.SpecLoads)})
      D.add(V);
    for (uint64_t V : {uint64_t(Run.Epochs), Run.GcCollections,
                       uint64_t(Run.GovernorQuarantined),
                       uint64_t(Run.GovernorRetunes),
                       uint64_t(Run.GovernorReinspections)})
      D.add(V);
  }
  return D.hex();
}

/// Mean |speedup - paper| over the paper reference cells (INTER+INTRA over
/// BASELINE on the same machine); nullopt when the plan has none.
std::optional<double> paperErrPp(const harness::ExperimentPlan &Plan,
                                 const harness::ExperimentResult &R,
                                 const Expected &E, Checks &C) {
  double Sum = 0;
  unsigned N = 0;
  for (const Expected::PaperRef &Ref : E.Paper) {
    std::optional<sim::MachineConfig> M =
        sim::MachineConfig::byName(Ref.Machine);
    const std::string Machine = M ? M->Name : Ref.Machine;
    const workloads::RunResult *Base = nullptr, *Opt = nullptr;
    const workloads::WorkloadSpec *Spec = nullptr;
    for (unsigned I = 0; I != Plan.size(); ++I) {
      const harness::ExperimentCell &Cell = Plan.cells()[I];
      if (Cell.Spec->Name != Ref.Workload || Cell.Opt.Machine.Name != Machine ||
          Cell.Opt.Epochs != 1 || Cell.Mode != harness::PrefetchSources::Unset)
        continue;
      Spec = Cell.Spec;
      if (Cell.Opt.Algo == Algorithm::Baseline)
        Base = &R.run(I);
      else if (Cell.Opt.Algo == Algorithm::InterIntra)
        Opt = &R.run(I);
    }
    if (!Base || !Opt)
      continue;
    Sum += std::fabs(
        workloads::speedupPercent(*Base, *Opt, Spec->CompiledFraction) -
        Ref.Percent);
    ++N;
  }
  if (N == 0)
    return std::nullopt;
  if (N != E.Paper.size())
    C.fail(-1, "only " + std::to_string(N) + " of " +
                   std::to_string(E.Paper.size()) +
                   " paper reference cells found");
  return Sum / N;
}

std::string exactDouble(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

// -- Traced pass -------------------------------------------------------------

/// In-memory span recorder: name, start, end, parent span, cell id.
class Tracer {
public:
  struct Span {
    std::string Name;
    double Start = 0, End = 0; ///< Seconds since the tracer was created.
    int Parent = -1;
    unsigned Cell = 0;
    double seconds() const { return End - Start; }
  };

  int begin(const char *Name, unsigned Cell) {
    Span S;
    S.Name = Name;
    S.Start = secondsSince(Origin);
    S.Parent = Open.empty() ? -1 : Open.back();
    S.Cell = Cell;
    Spans.push_back(std::move(S));
    Open.push_back(static_cast<int>(Spans.size() - 1));
    return Open.back();
  }
  double end(int Id) {
    Spans[Id].End = secondsSince(Origin);
    Open.pop_back();
    return Spans[Id].seconds();
  }
  /// Runs \p F inside a span; returns the span's duration in seconds.
  template <typename Fn> double time(const char *Name, unsigned Cell, Fn F) {
    int Id = begin(Name, Cell);
    F();
    return end(Id);
  }

  const std::vector<Span> &spans() const { return Spans; }

  void write(std::ostream &OS) const {
    char Buf[256];
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::snprintf(Buf, sizeof(Buf),
                    "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                    "\"end\":%.9f,\"parent\":%d,\"cell\":%u}\n",
                    I, S.Name.c_str(), S.Start, S.End, S.Parent, S.Cell);
      OS << Buf;
    }
  }

private:
  Clock::time_point Origin = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// Sums and counts of the traced pass, before they become metrics.
struct LayerTotals {
  double BuildS = 0, TeardownS = 0, JitS = 0, InterpRecordS = 0;
  double DecodeS = 0, DecodePerEventS = 0, ReencodeS = 0;
  double BatchedS = 0, PerEventS = 0, EpochsS = 0;
  double JitTotalUs = 0, JitPrefetchUs = 0;
  uint64_t BuildMinflt = 0, Units = 0, Prefetches = 0, SpecLoads = 0;
  uint64_t Retired = 0, SinkCalls = 0, Events = 0, TraceBytes = 0;
};

bool sameCounts(const sim::CountingSink &A, const sim::CountingSink &B) {
  return A.TicksTotal == B.TicksTotal && A.Loads == B.Loads &&
         A.Stores == B.Stores && A.Prefetches == B.Prefetches &&
         A.GuardedLoads == B.GuardedLoads &&
         A.GuardedLoadFaults == B.GuardedLoadFaults;
}

/// Traces one cell: build, JIT, epoch-0 interpretation into a recording
/// counting sink, teardown, then decode, re-encode and both model entry
/// points over the recorded trace; multi-epoch cells also run the whole
/// runWorkload. \p Live is the untraced run's result for the cell.
void traceCell(const harness::ExperimentCell &Cell, unsigned I,
               const workloads::RunResult &Live, Tracer &T, LayerTotals &L,
               Checks &C) {
  const workloads::RunOptions &O = Cell.Opt;
  const std::string Tag = cellTag(Cell);
  int CellSpan = T.begin("cell", I);

  std::optional<workloads::BuiltWorkload> W;
  long Faults = minorFaults();
  double BuildS = T.time("workloads.build", I,
                         [&] { W.emplace(Cell.Spec->Build(O.Config)); });
  L.BuildMinflt += static_cast<uint64_t>(minorFaults() - Faults);
  L.BuildS += BuildS;

  jit::CompileManager::Options CMO;
  CMO.EnablePrefetch = O.Algo != Algorithm::Baseline;
  CMO.Pass = workloads::passOptionsFor(O.Machine,
                                       O.Algo == Algorithm::Inter
                                           ? core::PrefetchMode::Inter
                                           : core::PrefetchMode::InterIntra);
  if (O.TunePass)
    O.TunePass(CMO.Pass);
  std::optional<jit::CompileManager> Jit;
  double JitS = T.time("jit.compile", I, [&] {
    Jit.emplace(*W->Heap, CMO);
    for (const workloads::CompileUnit &CU : W->CompileUnits)
      Jit->compile(CU.M, CU.Args);
  });
  L.JitS += JitS;
  L.Units += W->CompileUnits.size();
  L.JitTotalUs += Jit->totalJitUs();
  L.JitPrefetchUs += Jit->prefetchUs();
  const core::CodeGenStats CodeGen = Jit->aggregatePrefetch().CodeGen;
  L.Prefetches += CodeGen.Prefetches;
  L.SpecLoads += CodeGen.SpecLoads;

  sim::CountingSink Counted;
  trace::TraceBuffer Buf;
  exec::ExecStats Exec;
  uint64_t Ret = 0;
  L.InterpRecordS += T.time("exec.interp", I, [&] {
    trace::RecordingSink Rec(Counted, Buf);
    exec::Interpreter Interp(*W->Heap, Rec, &W->Roots);
    Interp.gc().setVariant(O.GcVariant, O.Config.Seed);
    if (O.Governor)
      Interp.enablePrefetchGovernance();
    Ret = Interp.run(W->Entry, W->EntryArgs);
    Exec = Interp.stats();
  });
  L.Retired += Exec.Retired;
  L.SinkCalls += Counted.totalCalls();
  L.Events += Buf.events();
  L.TraceBytes += Buf.byteSize();
  if (Ret != Live.ReturnValue)
    C.fail(I, Tag + ": traced return value differs from runPlan's");

  double TeardownS = T.time("vm.teardown", I, [&] {
    Jit.reset();
    W.reset();
  });
  L.TeardownS += TeardownS;

  sim::CountingSink Decoded, DecodedPerEvent;
  bool Ok = true;
  double DecodeS =
      T.time("trace.decode", I, [&] { Ok &= trace::replay(Buf, Decoded); });
  double DecodePerEventS = T.time("trace.decode_per_event", I, [&] {
    Ok &= trace::replayPerEvent(Buf, DecodedPerEvent);
  });
  L.DecodeS += DecodeS;
  L.DecodePerEventS += DecodePerEventS;
  L.ReencodeS += T.time("trace.reencode", I, [&] {
    sim::CountingSink Sink;
    trace::TraceBuffer Copy;
    {
      trace::RecordingSink Rec(Sink, Copy);
      Ok &= trace::replay(Buf, Rec);
    }
    Ok &= Copy.events() == Buf.events();
  });
  if (!Ok || !sameCounts(Decoded, Counted) ||
      !sameCounts(DecodedPerEvent, Counted))
    C.fail(I, Tag + ": trace decode or re-encode differs from the recording");

  uint64_t Cycles = 0, CyclesPerEvent = 0;
  sim::MemoryStats Stats, StatsPerEvent;
  L.BatchedS += T.time("sim.model_batched", I, [&] {
    sim::MemorySystem Mem(O.Machine);
    if (O.Governor)
      Mem.enablePrefetchHealth();
    Ok &= trace::replay(Buf, Mem);
    Cycles = Mem.cycles();
    Stats = Mem.stats();
  });
  L.PerEventS += T.time("sim.model_per_event", I, [&] {
    sim::MemorySystem Mem(O.Machine);
    if (O.Governor)
      Mem.enablePrefetchHealth();
    Ok &= trace::replayPerEvent(Buf, Mem);
    CyclesPerEvent = Mem.cycles();
    StatsPerEvent = Mem.stats();
  });
  if (!Ok || Cycles != CyclesPerEvent || !(Stats == StatsPerEvent))
    C.fail(I, Tag + ": batched and per-event model replays differ");
  // Replay equals live: a single-epoch ungoverned cell's replayed cycles
  // and MemoryStats must be the untraced run's, whether that cell was
  // interpreted or itself replayed from the trace cache. Its per-layer
  // counts must repeat the untraced run's too. (sim.events repeats by the
  // chain above: the recording decodes to its own counts, and its replay
  // reproduces the untraced MemoryStats.)
  if (O.Epochs == 1 && !O.Governor) {
    if (Exec.Retired != Live.Retired)
      C.fail(I, Tag + ": traced retired count differs from runPlan's");
    if (CodeGen.Prefetches != Live.Prefetch.CodeGen.Prefetches ||
        CodeGen.SpecLoads != Live.Prefetch.CodeGen.SpecLoads)
      C.fail(I, Tag + ": traced prefetch/spec-load counts differ from "
                      "runPlan's");
    if (Cycles != Live.CompiledCycles || !(Stats == Live.Mem))
      C.fail(I, Tag + ": replayed cycles/MemoryStats differ from runPlan's");
  }

  if (O.Epochs > 1) {
    workloads::RunResult Whole;
    double RunS = T.time("runner.run_workload", I, [&] {
      Whole = workloads::runWorkload(*Cell.Spec, O);
    });
    L.EpochsS += RunS - BuildS - JitS - TeardownS;
    if (Whole.ReturnValue != Live.ReturnValue ||
        Whole.CompiledCycles != Live.CompiledCycles ||
        !(Whole.Mem == Live.Mem) || Whole.Retired != Live.Retired ||
        Whole.Prefetch.CodeGen.Prefetches !=
            Live.Prefetch.CodeGen.Prefetches ||
        Whole.Prefetch.CodeGen.SpecLoads != Live.Prefetch.CodeGen.SpecLoads)
      C.fail(I, Tag + ": runWorkload differs from runPlan's cell");
  }
  T.end(CellSpan);
}

/// Layer-sum self-test: each cell's child spans must cover its wall
/// within the slack (the glue between spans is constructing sinks).
void checkLayerSum(const Tracer &T, Checks &C, double &WorstGapShare) {
  const auto &Spans = T.spans();
  std::vector<double> Covered(Spans.size(), 0.0);
  for (const Tracer::Span &S : Spans)
    if (S.Parent >= 0)
      Covered[S.Parent] += S.seconds();
  WorstGapShare = 0;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Tracer::Span &S = Spans[I];
    if (S.Name != "cell")
      continue;
    double Gap = S.seconds() - Covered[I];
    WorstGapShare = std::max(WorstGapShare, Gap / S.seconds());
    const double SlackS = std::max(0.002, 0.02 * S.seconds());
    if (Gap < 0 || Gap > SlackS) {
      char Buf[128];
      std::snprintf(Buf, sizeof(Buf),
                    "layer spans cover %.6f s of a %.6f s cell wall",
                    Covered[I], S.seconds());
      C.fail(static_cast<int>(S.Cell), Buf);
    }
  }
}

// -- Output ------------------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, double>>;

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const Metrics &Values) {
  std::string J = "{\"correct\": ";
  J += Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Attempted);
  J += ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Value] : Values) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  First ? "" : ", ", Name.c_str(), Value,
                  findMetric(Name)->Unit);
    J += Buf;
    First = false;
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
}

void printMetric(const std::string &Name, double Value, const char *Note) {
  const MetricDef *M = findMetric(Name);
  std::printf("  %-28s %16.6f %-9s %s\n", Name.c_str(), Value,
              M ? M->Unit : "", Note);
}

/// The traced pass over every cell of \p Plan (\p R is the untraced run
/// of it): prints and returns the per-layer metrics.
Metrics tracedPass(const harness::ExperimentPlan &Plan,
                   const harness::ExperimentResult &R, double UntracedWall,
                   const std::string &SpansOut, Checks &C) {
  Tracer T;
  LayerTotals L;
  auto Start = Clock::now();
  for (unsigned I = 0; I != Plan.size(); ++I)
    traceCell(Plan.cells()[I], I, R.run(I), T, L, C);
  double TracedWall = secondsSince(Start);
  double WorstGap = 0;
  checkLayerSum(T, C, WorstGap);
  if (!SpansOut.empty()) {
    std::ofstream Out(SpansOut);
    T.write(Out);
    if (!Out)
      C.fail(-1, "cannot write spans to " + SpansOut);
  }

  uint64_t Live = 0, Replayed = 0, Gcs = 0, Reinspections = 0;
  for (const harness::CellResult &CR : R.Cells) {
    (CR.Run.Replayed ? Replayed : Live) += 1;
    Gcs += CR.Run.GcCollections;
    Reinspections += CR.Run.GovernorReinspections;
  }
  uint64_t Lookups = R.Trace.Hits + R.Trace.Misses;
  double RecordS = L.ReencodeS - L.DecodeS;
  double InterpS = L.InterpRecordS - RecordS;
  double BatchedS = L.BatchedS - L.DecodeS;
  auto Ratio = [](double N, double D) { return D > 0 ? N / D : 0.0; };
  Metrics M = {
      {"workloads.build_s", L.BuildS},
      {"workloads.build_minflt", double(L.BuildMinflt)},
      {"vm.teardown_s", L.TeardownS},
      {"jit.compile_s", L.JitS},
      {"jit.units", double(L.Units)},
      {"jit.prefetch_share", Ratio(L.JitPrefetchUs, L.JitTotalUs)},
      {"core.prefetches_emitted", double(L.Prefetches)},
      {"core.spec_loads_emitted", double(L.SpecLoads)},
      {"exec.interp_s", InterpS},
      {"exec.retired", double(L.Retired)},
      {"exec.mips", Ratio(double(L.Retired), InterpS) / 1e6},
      {"exec.sink_calls_per_instr",
       Ratio(double(L.SinkCalls), double(L.Retired))},
      {"trace.decode_s", L.DecodeS},
      {"trace.record_s", RecordS},
      {"trace.bytes_per_event",
       Ratio(double(L.TraceBytes), double(L.Events))},
      {"sim.model_batched_s", BatchedS},
      {"sim.model_per_event_s", L.PerEventS - L.DecodePerEventS},
      {"sim.ns_per_event", Ratio(BatchedS, double(L.Events)) * 1e9},
      {"sim.events", double(L.Events)},
      {"harness.cells_live", double(Live)},
      {"harness.cells_replayed", double(Replayed)},
      {"harness.trace_lookups", double(Lookups)},
      {"harness.trace_hit_ratio", Ratio(double(R.Trace.Hits),
                                        double(Lookups))},
      {"harness.trace_evictions", double(R.Trace.Evictions)},
      {"runner.epochs_s", L.EpochsS},
      {"vm.gc_collections", double(Gcs)},
      {"opt.governor_reinspections", double(Reinspections)},
      {"obs.trace_overhead_pct", (TracedWall / UntracedWall - 1.0) * 100.0},
  };
  std::printf("per-layer metrics (traced pass %.3f s, untraced %.3f s, "
              "worst cell gap %.2f%%):\n",
              TracedWall, UntracedWall, WorstGap * 100.0);
  for (const auto &[Name, Value] : M)
    printMetric(Name, Value, "");
  // Shares of the traced wall, to read the shape at a glance.
  std::printf("layer shares of the traced wall:\n");
  const std::pair<const char *, double> Shares[] = {
      {"workloads.build", L.BuildS},
      {"vm.teardown", L.TeardownS},
      {"jit.compile", L.JitS},
      {"exec.interp", InterpS},
      {"trace (decode x2 + record)", L.ReencodeS + L.DecodePerEventS},
      {"sim.model (both paths)", BatchedS + L.PerEventS - L.DecodePerEventS},
      {"runner.epochs", L.EpochsS},
  };
  for (const auto &[Name, Secs] : Shares)
    std::printf("  %-28s %6.1f%%\n", Name, 100.0 * Secs / TracedWall);
  return M;
}


// -- Command line ------------------------------------------------------------

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  unsigned Seconds = 0;
  int Trace = -1;
  bool SetupOnly = false;
  std::string SpansOut;
};

[[noreturn]] void usageError(const std::string &Msg) {
  std::fprintf(stderr, "hostbench: %s (see --help)\n", Msg.c_str());
  std::exit(2);
}

bool parseUnsigned(const std::string &S, uint64_t Max, uint64_t &Out) {
  if (S.empty() || S.size() > 20 ||
      !std::all_of(S.begin(), S.end(), [](char Ch) {
        return Ch >= '0' && Ch <= '9';
      }))
    return false;
  errno = 0;
  unsigned long long V = std::strtoull(S.c_str(), nullptr, 10);
  if (errno == ERANGE || V > Max)
    return false;
  Out = V;
  return true;
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--help" || Flag == "-h") {
      printHelp();
      std::exit(0);
    }
    if (Flag == "--setup-only") {
      A.SetupOnly = true;
      continue;
    }
    std::string Value;
    size_t Eq = Flag.find('=');
    if (Flag.rfind("--", 0) == 0 && Eq != std::string::npos) {
      Value = Flag.substr(Eq + 1);
      Flag = Flag.substr(0, Eq);
    } else if (I + 1 < Argc) {
      Value = Argv[++I];
    } else {
      usageError("missing value or unknown flag '" + Flag + "'");
    }
    uint64_t N = 0;
    if (Flag == "--workload") {
      bool Known = false;
      for (const WorkloadDef &W : Workloads)
        Known |= Value == W.Name;
      if (!Known)
        usageError("unknown workload '" + Value + "'");
      A.Workload = Value;
    } else if (Flag == "--seed") {
      if (!parseUnsigned(Value, 0xffffffffull, N))
        usageError("--seed wants an integer in 0..4294967295, got '" +
                   Value + "'");
      A.Seed = N;
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!parseUnsigned(Value, 60, N) || N == 0)
        usageError("--seconds wants an integer in 1..60, got '" + Value +
                   "'");
      A.Seconds = static_cast<unsigned>(N);
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usageError("--trace wants 0 or 1, got '" + Value + "'");
      A.Trace = Value == "1";
    } else if (Flag == "--spans-out") {
      A.SpansOut = Value;
    } else {
      usageError("unknown flag '" + Flag + "'");
    }
  }
  if (A.Workload.empty() || !HaveSeed || A.Seconds == 0 || A.Trace < 0)
    usageError("--workload, --seed, --seconds and --trace are required");
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  // Observability off and no fault injection, whatever the caller's
  // environment says; both are read on first use.
  setenv("SPF_OBS", "0", 1);
  unsetenv("SPF_FAULTS");
  unsetenv("SPF_CELL_TIMEOUT");

  // Set-up: everything the program needs before the plan runs. setup_s
  // spans process start to here, first-call costs (the workload
  // registry's static, say) included.
  const Setup S = setUp(A.Workload, A.Seed);
  const harness::ExperimentPlan &Plan = S.Plan;
  const uint64_t SetupEndNs = monotonicNs();
  if (A.SetupOnly) {
    std::printf("setup-end-ns: %llu\n",
                static_cast<unsigned long long>(SetupEndNs));
    return 0;
  }
  Checks C;

  // Untraced runs: repeated while the next one is expected to fit the
  // budget (at least one; a plan longer than half the budget runs once,
  // cold, as in a sweep).
  std::vector<double> Walls;
  std::optional<harness::ExperimentResult> First;
  std::string FirstDigest;
  double Spent = 0;
  const unsigned MaxReps = A.Trace ? 1 : 1000;
  do {
    auto Start = Clock::now();
    harness::ExperimentResult R = harness::runPlan(Plan, 1, S.Opts);
    double Wall = secondsSince(Start);
    Walls.push_back(Wall);
    Spent += Wall;
    checkResult(Plan, R, C);
    std::string D = digestOf(R);
    if (!First) {
      First.emplace(std::move(R));
      FirstDigest = D;
    } else if (D != FirstDigest) {
      C.fail(-1, "simulated statistics differ between repetitions");
    }
  } while (Walls.size() < MaxReps && Spent + median(Walls) <= A.Seconds);
  const harness::ExperimentResult &R = *First;
  const uint64_t CellsRun = Plan.size() * Walls.size();

  std::printf("hostbench: workload=%s seed=%llu cells=%zu reps=%zu "
              "mode=%s\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              Plan.size(), Walls.size(), A.Trace ? "traced" : "end-to-end");
  std::printf("setup-end-ns: %llu\n",
              static_cast<unsigned long long>(SetupEndNs));

  // Expected data: the default seed pins the digest and paper_err_pp.
  Expected Exp;
  std::string ExpErr;
  if (!readExpected(HOSTBENCH_EXPECTED, Exp, ExpErr)) {
    std::fprintf(stderr, "hostbench: %s\n", ExpErr.c_str());
    return 1;
  }
  const bool DefaultSeed = A.Seed == *Exp.DefaultSeed;
  std::optional<double> PaperErr = paperErrPp(Plan, R, Exp, C);
  if (DefaultSeed) {
    auto D = Exp.Digest.find(A.Workload);
    if (D == Exp.Digest.end())
      C.fail(-1, "no expected digest for " + A.Workload);
    else if (D->second != FirstDigest)
      C.fail(-1, "digest " + FirstDigest + " != expected " + D->second);
    auto P = Exp.PaperErr.find(A.Workload);
    if (PaperErr.has_value() != (P != Exp.PaperErr.end()))
      C.fail(-1, "paper_err_pp presence differs from the expected data");
    else if (PaperErr && exactDouble(*PaperErr) != P->second)
      C.fail(-1, "paper_err_pp " + exactDouble(*PaperErr) + " != expected " +
                     P->second);
  }

  uint64_t Retired = 0;
  for (const harness::CellResult &CR : R.Cells)
    Retired += CR.Run.Retired;

  Metrics Values;
  uint64_t Attempted = CellsRun;
  if (!A.Trace) {
    double Wall = median(Walls);
    Values = {{"wall_s", Wall},
               {"sim_mips", static_cast<double>(Retired) / Wall / 1e6},
               {"peak_rss_mb", peakRssMb()}};
    std::printf("end-to-end metrics (%zu runPlan call(s) at jobs=1, "
                "walls:",
                Walls.size());
    for (double W : Walls)
      std::printf(" %.3f", W);
    std::printf(" s):\n");
    for (const auto &[Name, Value] : Values)
      printMetric(Name, Value, "");
    char Note[96];
    std::snprintf(Note, sizeof(Note), "(%u of %llu cells)", C.failedCells(),
                  static_cast<unsigned long long>(CellsRun));
    printMetric("failed_share",
                static_cast<double>(C.failedCells()) / CellsRun, Note);
    if (PaperErr)
      printMetric("paper_err_pp", *PaperErr, "(simulated, deterministic)");
    else
      std::printf("  %-28s %16s %-9s (no paper reference cells)\n",
                  "paper_err_pp", "n/a", "pp");
  } else {
    Values = tracedPass(Plan, R, Walls[0], A.SpansOut, C);
    Attempted += Plan.size();
  }
  if (PaperErr && DefaultSeed)
    std::printf("paper_err_pp exact: %s\n", exactDouble(*PaperErr).c_str());
  std::printf("digest: %s (%s)\n", FirstDigest.c_str(),
              DefaultSeed ? "checked against the expected data"
                          : "not checked: not the default seed");
  C.print();
  bool Correct = C.ByCell.empty();
  printResult(Correct, Attempted, C.failedUnits(), Values);
  return Correct ? 0 : 1;
}
