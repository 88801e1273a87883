//===- bench/sweep.cpp - The whole evaluation in one shared pool ----------===//
///
/// Runs every cell behind Figures 6-10 — 12 workloads x {BASELINE, INTER,
/// INTER+INTRA} x {Pentium 4, Athlon MP} — as one experiment plan on one
/// worker pool, prints the paper-style tables, and writes a
/// machine-readable JSON report (format: DESIGN.md, "JSON report").
///
/// --machine/--machine-file switch to a prefetch-source sweep
/// (none/sw/hw/combined per workload) on the selected machines, and
/// --throughput measures replay throughput instead of running the sweep.
///
/// `sweep --help` lists every flag (the rows in main() plus the shared
/// ones in BenchCommon.h) and the environment knobs. Exit status is 1
/// when any workload self-check fails or prefetching changes a result, 2
/// on bad configuration, and 3 when the sweep was interrupted (SIGTERM,
/// SIGINT, or --sweep-deadline) but wrote a valid partial report. The
/// hidden --inject-self-check-failure flag adds a deliberately failing
/// cell so CI can regression-test the nonzero-exit path.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <unistd.h>

using namespace spf;
using namespace spf::bench;
using namespace spf::workloads;

namespace {

/// The Table 3 workloads restricted to \p Csv (all of them when empty).
std::vector<const WorkloadSpec *> selectWorkloads(const std::string &Csv) {
  std::vector<const WorkloadSpec *> Specs;
  if (Csv.empty()) {
    for (const WorkloadSpec &S : allWorkloads())
      Specs.push_back(&S);
    return Specs;
  }
  std::stringstream SS(Csv);
  std::string Name;
  while (std::getline(SS, Name, ',')) {
    if (const WorkloadSpec *S = findWorkload(Name))
      Specs.push_back(S);
    else
      reportFailure("unknown workload '" + Name + "'");
  }
  return Specs;
}

/// Per-workload rows of one machine's block of the plan.
std::vector<WorkloadRuns>
collectBlock(const harness::ExperimentResult &Result,
             const std::vector<const WorkloadSpec *> &Specs,
             unsigned First) {
  std::vector<WorkloadRuns> Rows;
  unsigned I = First;
  for (const WorkloadSpec *Spec : Specs) {
    WorkloadRuns Row;
    Row.Spec = Spec;
    Row.Base = Result.run(I);
    Row.Inter = Result.run(I + 1);
    Row.Intra = Result.run(I + 2);
    Row.HasInter = true;
    Rows.push_back(std::move(Row));
    I += 3;
  }
  return Rows;
}

void printSpeedups(const char *Title,
                   const std::vector<WorkloadRuns> &Rows) {
  std::printf("\n%s\n", Title);
  std::printf("%-12s %10s %12s\n", "benchmark", "INTER", "INTER+INTRA");
  for (const WorkloadRuns &Row : Rows)
    std::printf("%-12s %9.1f%% %11.1f%%\n", Row.Spec->Name.c_str(),
                speedup(Row, Row.Inter), speedup(Row, Row.Intra));
}

/// Per-cell wall-clock accounting: which cells interpreted (and how
/// long), which replayed a recorded trace, plus a cache summary line.
void printCellTimings(const harness::ExperimentPlan &Plan,
                      const harness::ExperimentResult &Result) {
  std::printf("\nPer-cell wall clock (record-once / replay-many)\n");
  std::printf("%-12s %-9s %-12s %12s %12s\n", "benchmark", "machine",
              "algorithm", "interpret_us", "replay_us");
  for (unsigned I = 0, E = static_cast<unsigned>(Plan.size()); I != E;
       ++I) {
    const harness::ExperimentCell &C = Plan.cells()[I];
    const workloads::RunResult &R = Result.run(I);
    if (!Result.Cells[I].Ran)
      continue;
    std::printf("%-12s %-9s %-12s %12.0f %12.0f%s\n", C.Spec->Name.c_str(),
                C.Opt.Machine.Name.c_str(),
                workloads::algorithmName(C.Opt.Algo), R.InterpretUs,
                R.ReplayUs, R.Replayed ? "  (replayed)" : "");
  }

  const harness::TraceCacheStats &T = Result.Trace;
  uint64_t Lookups = T.Hits + T.Misses;
  if (!Result.TraceEnabled) {
    std::printf("trace cache: disabled\n");
    return;
  }
  std::printf("trace cache: %llu/%llu hits (%.0f%%), %llu inserts, "
              "%llu evictions, %llu overflows, %llu spilled, "
              "%.1f/%.0f MB used\n",
              static_cast<unsigned long long>(T.Hits),
              static_cast<unsigned long long>(Lookups),
              Lookups ? 100.0 * static_cast<double>(T.Hits) /
                            static_cast<double>(Lookups)
                      : 0.0,
              static_cast<unsigned long long>(T.Inserts),
              static_cast<unsigned long long>(T.Evictions),
              static_cast<unsigned long long>(T.Overflows),
              static_cast<unsigned long long>(T.SpillStores),
              static_cast<double>(Result.TraceBytesInUse) / (1 << 20),
              static_cast<double>(Result.TraceBudgetBytes) / (1 << 20));
}

void printMpi(const char *Title, const std::vector<WorkloadRuns> &Rows,
              uint64_t sim::MemoryStats::*Counter) {
  std::printf("\n%s\n", Title);
  std::printf("%-12s %10s %12s\n", "benchmark", "BASELINE", "INTER+INTRA");
  for (const WorkloadRuns &Row : Rows)
    std::printf("%-12s %10.5f %12.5f\n", Row.Spec->Name.c_str(),
                perInstruction(Row.Base.Mem.*Counter, Row.Base.Retired),
                perInstruction(Row.Intra.Mem.*Counter, Row.Intra.Retired));
}

/// One machine's block of a prefetch-source sweep: cycles per mode, with
/// the speedup each prefetch source buys over the unprefetched baseline.
void printModeTable(const sim::MachineConfig &M,
                    const std::vector<const WorkloadSpec *> &Specs,
                    const std::vector<harness::PrefetchSources> &Modes,
                    const harness::ExperimentResult &Result,
                    unsigned First) {
  std::printf("\nPrefetch sources on %s (%u levels, hw prefetcher: %s, "
              "tlb: %s): cycles [speedup vs none]\n",
              M.Name.c_str(), M.numLevels(),
              sim::hwPrefetchKindName(M.HwPrefetch), sim::tlbWalkName(M.Walk));
  std::printf("%-12s", "benchmark");
  for (harness::PrefetchSources Mode : Modes)
    std::printf(" %18s", harness::prefetchSourcesName(Mode));
  std::printf("\n");
  unsigned I = First;
  for (const WorkloadSpec *Spec : Specs) {
    std::printf("%-12s", Spec->Name.c_str());
    uint64_t NoneCycles = 0;
    for (size_t K = 0; K != Modes.size(); ++K) {
      const RunResult &R = Result.run(I + static_cast<unsigned>(K));
      if (Modes[K] == harness::PrefetchSources::None)
        NoneCycles = R.CompiledCycles;
      if (NoneCycles && Modes[K] != harness::PrefetchSources::None &&
          R.CompiledCycles) {
        double Pct = 100.0 * (static_cast<double>(NoneCycles) /
                                  static_cast<double>(R.CompiledCycles) -
                              1.0);
        std::printf(" %11llu %+5.1f%%",
                    static_cast<unsigned long long>(R.CompiledCycles), Pct);
      } else {
        std::printf(" %11llu       ",
                    static_cast<unsigned long long>(R.CompiledCycles));
      }
    }
    std::printf("\n");
    I += static_cast<unsigned>(Modes.size());
  }
}

// ---------------------------------------------------------------------------
// --throughput: how fast is replay-many? (ROADMAP item 5's trajectory)
// ---------------------------------------------------------------------------

/// One recorded trace shared by every cell with its signature.
struct RecordedTrace {
  trace::TraceBuffer Buf;
  RunResult ExecSide;
};

/// One cell of the standard 12x3x2 plan, pointing at its trace.
struct ThroughputCell {
  RunOptions Opts;
  const RecordedTrace *Trace = nullptr;
  std::string Sig;
};

/// What one cell's replay must reproduce, bit for bit, in every mode.
struct CellReference {
  uint64_t Cycles = 0;
  sim::MemoryStats Mem;
  std::vector<sim::SiteStats> Sites;
};

struct ModeResult {
  uint64_t Passes = 0;
  double Seconds = 0;
  double CellsPerSec = 0;
  double EventsPerSec = 0;
};

/// Runs \p Pass (one full sweep over all cells) repeatedly until
/// \p MinSecs of wall clock have been measured, and converts to rates.
template <typename PassFn>
ModeResult measureMode(const char *Name, size_t Cells, uint64_t EventsPerPass,
                       double MinSecs, PassFn Pass) {
  std::string SpanName = std::string("throughput-") + Name;
  obs::Span Span(SpanName.c_str(), "bench");
  ModeResult R;
  auto Start = std::chrono::steady_clock::now();
  do {
    Pass();
    ++R.Passes;
    R.Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
  } while (R.Seconds < MinSecs);
  R.CellsPerSec =
      static_cast<double>(R.Passes * Cells) / R.Seconds;
  R.EventsPerSec =
      static_cast<double>(R.Passes * EventsPerPass) / R.Seconds;
  std::printf("  %-10s %6llu pass(es) %8.2f s %12.1f cells/s %14.3e events/s\n",
              Name, static_cast<unsigned long long>(R.Passes), R.Seconds,
              R.CellsPerSec, R.EventsPerSec);
  return R;
}

void writeModeJson(harness::JsonWriter &J, const char *Name,
                   const ModeResult &R) {
  J.key(Name);
  J.beginObject();
  J.key("passes").value(R.Passes);
  J.key("seconds").value(R.Seconds);
  J.key("cells_per_sec").value(R.CellsPerSec);
  J.key("events_per_sec").value(R.EventsPerSec);
  J.endObject();
}

/// Compares one replayed MemorySystem against the cell's reference.
bool matchesReference(const sim::MemorySystem &Mem, const CellReference &Ref) {
  return Mem.cycles() == Ref.Cycles && Mem.stats() == Ref.Mem &&
         Mem.siteStats() == Ref.Sites;
}

int runThroughput(const std::vector<const WorkloadSpec *> &Specs,
                  const std::string &JsonPath, double MinSecs) {
  const std::vector<Algorithm> Algos{
      Algorithm::Baseline, Algorithm::Inter, Algorithm::InterIntra};
  const std::vector<sim::MachineConfig> Machines{
      *sim::MachineConfig::byName("pentium4"),
      *sim::MachineConfig::byName("athlonmp")};

  // Phase 1: record one trace per unique execution signature (exactly
  // what the sweep's record-once path does), and spill them through a
  // private TraceCache directory for the spill-reload modes.
  std::string SpillDir =
      (std::filesystem::temp_directory_path() /
       ("spf-throughput-" + std::to_string(::getpid())))
          .string();
  std::map<std::string, std::unique_ptr<RecordedTrace>> Traces;
  std::vector<ThroughputCell> Cells;
  {
    obs::Span Span("throughput-record", "bench");
    harness::TraceCache Writer(0, SpillDir);
    for (const sim::MachineConfig &Machine : Machines)
      for (const WorkloadSpec *Spec : Specs)
        for (Algorithm Algo : Algos) {
          ThroughputCell Cell;
          Cell.Opts.Machine = Machine;
          Cell.Opts.Algo = Algo;
          Cell.Opts.Config = benchConfig();
          Cell.Sig = executionSignature(*Spec, Cell.Opts);
          auto It = Traces.find(Cell.Sig);
          if (It == Traces.end()) {
            auto T = std::make_unique<RecordedTrace>();
            Cell.Opts.Record = &T->Buf;
            T->ExecSide = runWorkload(*Spec, Cell.Opts);
            Cell.Opts.Record = nullptr;
            if (!T->ExecSide.SelfCheckOk)
              reportFailure("self-check failed recording " + Cell.Sig);
            Writer.insert(Cell.Sig, T->Buf, T->ExecSide);
            It = Traces.emplace(Cell.Sig, std::move(T)).first;
          }
          Cell.Trace = It->second.get();
          Cells.push_back(std::move(Cell));
        }
  }
  uint64_t EventsPerPass = 0;
  for (const ThroughputCell &C : Cells)
    EventsPerPass += C.Trace->Buf.events();
  std::printf("throughput: %zu cells, %zu unique traces, %llu events/pass, "
              "scale=%.2f\n",
              Cells.size(), Traces.size(),
              static_cast<unsigned long long>(EventsPerPass),
              scaleFromEnv());

  // Phase 2: per-cell references from per-event dispatch (the pre-
  // batching path), then prove every fast mode is bit-identical to it.
  std::vector<CellReference> Refs(Cells.size());
  for (size_t I = 0; I != Cells.size(); ++I) {
    sim::MemorySystem Mem(Cells[I].Opts.Machine);
    if (!trace::replayPerEvent(Cells[I].Trace->Buf, Mem))
      reportFailure("per-event replay decode error: " + Cells[I].Sig);
    Refs[I].Cycles = Mem.cycles();
    Refs[I].Mem = Mem.stats();
    Refs[I].Sites = Mem.siteStats();
  }
  for (size_t I = 0; I != Cells.size(); ++I) {
    sim::MemorySystem Mem(Cells[I].Opts.Machine);
    if (!trace::replay(Cells[I].Trace->Buf, Mem) ||
        !matchesReference(Mem, Refs[I]))
      reportFailure("batched replay diverges from per-event dispatch: " +
                    Cells[I].Sig);
  }
  for (bool UseMmap : {false, true}) {
    harness::TraceCache Cache(0, SpillDir, UseMmap);
    for (size_t I = 0; I != Cells.size(); ++I) {
      auto E = Cache.lookup(Cells[I].Sig);
      sim::MemorySystem Mem(Cells[I].Opts.Machine);
      if (!E || !trace::replay(E->Buf, Mem) || !matchesReference(Mem, Refs[I]))
        reportFailure(std::string("spill replay (") +
                      (UseMmap ? "mmap" : "read") +
                      ") diverges from per-event dispatch: " + Cells[I].Sig);
    }
  }

  // Phase 3: rates. per_event is the "before" column (one virtual sink
  // call and token-at-a-time decode per event); batched is the "after";
  // the spill modes add the per-process reload cost on top of batched
  // (heap copy vs zero-copy MAP_SHARED mmap).
  std::printf("replay throughput (min %.1f s per mode):\n", MinSecs);
  ModeResult PerEvent = measureMode(
      "per_event", Cells.size(), EventsPerPass, MinSecs, [&] {
        for (const ThroughputCell &C : Cells) {
          sim::MemorySystem Mem(C.Opts.Machine);
          trace::replayPerEvent(C.Trace->Buf, Mem);
        }
      });
  ModeResult Batched = measureMode(
      "batched", Cells.size(), EventsPerPass, MinSecs, [&] {
        for (const ThroughputCell &C : Cells) {
          sim::MemorySystem Mem(C.Opts.Machine);
          trace::replay(C.Trace->Buf, Mem);
        }
      });
  ModeResult SpillRead = measureMode(
      "spill_read", Cells.size(), EventsPerPass, MinSecs, [&] {
        harness::TraceCache Cache(0, SpillDir, /*UseMmap=*/false);
        for (const ThroughputCell &C : Cells) {
          auto E = Cache.lookup(C.Sig);
          sim::MemorySystem Mem(C.Opts.Machine);
          trace::replay(E->Buf, Mem);
        }
      });
  ModeResult SpillMmap = measureMode(
      "spill_mmap", Cells.size(), EventsPerPass, MinSecs, [&] {
        harness::TraceCache Cache(0, SpillDir, /*UseMmap=*/true);
        for (const ThroughputCell &C : Cells) {
          auto E = Cache.lookup(C.Sig);
          sim::MemorySystem Mem(C.Opts.Machine);
          trace::replay(E->Buf, Mem);
        }
      });

  double BatchedSpeedup =
      PerEvent.CellsPerSec > 0 ? Batched.CellsPerSec / PerEvent.CellsPerSec
                               : 0;
  double MmapSpeedup = SpillRead.CellsPerSec > 0
                           ? SpillMmap.CellsPerSec / SpillRead.CellsPerSec
                           : 0;
  std::printf("throughput: batched replay is %.2fx per-event dispatch; "
              "mmap spill reload is %.2fx heap-read reload\n",
              BatchedSpeedup, MmapSpeedup);
  if (obs::enabled()) {
    obs::stats()
        .counter("spf_throughput_events_replayed_total")
        .inc(EventsPerPass *
             (PerEvent.Passes + Batched.Passes + SpillRead.Passes +
              SpillMmap.Passes));
  }

  if (!JsonPath.empty()) {
    std::ofstream OS(JsonPath, std::ios::trunc);
    if (!OS) {
      reportFailure("cannot write throughput JSON to " + JsonPath);
    } else {
      harness::JsonWriter J(OS);
      J.beginObject();
      J.key("schema").value("spf-bench-throughput-v1");
      J.key("scale").value(scaleFromEnv());
      J.key("cells").value(static_cast<uint64_t>(Cells.size()));
      J.key("unique_traces").value(static_cast<uint64_t>(Traces.size()));
      J.key("events_per_pass").value(EventsPerPass);
      J.key("modes");
      J.beginObject();
      writeModeJson(J, "per_event", PerEvent);
      writeModeJson(J, "batched", Batched);
      writeModeJson(J, "spill_read", SpillRead);
      writeModeJson(J, "spill_mmap", SpillMmap);
      J.endObject();
      J.key("speedup");
      J.beginObject();
      J.key("batched_vs_per_event").value(BatchedSpeedup);
      J.key("spill_mmap_vs_read").value(MmapSpeedup);
      J.endObject();
      J.endObject();
      OS << '\n';
      std::printf("throughput JSON: %s\n", JsonPath.c_str());
    }
  }

  std::error_code EC;
  std::filesystem::remove_all(SpillDir, EC);
  return exitCode();
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = "sweep_report.json";
  std::string WorkloadCsv;
  bool InjectFailure = false;
  bool Throughput = false;
  std::string ThroughputJson = "BENCH_sweep_throughput.json";
  double ThroughputSecs = 1.0;
  MachineFlags MachineSel;
  AdaptationKnobs Adapt;
  init(argc, argv,
       {{{"--json", "FILE",
          "report path, \"-\" for stdout (default: sweep_report.json)",
          support::setString(JsonPath)},
         {"--workloads", "CSV", "restrict to these Table 3 workloads",
          support::setString(WorkloadCsv)},
         {"--throughput", nullptr,
          "measure replay throughput instead of running the sweep",
          support::setBool(Throughput)},
         {"--throughput-json", "FILE",
          "throughput result path (default: BENCH_sweep_throughput.json)",
          support::setString(ThroughputJson)},
         {"--throughput-secs", "S",
          "minimum measured seconds per throughput mode; 0 = 1 (default 1)",
          support::setDouble(ThroughputSecs)},
         {"--inject-self-check-failure", nullptr, "",
          support::setBool(InjectFailure), nullptr, false, true}},
        MachineSel.flags(), Adapt.flags()});
  unsigned Jobs = cli().Jobs;

  // --machine/--machine-file select machines for a prefetch-source sweep
  // (none/sw/hw/combined per workload); without a machine selection the
  // classic Pentium4+AthlonMP algorithm sweep runs. --hw-prefetch
  // overrides every planned machine's hardware prefetcher kind.
  const bool ModeSweep = !MachineSel.Selected.empty();
  std::vector<sim::MachineConfig> Machines = MachineSel.Selected;
  if (!ModeSweep)
    Machines = {sim::MachineConfig::pentium4(),
                sim::MachineConfig::athlonMP()};
  if (MachineSel.HwPrefetch)
    for (sim::MachineConfig &M : Machines)
      M.HwPrefetch = *MachineSel.HwPrefetch;

  std::vector<const WorkloadSpec *> Specs = selectWorkloads(WorkloadCsv);
  if (Specs.empty()) {
    reportFailure("no workloads selected");
    return exitCode();
  }

  if (Throughput)
    return runThroughput(Specs, ThroughputJson,
                         ThroughputSecs > 0 ? ThroughputSecs : 1.0);

  // Deliberately failing cell (regression coverage for the nonzero-exit
  // contract): jess with its expected return value corrupted. Must
  // outlive the plan, which stores the spec by pointer.
  WorkloadSpec Injected;
  if (InjectFailure) {
    Injected = *findWorkload("jess");
    Injected.Name = "jess<injected>";
    std::function<BuiltWorkload(const WorkloadConfig &)> Orig =
        Injected.Build;
    Injected.Build = [Orig](const WorkloadConfig &Cfg) {
      BuiltWorkload W = Orig(Cfg);
      W.Expected = W.Expected ? *W.Expected + 1 : 1;
      return W;
    };
  }

  harness::ExperimentPlan Plan;
  const std::vector<Algorithm> Algos{
      Algorithm::Baseline, Algorithm::Inter, Algorithm::InterIntra};
  const std::vector<harness::PrefetchSources> Modes{
      harness::PrefetchSources::None, harness::PrefetchSources::SwOnly,
      harness::PrefetchSources::HwOnly, harness::PrefetchSources::Combined};
  std::vector<unsigned> P4Cells, AthlonCells;
  std::vector<unsigned> MachineFirstCell;
  if (ModeSweep) {
    for (const sim::MachineConfig &M : Machines)
      MachineFirstCell.push_back(
          Plan.addModeSweep(Specs, Modes, {M}, benchConfig(),
                            "machine:" + M.Name)
              .front());
  } else {
    P4Cells = Plan.addSweep(Specs, Algos, {Machines[0]}, benchConfig(), "p4");
    AthlonCells =
        Plan.addSweep(Specs, Algos, {Machines[1]}, benchConfig(), "athlon");
  }
  if (InjectFailure) {
    harness::ExperimentCell Cell;
    Cell.Group = "injected";
    Cell.Spec = &Injected;
    Cell.Opt.Config = benchConfig();
    Cell.Opt.Config.Scale = std::min(Cell.Opt.Config.Scale, 0.05);
    Cell.Opt.Algo = Algorithm::Baseline;
    Plan.add(std::move(Cell));
  }

  // --epochs/--gc-variant/--governor/--phase-change season every planned
  // cell; with all four at their defaults this is a no-op and the sweep
  // is byte-identical to the classic single-epoch run.
  for (harness::ExperimentCell &C : Plan.cells()) {
    Adapt.applyTo(C.Opt);
    // --timeline-every N / SPF_TIMELINE: sample the cycle attribution
    // in every cell (0, the default, keeps the report byte-identical).
    C.Opt.TimelineEvery = cli().TimelineEvery;
  }
  if (Adapt.Epochs > 1 || Adapt.Governor)
    std::printf("sweep: epochs=%u gc-variant=%s governor=%s%s\n",
                Adapt.Epochs, vm::gcVariantName(Adapt.GcVariant),
                Adapt.Governor ? "on" : "off",
                Adapt.PhaseChange ? " phase-change" : "");

  if (ModeSweep)
    std::printf("sweep: %zu cells (%zu workloads x %zu prefetch modes x "
                "%zu machine(s)) on %u worker(s), scale=%.2f\n",
                Plan.size(), Specs.size(), Modes.size(), Machines.size(),
                Jobs, scaleFromEnv());
  else
    std::printf("sweep: %zu cells (%zu workloads x %zu algorithms x 2 "
                "machines) on %u worker(s), scale=%.2f\n",
                Plan.size(), Specs.size(), Algos.size(), Jobs,
                scaleFromEnv());

  auto Start = std::chrono::steady_clock::now();
  harness::ExperimentResult Result = runPlanCli(Plan);
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    Start)
          .count();
  reportPlanFailures(Result);

  if (!Result.JournalPath.empty())
    std::printf("journal: %s — %u cell(s) grafted from a previous run, "
                "%u appended\n",
                Result.JournalPath.c_str(), Result.JournalGrafted,
                Result.JournalAppended);

  // Chaos-run visibility: cells that needed retries or never produced a
  // result. Transient quarantines are not failures (the harness's fault
  // containment working as intended), but they must never be silent.
  if (!Result.Quarantine.empty()) {
    std::printf("\nquarantine: %zu cell(s)\n", Result.Quarantine.size());
    for (const harness::QuarantineRecord &Q : Result.Quarantine) {
      std::printf("  [%u] %-40s %-8s attempts=%u", Q.CellIndex,
                  Q.Tag.c_str(), Q.Kind.c_str(), Q.Attempts);
      if (Q.Signal)
        std::printf(" signal=%d", Q.Signal);
      else if (Q.ExitStatus > 0)
        std::printf(" exit=%d", Q.ExitStatus);
      if (!Q.Error.empty())
        std::printf(" — %s", Q.Error.c_str());
      std::printf("\n");
    }
  }

  if (ModeSweep) {
    for (size_t K = 0; K != Machines.size(); ++K)
      printModeTable(Machines[K], Specs, Modes, Result, MachineFirstCell[K]);
  } else {
    std::vector<WorkloadRuns> P4Rows =
        collectBlock(Result, Specs, P4Cells.front());
    std::vector<WorkloadRuns> AthlonRows =
        collectBlock(Result, Specs, AthlonCells.front());

    printSpeedups("Figure 6: speedup ratios on the Pentium 4", P4Rows);
    printSpeedups("Figure 7: speedup ratios on the Athlon MP", AthlonRows);
    printMpi("Figure 8: L1 cache load MPIs on the Pentium 4", P4Rows,
             &sim::MemoryStats::L1LoadMisses);
    printMpi("Figure 9: L2 cache load MPIs on the Pentium 4", P4Rows,
             &sim::MemoryStats::L2LoadMisses);
    printMpi("Figure 10: DTLB load MPIs on the Pentium 4", P4Rows,
             &sim::MemoryStats::DtlbLoadMisses);
  }

  printCellTimings(Plan, Result);

  if (!writeReportTo(JsonPath, Plan, Result, scaleFromEnv(), Jobs))
    reportFailure("cannot write JSON report to " + JsonPath);
  else if (JsonPath != "-")
    std::printf("\nJSON report: %s\n", JsonPath.c_str());

  if (Result.Interrupted)
    std::printf("sweep: interrupted (%s) — %u of %zu cell(s) skipped; the "
                "report above is a valid partial result\n",
                Result.InterruptReason.c_str(), Result.CellsSkipped,
                Plan.size());
  std::printf("sweep: %zu cells in %.1f s on %u worker(s)%s\n",
              Plan.size(), Seconds, Jobs,
              failureCount() ? " — FAILURES (see stderr)" : ", all checks ok");
  return exitCode();
}
