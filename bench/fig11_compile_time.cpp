//===- bench/fig11_compile_time.cpp - Figure 11 ---------------------------===//
///
/// Reproduces Figure 11: "Compilation time for prefetching and total JIT
/// compilation time". Left column: additional compilation time of the
/// prefetching algorithm (INTER+INTRA) as a percentage of the total JIT
/// compilation time — the paper measures < 3.0% everywhere. Right column:
/// total JIT compilation time as a fraction of total execution time
/// (paper: < 13%); here the execution side is the simulated cycle count
/// converted at the Pentium 4's 2 GHz, so the ratio is a modeled value.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace spf;
using namespace spf::bench;

int main(int argc, char **argv) {
  init(argc, argv);
  std::printf(
      "Figure 11: prefetch compile time / total JIT time (scale=%.2f)\n",
      scaleFromEnv());
  std::printf("%-12s %14s %16s %10s %12s\n", "benchmark",
              "prefetch/JIT", "JIT/total-exec", "JIT (ms)", "exec (ms)");
  std::printf("%-12s %14s %16s %10s %12s\n", "---------", "------------",
              "--------------", "--------", "---------");
  std::printf("(exec is simulated time at 2 GHz; our problem sizes are\n"
              " ~100x smaller than the 2003 originals, so the right-hand\n"
              " ratio overstates the paper's <13%% JIT share)\n");

  // Compile-time measurements are wall-clock and jittery; take the best
  // of a few compilations, as the paper takes best run times. (With
  // --jobs > 1, concurrent cells can inflate individual wall-clock
  // timings; best-of-N absorbs that, but use --jobs 1 for the recorded
  // EXPERIMENTS.md numbers.)
  const unsigned Repeats = 5;
  harness::ExperimentPlan Plan;
  for (const workloads::WorkloadSpec &Spec : workloads::allWorkloads()) {
    for (unsigned R = 0; R != Repeats; ++R) {
      harness::ExperimentCell Cell;
      Cell.Group = "fig11";
      Cell.Spec = &Spec;
      Cell.Opt.Machine = sim::MachineConfig::pentium4();
      Cell.Opt.Algo = workloads::Algorithm::InterIntra;
      Cell.Opt.Config = benchConfig();
      Plan.add(std::move(Cell));
    }
  }
  harness::ExperimentResult Result = runPlanCli(Plan);
  reportPlanFailures(Result);

  unsigned I = 0;
  for (const workloads::WorkloadSpec &Spec : workloads::allWorkloads()) {
    double BestRatio = 1e9;
    workloads::RunResult Last;
    for (unsigned R = 0; R != Repeats; ++R, ++I) {
      const workloads::RunResult &Res = Result.run(I);
      if (Res.JitTotalUs > 0) {
        double Ratio = Res.JitPrefetchUs / Res.JitTotalUs;
        if (Ratio < BestRatio) {
          BestRatio = Ratio;
          Last = Res;
        }
      }
    }
    // Simulated execution time at 2 GHz, under the mixed-mode model.
    double TotalCycles =
        workloads::totalTime(Last.CompiledCycles, Last.CompiledCycles,
                             Spec.CompiledFraction);
    double ExecUs = TotalCycles / 2000.0; // 2000 cycles per microsecond.
    double JitShare = Last.JitTotalUs / (Last.JitTotalUs + ExecUs) * 100.0;
    std::printf("%-12s %13.1f%% %15.1f%% %10.2f %12.2f\n",
                Spec.Name.c_str(), BestRatio * 100.0, JitShare,
                Last.JitTotalUs / 1000.0, ExecUs / 1000.0);
  }
  return exitCode();
}
