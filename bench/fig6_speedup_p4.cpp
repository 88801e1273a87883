//===- bench/fig6_speedup_p4.cpp - Figure 6 -------------------------------===//
///
/// Reproduces Figure 6: "Speedup ratios on the Pentium 4" — the percentage
/// speedup of INTER and INTER+INTRA over the no-prefetching baseline for
/// the 12 benchmarks, under the mixed-mode total-time model.
///
/// Paper reference points (P4): db +18.9% (INTER ~0), Euler +15.4% (both),
/// jess +2.0%, RayTracer positive for INTER+INTRA, mpegaudio slightly
/// negative, compress/javac/Search ~0.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace spf;
using namespace spf::bench;

int main(int argc, char **argv) {
  init(argc, argv);
  std::printf("Figure 6: speedup ratios on the Pentium 4 (scale=%.2f)\n",
              scaleFromEnv());
  std::printf("%-12s %10s %12s\n", "benchmark", "INTER", "INTER+INTRA");
  std::printf("%-12s %10s %12s\n", "---------", "-----", "-----------");

  auto Rows = runAll(sim::MachineConfig::pentium4(), /*WithInter=*/true);
  for (const WorkloadRuns &Row : Rows)
    std::printf("%-12s %9.1f%% %11.1f%%\n", Row.Spec->Name.c_str(),
                speedup(Row, Row.Inter), speedup(Row, Row.Intra));
  return exitCode();
}
