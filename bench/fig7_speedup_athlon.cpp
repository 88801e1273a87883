//===- bench/fig7_speedup_athlon.cpp - Figure 7 ---------------------------===//
///
/// Reproduces Figure 7: "Speedup ratios on the Athlon MP".
///
/// Paper reference points (Athlon): db +25.1% (INTER ~0), Euler +14.0%
/// (both), jess +2.9%, MolDyn small positive for both, RayTracer slightly
/// degraded by INTER+INTRA, compress/javac/Search ~0.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace spf;
using namespace spf::bench;

int main(int argc, char **argv) {
  init(argc, argv);
  std::printf("Figure 7: speedup ratios on the Athlon MP (scale=%.2f)\n",
              scaleFromEnv());
  std::printf("%-12s %10s %12s\n", "benchmark", "INTER", "INTER+INTRA");
  std::printf("%-12s %10s %12s\n", "---------", "-----", "-----------");

  auto Rows = runAll(sim::MachineConfig::athlonMP(), /*WithInter=*/true);
  for (const WorkloadRuns &Row : Rows)
    std::printf("%-12s %9.1f%% %11.1f%%\n", Row.Spec->Name.c_str(),
                speedup(Row, Row.Inter), speedup(Row, Row.Intra));
  return exitCode();
}
