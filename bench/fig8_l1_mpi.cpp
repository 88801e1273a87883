//===- bench/fig8_l1_mpi.cpp - Figure 8 -----------------------------------===//
///
/// Reproduces Figure 8: "L1 cache load MPIs on the Pentium 4" — L1 load
/// miss events per retired instruction, BASELINE vs INTER+INTRA. Also
/// prints the retired-instruction increase, which the paper reports in
/// the same section (db +9.7%, RayTracer +6.9%, jess +2.2%, others < 2%).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace spf;
using namespace spf::bench;

int main(int argc, char **argv) {
  init(argc, argv);
  std::printf("Figure 8: L1 cache load MPIs on the Pentium 4 (scale=%.2f)\n",
              scaleFromEnv());
  std::printf("%-12s %10s %12s %10s\n", "benchmark", "BASELINE",
              "INTER+INTRA", "retired+");
  std::printf("%-12s %10s %12s %10s\n", "---------", "--------",
              "-----------", "--------");

  auto Rows = runAll(sim::MachineConfig::pentium4(), /*WithInter=*/false);
  for (const WorkloadRuns &Row : Rows) {
    double BaseMpi = workloads::perInstruction(Row.Base.Mem.L1LoadMisses,
                                               Row.Base.Retired);
    double OptMpi = workloads::perInstruction(Row.Intra.Mem.L1LoadMisses,
                                              Row.Intra.Retired);
    double RetiredIncrease =
        (static_cast<double>(Row.Intra.Retired) /
             static_cast<double>(Row.Base.Retired) -
         1.0) *
        100.0;
    std::printf("%-12s %10.5f %12.5f %9.1f%%\n", Row.Spec->Name.c_str(),
                BaseMpi, OptMpi, RetiredIncrease);
  }
  return exitCode();
}
