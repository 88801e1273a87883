//===- bench/fig9_l2_mpi.cpp - Figure 9 -----------------------------------===//
///
/// Reproduces Figure 9: "L2 cache load MPIs on the Pentium 4" — L2 load
/// miss events per retired instruction, BASELINE vs INTER+INTRA.
///
/// Paper narrative: the algorithm greatly decreases RayTracer's L2 MPI
/// and also decreases db's, Euler's, and mtrt's.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace spf;
using namespace spf::bench;

int main(int argc, char **argv) {
  init(argc, argv);
  std::printf("Figure 9: L2 cache load MPIs on the Pentium 4 (scale=%.2f)\n",
              scaleFromEnv());
  std::printf("%-12s %10s %12s\n", "benchmark", "BASELINE", "INTER+INTRA");
  std::printf("%-12s %10s %12s\n", "---------", "--------", "-----------");

  auto Rows = runAll(sim::MachineConfig::pentium4(), /*WithInter=*/false);
  for (const WorkloadRuns &Row : Rows)
    std::printf("%-12s %10.5f %12.5f\n", Row.Spec->Name.c_str(),
                workloads::perInstruction(Row.Base.Mem.L2LoadMisses,
                                          Row.Base.Retired),
                workloads::perInstruction(Row.Intra.Mem.L2LoadMisses,
                                          Row.Intra.Retired));
  return exitCode();
}
