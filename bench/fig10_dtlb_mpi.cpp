//===- bench/fig10_dtlb_mpi.cpp - Figure 10 -------------------------------===//
///
/// Reproduces Figure 10: "DTLB load MPIs on the Pentium 4" — DTLB load
/// miss events per retired instruction, BASELINE vs INTER+INTRA.
///
/// Paper narrative: the algorithm greatly decreases the DTLB load MPIs of
/// RayTracer and db (via guarded-load TLB priming) and slightly decreases
/// jess's — "it suggests the importance of reducing the DTLB misses on
/// the Pentium 4."
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace spf;
using namespace spf::bench;

int main(int argc, char **argv) {
  init(argc, argv);
  std::printf("Figure 10: DTLB load MPIs on the Pentium 4 (scale=%.2f)\n",
              scaleFromEnv());
  std::printf("%-12s %10s %12s\n", "benchmark", "BASELINE", "INTER+INTRA");
  std::printf("%-12s %10s %12s\n", "---------", "--------", "-----------");

  auto Rows = runAll(sim::MachineConfig::pentium4(), /*WithInter=*/false);
  for (const WorkloadRuns &Row : Rows)
    std::printf("%-12s %10.5f %12.5f\n", Row.Spec->Name.c_str(),
                workloads::perInstruction(Row.Base.Mem.DtlbLoadMisses,
                                          Row.Base.Retired),
                workloads::perInstruction(Row.Intra.Mem.DtlbLoadMisses,
                                          Row.Intra.Retired));
  return exitCode();
}
