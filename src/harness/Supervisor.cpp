//===- harness/Supervisor.cpp ---------------------------------------------===//

#include "harness/Supervisor.h"

#include "harness/Journal.h"
#include "harness/JsonWriter.h"
#include "harness/Subprocess.h"
#include "obs/Tracer.h"
#include "support/Env.h"
#include "support/FaultInjection.h"
#include "support/Process.h"
#include "support/Status.h"

#include <cstdlib>
#include <sstream>

using namespace spf;
using namespace spf::harness;

double harness::cellTimeoutSeconds() {
  return support::envDouble("SPF_CELL_TIMEOUT", 0.0, 0.0);
}

uint64_t harness::cellMemMbFromEnv() {
  return support::envU64("SPF_CELL_MEM_MB", 0);
}

support::FlagTable harness::workerFlags(std::optional<WorkerRequest> &Req) {
  auto Engage = [&Req]() -> WorkerRequest & {
    return Req ? *Req : Req.emplace();
  };
  auto RunCell = [Engage](const std::string &V) -> std::string {
    const size_t Colon = V.find(':');
    if (Colon == std::string::npos)
      return "expected PLANSEQ:CELL";
    WorkerRequest &R = Engage();
    std::string Why = support::setUInt(R.PlanSeq)(V.substr(0, Colon));
    return Why.empty() ? support::setUInt(R.Cell)(V.substr(Colon + 1)) : Why;
  };
  auto Attempt = [Engage](const std::string &V) {
    return support::setUInt(Engage().Attempt)(V);
  };
  auto ResultFd = [Engage](const std::string &V) {
    return support::setUInt(Engage().ResultFd)(V);
  };
  return {{"--run-cell", "PLANSEQ:CELL", "", RunCell, nullptr, false, true},
          {"--cell-attempt", "N", "", Attempt, nullptr, false, true},
          {"--result-fd", "FD", "", ResultFd, nullptr, false, true}};
}

std::vector<std::string> harness::workerArgv(const std::string &SelfPath,
                                             int Argc, char **Argv,
                                             unsigned PlanSeq, unsigned Cell,
                                             unsigned Attempt) {
  std::vector<std::string> Out;
  Out.reserve(static_cast<size_t>(Argc) + 6);
  Out.push_back(SelfPath);
  for (int I = 1; I < Argc; ++I)
    Out.push_back(Argv[I]);
  Out.push_back("--run-cell");
  Out.push_back(std::to_string(PlanSeq) + ":" + std::to_string(Cell));
  Out.push_back("--cell-attempt");
  Out.push_back(std::to_string(Attempt));
  Out.push_back("--result-fd");
  Out.push_back(std::to_string(WorkerResultFd));
  return Out;
}

void harness::runCellWorker(const ExperimentPlan &Plan,
                            const WorkerRequest &Req,
                            const TraceOptions &Trace) {
  CellResult Cell;
  obs::Span WorkerSpan("worker-cell", "harness");
  WorkerSpan.noteU64("cell", Req.Cell);
  WorkerSpan.noteU64("attempt", Req.Attempt);
  if (Req.Cell >= Plan.size()) {
    Cell.Failed = true;
    Cell.Error = "worker cell index out of range";
  } else {
    const support::FaultConfig Faults = support::FaultConfig::fromEnv();
    const ExperimentCell &C = Plan.cells()[Req.Cell];
    workloads::RunOptions Opt = C.Opt;
    Opt.TimeoutSeconds = cellTimeoutSeconds();

    // A worker-local cache front for the shared spill directory: with
    // --trace-dir every recording is written through to disk, so sibling
    // workers (and resumed runs) replay instead of re-interpreting. No
    // spill dir means no cross-process channel — skip tracing entirely.
    // Disk-only chaos keeps tracing on (it exists to exercise exactly
    // these spill writes); any execution site disables it, as in-process.
    const bool UseTrace = Trace.Enabled && Trace.BudgetBytes > 0 &&
                          !Trace.SpillDir.empty() &&
                          !Faults.anyExecutionSiteEnabled();
    std::optional<TraceCache> Cache;
    if (UseTrace)
      Cache.emplace(Trace.BudgetBytes, Trace.SpillDir);
    const std::string Sig = UseTrace
                                ? workloads::executionSignature(*C.Spec, Opt)
                                : std::string();

    Cell.Attempts = 1;
    // Identical salt to the in-process attempt loop: supervised chaos
    // fires at exactly the same points as in-process chaos.
    support::FaultInjector Injector(
        Faults, (uint64_t(Req.Cell) << 8) | uint64_t(Req.Attempt));
    support::FaultScope Scope(Injector);
    support::maybeInjectCrash(); // The only armed `crash` site.
    try {
      if (SPF_FAULT_POINT(support::FaultSite::CellExec))
        throw support::TransientFault("injected cell fault");
      bool Replayed = false;
      if (!Sig.empty()) {
        if (auto E = Cache->lookup(Sig)) {
          Cell.Run = workloads::replayTrace(E->ExecSide, E->Buf, Opt.Machine,
                                            Opt.TimelineEvery);
          Replayed = true;
        }
      }
      if (!Replayed) {
        if (!Sig.empty()) {
          trace::TraceBuffer Buf;
          Buf.setByteCap(Trace.BudgetBytes);
          Opt.Record = &Buf;
          Opt.ReserveEvents = Cache->reservedEvents(C.Spec->Name);
          Cell.Run = workloads::runWorkload(*C.Spec, Opt);
          Opt.Record = nullptr;
          if (!Buf.overflowed())
            Cache->insert(Sig, std::move(Buf), Cell.Run);
        } else {
          Cell.Run = workloads::runWorkload(*C.Spec, Opt);
        }
      }
      Cell.Ran = true;
    } catch (const support::TransientFault &E) {
      Cell.Transient = true;
      Cell.Error = E.what();
    } catch (const support::CellTimeout &E) {
      Cell.TimedOut = true;
      Cell.Error = E.what();
    } catch (const std::exception &E) {
      Cell.Failed = true;
      Cell.Error = E.what();
    }
  }

  WorkerSpan.end();

  std::ostringstream OS;
  JsonWriter J(OS);
  J.beginObject();
  J.key("worker").value("spf-cell-v1");
  J.key("record");
  writeCellRecordJson(J, Cell);
  // Ship the worker's buffered spans back on the record line: the
  // supervisor import()s them (with this process's real pid) so the
  // merged Chrome trace shows one lane per worker process.
  if (obs::Tracer::instance().active()) {
    J.key("spans");
    obs::Tracer::writeEventsJson(J, obs::Tracer::instance().drain());
  }
  J.endObject();
  OS << '\n';
  const std::string Line = OS.str();
  support::writeAllFd(Req.ResultFd, Line.data(), Line.size());
  // _Exit: a worker whose heap is mid-simulation has nothing worth
  // destructing, and a throwing destructor must not turn a clean record
  // into a crash report.
  std::_Exit(0);
}
