//===- exec/AccessSink.h - Interpreter -> memory event interface -*- C++ -*-===//
///
/// \file
/// The abstract event interface between execution and timing. The
/// interpreter *produces* a stream of access events — compute ticks,
/// demand loads (attributed to their IR load site), stores, software
/// prefetches, and guarded loads — and a sink *consumes* them. The
/// canonical consumer is sim::MemorySystem (the machine's timing model);
/// trace::RecordingSink tees the stream into a trace::TraceBuffer so it
/// can be replayed through many timing models without re-executing the
/// program (record-once / replay-many), and sim::CountingSink consumes
/// it for event-count-only passes.
///
/// The contract that makes replay exact: the interpreter never reads
/// anything back from the sink — the event stream is write-only and is a
/// function of the program alone, so any two sinks fed the same stream
/// are interchangeable.
///
/// Events also exist in decoded-record form (AccessEvent below) so that
/// replay can hand a sink whole blocks at a time via consume() instead
/// of one virtual call per event; see the block-dispatch contract on
/// consume().
///
//===----------------------------------------------------------------------===//

#ifndef SPF_EXEC_ACCESSSINK_H
#define SPF_EXEC_ACCESSSINK_H

#include <cstddef>
#include <cstdint>

namespace spf {
namespace exec {

/// Dense id of one static load instruction (a "load site"), assigned by
/// the interpreter in first-execution order. Per-site attribution lets a
/// sink answer "which loads miss" (the paper's Table 1 view) without the
/// sink knowing anything about IR.
using SiteId = uint32_t;

struct AccessEvent;

/// Consumer of the interpreter's memory-event stream.
class AccessSink {
public:
  virtual ~AccessSink() = default;

  /// \p N non-memory instructions elapsed. Additive: tick(a); tick(b)
  /// must be indistinguishable from tick(a + b) — the trace encoder
  /// relies on this to run-length-encode tick runs.
  virtual void tick(uint64_t N) = 0;

  /// Demand load at \p Addr, issued by load site \p Site.
  virtual void load(uint64_t Addr, SiteId Site) = 0;

  /// Demand store at \p Addr.
  virtual void store(uint64_t Addr) = 0;

  /// Software prefetch instruction targeting \p Addr.
  virtual void prefetch(uint64_t Addr) = 0;

  /// Guarded load whose software exception check passed: a real access
  /// at \p Addr that primes the DTLB and fills the caches.
  virtual void guardedLoad(uint64_t Addr) = 0;

  /// Guarded load whose check failed: recovery-path cost only.
  virtual void guardedLoadFault() = 0;

  // Site-attributed prefetch events. Under governance (the governor's
  // evidence stream) \p Site is the IR load site whose plan issued the
  // prefetch; ungoverned runs and replays pass 0. Semantically identical
  // to the unattributed forms — the defaults forward, so sinks that don't
  // track health need no changes — and NOT part of the trace wire format:
  // attribution is a live-run concern, and governor-driven runs are never
  // trace-cached (workloads::executionSignature refuses to key them).
  virtual void prefetch(uint64_t Addr, SiteId Site) {
    (void)Site;
    prefetch(Addr);
  }
  virtual void guardedLoad(uint64_t Addr, SiteId Site) {
    (void)Site;
    guardedLoad(Addr);
  }
  virtual void guardedLoadFault(SiteId Site) {
    (void)Site;
    guardedLoadFault();
  }

  /// Consumes a block of \p N decoded events, in order. The block-
  /// dispatch contract: consume(Events, N) must be indistinguishable
  /// from calling tick/load/store/... once per event in array order —
  /// the default implementation below is exactly that loop, so every
  /// existing sink keeps its semantics. Sinks on the replay hot path
  /// (sim::MemorySystem, sim::CountingSink) override this with a tight
  /// non-virtual inner loop; trace::replay feeds blocks through here so
  /// replay pays one virtual call per block instead of per event.
  virtual void consume(const AccessEvent *Events, size_t N);
};

/// Wire opcode of one event; stable across encode/decode.
enum class EventKind : uint8_t {
  Tick = 0,             ///< Payload: tick count (merged run).
  Load = 1,             ///< Payload: address + load site.
  Store = 2,            ///< Payload: address.
  Prefetch = 3,         ///< Payload: address.
  GuardedLoad = 4,      ///< Payload: address.
  GuardedLoadFault = 5, ///< No payload.
};

inline const char *eventKindName(EventKind K) {
  switch (K) {
  case EventKind::Tick: return "tick";
  case EventKind::Load: return "load";
  case EventKind::Store: return "store";
  case EventKind::Prefetch: return "prefetch";
  case EventKind::GuardedLoad: return "guarded-load";
  case EventKind::GuardedLoadFault: return "guarded-load-fault";
  }
  return "?";
}

/// One decoded event. Consecutive tick() calls are run-length merged at
/// record time (tick is additive by contract), so one Tick event may
/// stand for many interpreter-side calls. Every other event maps 1:1.
struct AccessEvent {
  EventKind Kind = EventKind::Tick;
  /// Address for Load/Store/Prefetch/GuardedLoad; tick count for Tick;
  /// zero for GuardedLoadFault.
  uint64_t Value = 0;
  /// Load site for Load events. For Prefetch/GuardedLoad/GuardedLoadFault
  /// the governor's attribution site on a governed live run, zero on
  /// ungoverned runs and replays (the trace does not encode it). Zero for
  /// Store and Tick.
  SiteId Site = 0;

  bool operator==(const AccessEvent &) const = default;
};

/// Dispatches one decoded event into \p Sink. Instantiated with a final
/// sink class, the member calls bind statically.
template <typename SinkT>
inline void dispatch(const AccessEvent &E, SinkT &Sink) {
  switch (E.Kind) {
  case EventKind::Tick:
    Sink.tick(E.Value);
    break;
  case EventKind::Load:
    Sink.load(E.Value, E.Site);
    break;
  case EventKind::Store:
    Sink.store(E.Value);
    break;
  case EventKind::Prefetch:
    Sink.prefetch(E.Value, E.Site);
    break;
  case EventKind::GuardedLoad:
    Sink.guardedLoad(E.Value, E.Site);
    break;
  case EventKind::GuardedLoadFault:
    Sink.guardedLoadFault(E.Site);
    break;
  }
}

inline void AccessSink::consume(const AccessEvent *Events, size_t N) {
  for (size_t I = 0; I != N; ++I)
    dispatch(Events[I], *this);
}

} // namespace exec
} // namespace spf

#endif // SPF_EXEC_ACCESSSINK_H
