//===- trace/RecordingSink.h - Tee events into a trace ----------*- C++ -*-===//
///
/// \file
/// An AccessSink that forwards every event to a live inner sink while
/// appending it to a TraceBuffer. The inner sink sees exactly the stream
/// it would have seen without recording, so the recording run's results
/// ARE direct-interpretation results; the buffer is a pure side product.
/// If the buffer overflows its byte cap, recording silently stops (the
/// trace is discarded) and the run is still fully valid.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_TRACE_RECORDINGSINK_H
#define SPF_TRACE_RECORDINGSINK_H

#include "trace/TraceBuffer.h"

#include <vector>

namespace spf {
namespace trace {

class RecordingSink final : public exec::AccessSink {
public:
  RecordingSink(exec::AccessSink &Inner, TraceBuffer &Buf)
      : Inner(Inner), Buf(Buf) {}

  /// Flushing on destruction makes `{ RecordingSink S(...); run(); }`
  /// leave a finished buffer even on exceptional unwinds.
  ~RecordingSink() override { Buf.finish(); }

  void tick(uint64_t N) override {
    Buf.tick(N);
    Inner.tick(N);
  }
  void load(uint64_t Addr, exec::SiteId Site) override {
    Buf.load(Addr, Site);
    Inner.load(Addr, Site);
  }
  void store(uint64_t Addr) override {
    Buf.store(Addr);
    Inner.store(Addr);
  }
  void prefetch(uint64_t Addr) override {
    Buf.prefetch(Addr);
    Inner.prefetch(Addr);
  }
  void guardedLoad(uint64_t Addr) override {
    Buf.guardedLoad(Addr);
    Inner.guardedLoad(Addr);
  }
  void guardedLoadFault() override {
    Buf.guardedLoadFault();
    Inner.guardedLoadFault();
  }
  // Site attribution is live-run metadata, not wire format: the trace
  // records the plain event, the inner sink keeps the site.
  void prefetch(uint64_t Addr, exec::SiteId Site) override {
    Buf.prefetch(Addr);
    Inner.prefetch(Addr, Site);
  }
  void guardedLoad(uint64_t Addr, exec::SiteId Site) override {
    Buf.guardedLoad(Addr);
    Inner.guardedLoad(Addr, Site);
  }
  void guardedLoadFault(exec::SiteId Site) override {
    Buf.guardedLoadFault();
    Inner.guardedLoadFault(Site);
  }

  /// Block path: encodes the whole block, then forwards it in one call so
  /// the inner sink keeps its batched path.
  void consume(const exec::AccessEvent *Events, size_t N) override {
    for (size_t I = 0; I != N; ++I) {
      const exec::AccessEvent &E = Events[I];
      switch (E.Kind) {
      case exec::EventKind::Tick:
        Buf.tick(E.Value);
        break;
      case exec::EventKind::Load:
        Buf.load(E.Value, E.Site);
        break;
      case exec::EventKind::Store:
        Buf.store(E.Value);
        break;
      case exec::EventKind::Prefetch:
        Buf.prefetch(E.Value);
        break;
      case exec::EventKind::GuardedLoad:
        Buf.guardedLoad(E.Value);
        break;
      case exec::EventKind::GuardedLoadFault:
        Buf.guardedLoadFault();
        break;
      }
    }
    Inner.consume(Events, N);
  }

private:
  exec::AccessSink &Inner;
  TraceBuffer &Buf;
};

/// An AccessSink that forwards every event to a live inner sink while
/// appending it, decoded and with its attribution site, to a vector. The
/// in-memory counterpart of RecordingSink for streams the wire format
/// cannot carry: a governed run's prefetch sites (tests feed such a
/// stream to the batched and the per-event model and compare them).
class CapturingSink final : public exec::AccessSink {
public:
  CapturingSink(exec::AccessSink &Inner, std::vector<exec::AccessEvent> &Out)
      : Inner(Inner), Out(Out) {}

  void tick(uint64_t N) override {
    Out.push_back({exec::EventKind::Tick, N, 0});
    Inner.tick(N);
  }
  void load(uint64_t Addr, exec::SiteId Site) override {
    Out.push_back({exec::EventKind::Load, Addr, Site});
    Inner.load(Addr, Site);
  }
  void store(uint64_t Addr) override {
    Out.push_back({exec::EventKind::Store, Addr, 0});
    Inner.store(Addr);
  }
  void prefetch(uint64_t Addr) override { prefetch(Addr, 0); }
  void guardedLoad(uint64_t Addr) override { guardedLoad(Addr, 0); }
  void guardedLoadFault() override { guardedLoadFault(0); }
  void prefetch(uint64_t Addr, exec::SiteId Site) override {
    Out.push_back({exec::EventKind::Prefetch, Addr, Site});
    Inner.prefetch(Addr, Site);
  }
  void guardedLoad(uint64_t Addr, exec::SiteId Site) override {
    Out.push_back({exec::EventKind::GuardedLoad, Addr, Site});
    Inner.guardedLoad(Addr, Site);
  }
  void guardedLoadFault(exec::SiteId Site) override {
    Out.push_back({exec::EventKind::GuardedLoadFault, 0, Site});
    Inner.guardedLoadFault(Site);
  }
  void consume(const exec::AccessEvent *Events, size_t N) override {
    Out.insert(Out.end(), Events, Events + N);
    Inner.consume(Events, N);
  }

private:
  exec::AccessSink &Inner;
  std::vector<exec::AccessEvent> &Out;
};

} // namespace trace
} // namespace spf

#endif // SPF_TRACE_RECORDINGSINK_H
