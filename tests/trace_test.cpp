//===- tests/trace_test.cpp - Access-event trace layer --------------------===//
//
// The trace layer's contract, bottom to top: every event kind survives
// record -> encode -> decode -> replay losslessly; the encoding stays
// compact on strided streams; replaying a recorded run through a fresh
// MemorySystem reproduces the direct run's statistics bit for bit (for
// every Table 3 workload on both machines); and the experiment driver's
// record-once / replay-many path changes no reported statistic.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "harness/TraceCache.h"
#include "support/FaultInjection.h"
#include "sim/CountingSink.h"
#include "sim/MemorySystem.h"
#include "trace/RecordingSink.h"
#include "trace/TraceBuffer.h"
#include "workloads/Runner.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

using namespace spf;
using namespace spf::trace;

namespace {

uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Decodes \p Buf back into a flat event list.
std::vector<AccessEvent> decodeAll(const TraceBuffer &Buf) {
  std::vector<AccessEvent> Events;
  TraceReader Reader(Buf);
  AccessEvent E;
  while (Reader.next(E))
    Events.push_back(E);
  return Events;
}

// -- Encoding ---------------------------------------------------------------

TEST(TraceBufferTest, RoundTripsEveryEventKind) {
  TraceBuffer Buf;
  Buf.tick(7);
  Buf.load(0x1000, 0);
  Buf.load(0x1040, 0);   // Same-site stride.
  Buf.load(0x9000, 3);   // Forward site jump.
  Buf.load(0x8fc0, 1);   // Backward site jump, backward address.
  Buf.store(0x2000);
  Buf.store(0x1ff8);     // Negative delta.
  Buf.prefetch(0x3000);
  Buf.guardedLoad(0x4000);
  Buf.guardedLoadFault();
  Buf.tick(1);
  Buf.finish();

  std::vector<AccessEvent> Expected = {
      {EventKind::Tick, 7, 0},
      {EventKind::Load, 0x1000, 0},
      {EventKind::Load, 0x1040, 0},
      {EventKind::Load, 0x9000, 3},
      {EventKind::Load, 0x8fc0, 1},
      {EventKind::Store, 0x2000, 0},
      {EventKind::Store, 0x1ff8, 0},
      {EventKind::Prefetch, 0x3000, 0},
      {EventKind::GuardedLoad, 0x4000, 0},
      {EventKind::GuardedLoadFault, 0, 0},
      {EventKind::Tick, 1, 0},
  };
  EXPECT_EQ(decodeAll(Buf), Expected);
  EXPECT_EQ(Buf.events(), Expected.size());
  EXPECT_EQ(Buf.loadSites(), 4u); // One past the largest site id (3).
}

TEST(TraceBufferTest, ConsecutiveTicksMergeIntoOneEvent) {
  TraceBuffer Buf;
  for (unsigned I = 0; I != 1000; ++I)
    Buf.tick(3);
  Buf.finish();
  ASSERT_EQ(Buf.events(), 1u);
  EXPECT_EQ(Buf.recordedCalls(), 1000u);

  // tick(a); tick(b) == tick(a+b) by the AccessSink additivity contract,
  // so the merged replay drives the sink identically.
  sim::CountingSink Counts;
  replay(Buf, Counts);
  EXPECT_EQ(Counts.TickCalls, 1u);
  EXPECT_EQ(Counts.TicksTotal, 3000u);
}

TEST(TraceBufferTest, StridedStreamStaysUnderFourBytesPerEvent) {
  // The shape runWorkload produces: per iteration a tick run, a few
  // constant-stride loads from fixed sites, and an occasional store.
  TraceBuffer Buf;
  uint64_t A = 0x10000, B = 0x80000, C = 0x200000;
  for (unsigned I = 0; I != 100000; ++I) {
    Buf.tick(4);
    Buf.load(A += 24, 0);
    Buf.load(B += 128, 1);
    Buf.load(C += 8, 2);
    if (I % 7 == 0)
      Buf.store(A);
  }
  Buf.finish();
  ASSERT_GT(Buf.events(), 400000u);
  double BytesPerEvent = static_cast<double>(Buf.byteSize()) /
                         static_cast<double>(Buf.events());
  EXPECT_LE(BytesPerEvent, 4.0) << Buf.byteSize() << " bytes for "
                                << Buf.events() << " events";
}

TEST(TraceBufferTest, FuzzedStreamRoundTripsExactly) {
  uint64_t Rng = 0xdecafbad;
  TraceBuffer Buf;
  std::vector<AccessEvent> Expected;
  uint64_t PendingTicks = 0;
  auto Flush = [&] {
    if (PendingTicks) {
      Expected.push_back({EventKind::Tick, PendingTicks, 0});
      PendingTicks = 0;
    }
  };

  for (unsigned I = 0; I != 50000; ++I) {
    switch (splitmix64(Rng) % 6) {
    case 0: {
      // Counts up to full 64-bit range (varint + RLE paths).
      uint64_t N = splitmix64(Rng) >> (splitmix64(Rng) % 64);
      PendingTicks += N;
      Buf.tick(N);
      break;
    }
    case 1: {
      exec::SiteId Site = static_cast<exec::SiteId>(splitmix64(Rng) % 64);
      uint64_t Addr = splitmix64(Rng); // Arbitrary 64-bit (wraparound).
      Flush();
      Expected.push_back({EventKind::Load, Addr, Site});
      Buf.load(Addr, Site);
      break;
    }
    case 2: {
      uint64_t Addr = splitmix64(Rng);
      Flush();
      Expected.push_back({EventKind::Store, Addr, 0});
      Buf.store(Addr);
      break;
    }
    case 3: {
      uint64_t Addr = splitmix64(Rng);
      Flush();
      Expected.push_back({EventKind::Prefetch, Addr, 0});
      Buf.prefetch(Addr);
      break;
    }
    case 4: {
      uint64_t Addr = splitmix64(Rng);
      Flush();
      Expected.push_back({EventKind::GuardedLoad, Addr, 0});
      Buf.guardedLoad(Addr);
      break;
    }
    case 5:
      Flush();
      Expected.push_back({EventKind::GuardedLoadFault, 0, 0});
      Buf.guardedLoadFault();
      break;
    }
  }
  Flush();
  Buf.finish();
  EXPECT_EQ(decodeAll(Buf), Expected);
}

TEST(TraceBufferTest, ByteCapDiscardsTraceButKeepsCounting) {
  TraceBuffer Buf;
  Buf.setByteCap(64);
  uint64_t Rng = 1;
  for (unsigned I = 0; I != 1000; ++I)
    Buf.load(splitmix64(Rng), static_cast<exec::SiteId>(I % 8));
  Buf.finish();
  EXPECT_TRUE(Buf.overflowed());
  EXPECT_EQ(Buf.byteSize(), 0u); // Storage released, not just truncated.
  EXPECT_EQ(Buf.recordedCalls(), 1000u);
}

TEST(TraceBufferTest, SpillRoundTripPreservesTheStream) {
  TraceBuffer Buf;
  Buf.tick(100);
  for (unsigned I = 0; I != 500; ++I) {
    Buf.load(0x1000 + 16 * I, 0);
    Buf.tick(2);
  }
  Buf.guardedLoadFault();
  Buf.finish();

  std::stringstream SS;
  Buf.writeTo(SS);

  TraceBuffer Loaded;
  ASSERT_TRUE(Loaded.readFrom(SS));
  EXPECT_EQ(Loaded.events(), Buf.events());
  EXPECT_EQ(Loaded.loadSites(), Buf.loadSites());
  EXPECT_EQ(decodeAll(Loaded), decodeAll(Buf));
}

TEST(TraceBufferTest, ReadFromRejectsCorruptStreams) {
  TraceBuffer Buf;
  Buf.load(0x1000, 0);
  Buf.finish();
  std::stringstream SS;
  Buf.writeTo(SS);
  std::string Good = SS.str();

  TraceBuffer Out;
  { // Truncated mid-payload.
    std::stringstream Bad(Good.substr(0, Good.size() - 1));
    EXPECT_FALSE(Out.readFrom(Bad));
  }
  { // Wrong magic.
    std::string Flipped = Good;
    Flipped[0] ^= 0xff;
    std::stringstream Bad(Flipped);
    EXPECT_FALSE(Out.readFrom(Bad));
  }
  { // Empty.
    std::stringstream Bad("");
    EXPECT_FALSE(Out.readFrom(Bad));
  }
}

TEST(TraceBufferTest, SpillTruncatedAtEveryByteOffsetIsRejected) {
  TraceBuffer Buf;
  Buf.tick(12);
  for (unsigned I = 0; I != 100; ++I)
    Buf.load(0x4000 + 24 * I, static_cast<exec::SiteId>(I % 3));
  Buf.store(0x9000);
  Buf.guardedLoadFault();
  Buf.finish();
  std::stringstream SS;
  Buf.writeTo(SS);
  std::string Good = SS.str();
  ASSERT_GT(Good.size(), 32u);

  for (size_t Len = 0; Len != Good.size(); ++Len) {
    // Stream path: every proper prefix is rejected before any payload is
    // interpreted.
    TraceBuffer Out;
    std::stringstream Bad(Good.substr(0, Len));
    EXPECT_FALSE(Out.readFrom(Bad)) << "prefix " << Len;
    EXPECT_EQ(Out.events(), 0u) << "prefix " << Len;

    // Borrowed (mmap-shaped) path: same verdict, cursor not advanced.
    TraceBuffer Borrow;
    const uint8_t *P = reinterpret_cast<const uint8_t *>(Good.data());
    const uint8_t *Start = P;
    EXPECT_FALSE(Borrow.borrowFrom(P, P + Len, nullptr)) << "prefix " << Len;
    EXPECT_EQ(P, Start) << "prefix " << Len;
  }

  // The untruncated blob still reads back fine through both paths.
  TraceBuffer Out;
  std::stringstream Ok(Good);
  ASSERT_TRUE(Out.readFrom(Ok));
  EXPECT_EQ(decodeAll(Out), decodeAll(Buf));
  TraceBuffer Borrow;
  const uint8_t *P = reinterpret_cast<const uint8_t *>(Good.data());
  ASSERT_TRUE(Borrow.borrowFrom(P, P + Good.size(), nullptr));
  EXPECT_EQ(P, reinterpret_cast<const uint8_t *>(Good.data()) + Good.size());
  EXPECT_EQ(decodeAll(Borrow), decodeAll(Buf));
}

TEST(TraceBufferTest, SpillBitFlipsAreRejected) {
  TraceBuffer Buf;
  for (unsigned I = 0; I != 200; ++I) {
    Buf.tick(1 + I % 5);
    Buf.load(0x10000 + 8 * I, 0);
  }
  Buf.finish();
  std::stringstream SS;
  Buf.writeTo(SS);
  std::string Good = SS.str();

  // Every single-bit flip lands in the magic, the checksummed header
  // counters, or the checksummed payload, so none may survive.
  uint64_t Rng = 0xb17f11b5;
  for (unsigned Round = 0; Round != 500; ++Round) {
    std::string Bad = Good;
    size_t Byte = splitmix64(Rng) % Bad.size();
    Bad[Byte] = static_cast<char>(Bad[Byte] ^ (1u << (splitmix64(Rng) % 8)));

    TraceBuffer Out;
    std::stringstream IS(Bad);
    EXPECT_FALSE(Out.readFrom(IS)) << "flip at byte " << Byte;

    TraceBuffer Borrow;
    const uint8_t *P = reinterpret_cast<const uint8_t *>(Bad.data());
    EXPECT_FALSE(Borrow.borrowFrom(P, P + Bad.size(), nullptr))
        << "flip at byte " << Byte;
  }
}

TEST(TraceReaderFuzzTest, ArbitraryBytesNeverYieldGarbageEvents) {
  // The raw decoder seam: arbitrary bytes in, and the only acceptable
  // outcomes are well-formed events (valid kind, in-range site) followed
  // by a clean end or malformed(). The batched and per-event decoders
  // must agree on everything, including the failure point.
  uint64_t Rng = 0xfee1de5;
  for (unsigned Round = 0; Round != 400; ++Round) {
    size_t Len = splitmix64(Rng) % 600;
    std::vector<uint8_t> Raw(Len);
    for (uint8_t &B : Raw)
      B = static_cast<uint8_t>(splitmix64(Rng));
    uint32_t Sites = static_cast<uint32_t>(splitmix64(Rng) % 9);

    TraceReader PerEvent(Raw.data(), Raw.size(), Sites);
    std::vector<AccessEvent> One;
    AccessEvent E;
    while (PerEvent.next(E)) {
      One.push_back(E);
      ASSERT_LE(static_cast<unsigned>(E.Kind),
                static_cast<unsigned>(EventKind::GuardedLoadFault));
      if (E.Kind == EventKind::Load) {
        ASSERT_LT(E.Site, Sites);
      }
    }

    TraceReader Batched(Raw.data(), Raw.size(), Sites);
    std::vector<AccessEvent> Blocks;
    AccessEvent Block[ReplayBlockEvents];
    size_t Got;
    while ((Got = Batched.fill(Block, ReplayBlockEvents)) != 0)
      Blocks.insert(Blocks.end(), Block, Block + Got);

    ASSERT_EQ(One, Blocks) << "round " << Round;
    ASSERT_EQ(PerEvent.malformed(), Batched.malformed()) << "round " << Round;
  }
}

TEST(TraceReaderFuzzTest, TruncatedValidPayloadDecodesAPrefixThenFails) {
  TraceBuffer Buf;
  Buf.tick(1u << 20); // Multi-byte varint.
  for (unsigned I = 0; I != 40; ++I) {
    Buf.load(0x100000 + 4096 * I, static_cast<exec::SiteId>(I % 4));
    Buf.store(0x200000 + 8 * I);
    Buf.prefetch(0x300000 + 64 * I);
    Buf.guardedLoad(0x400000 + 128 * I);
  }
  Buf.finish();
  std::vector<AccessEvent> Full = decodeAll(Buf);

  for (size_t Len = 0; Len != Buf.byteSize(); ++Len) {
    TraceReader R(Buf.data(), Len, Buf.loadSites());
    std::vector<AccessEvent> Got;
    AccessEvent E;
    while (R.next(E))
      Got.push_back(E);
    // Whatever decodes before the cut is an exact prefix of the real
    // stream — truncation can hide events but never corrupt them (a cut
    // mid-event additionally sets malformed(); a cut on an event
    // boundary is indistinguishable from a shorter trace).
    ASSERT_LE(Got.size(), Full.size());
    ASSERT_TRUE(std::equal(Got.begin(), Got.end(), Full.begin()))
        << "prefix " << Len;
    if (R.malformed()) {
      EXPECT_LT(Got.size(), Full.size()) << Len;
    }
  }
}

// -- Recording tee and replay ----------------------------------------------

/// Drives \p Sink with a deterministic synthetic access stream exercising
/// every event kind, including DTLB- and cache-hostile jumps.
void driveSyntheticStream(exec::AccessSink &Sink) {
  uint64_t Rng = 42;
  uint64_t Hot = 0x100000;
  for (unsigned I = 0; I != 20000; ++I) {
    Sink.tick(3);
    Sink.load(Hot += 24, 0);
    Sink.load((splitmix64(Rng) % (1u << 26)) & ~7ull, 1); // Random far.
    Sink.store(0x400000 + 8 * (I % 512));
    if (I % 3 == 0)
      Sink.prefetch(Hot + 24 * 4);
    if (I % 5 == 0)
      Sink.guardedLoad(0x800000 + 64 * I);
    if (I % 1024 == 0)
      Sink.guardedLoadFault();
  }
}

TEST(RecordingSinkTest, TeeIsInvisibleAndReplayIsBitIdentical) {
  sim::MachineConfig Machine = (*sim::MachineConfig::byName("pentium4"));

  // Direct: no recording involved at all.
  sim::MemorySystem Direct(Machine);
  driveSyntheticStream(Direct);

  // Recorded: same stream through the tee.
  sim::MemorySystem Live(Machine);
  TraceBuffer Buf;
  {
    RecordingSink Tee(Live, Buf);
    driveSyntheticStream(Tee);
  } // Destructor finishes the buffer.

  // The tee must not have perturbed the live simulation...
  EXPECT_EQ(Live.stats(), Direct.stats());
  EXPECT_EQ(Live.cycles(), Direct.cycles());
  EXPECT_EQ(Live.siteStats(), Direct.siteStats());

  // ...and replaying the recording reproduces it bit for bit.
  sim::MemorySystem Replayed(Machine);
  replay(Buf, Replayed);
  EXPECT_EQ(Replayed.stats(), Direct.stats());
  EXPECT_EQ(Replayed.cycles(), Direct.cycles());
  EXPECT_EQ(Replayed.siteStats(), Direct.siteStats());

  // The same trace replays on the *other* machine too; different timing,
  // same event counts.
  sim::MemorySystem Other((*sim::MachineConfig::byName("athlonmp")));
  replay(Buf, Other);
  EXPECT_EQ(Other.stats().Loads, Direct.stats().Loads);
  EXPECT_EQ(Other.stats().Stores, Direct.stats().Stores);
  EXPECT_EQ(Other.stats().GuardedLoads, Direct.stats().GuardedLoads);
}

TEST(CountingSinkTest, CountsEveryCall) {
  sim::CountingSink Counts;
  driveSyntheticStream(Counts);
  EXPECT_EQ(Counts.TickCalls, 20000u);
  EXPECT_EQ(Counts.TicksTotal, 60000u);
  EXPECT_EQ(Counts.Loads, 40000u);
  EXPECT_EQ(Counts.Stores, 20000u);
  EXPECT_EQ(Counts.LoadSites, 2u);
  EXPECT_EQ(Counts.totalCalls(),
            Counts.TickCalls + Counts.Loads + Counts.Stores +
                Counts.Prefetches + Counts.GuardedLoads +
                Counts.GuardedLoadFaults);
}

// -- Execution signatures ---------------------------------------------------

workloads::WorkloadConfig tinyConfig() {
  workloads::WorkloadConfig Cfg;
  Cfg.Scale = 0.05;
  return Cfg;
}

TEST(ExecutionSignatureTest, BaselineIsMachineIndependent) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("jess");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions P4, Athlon;
  P4.Machine = (*sim::MachineConfig::byName("pentium4"));
  Athlon.Machine = (*sim::MachineConfig::byName("athlonmp"));
  P4.Config = Athlon.Config = tinyConfig();

  // BASELINE never runs the planner: one trace serves every machine.
  EXPECT_EQ(workloads::executionSignature(*Spec, P4),
            workloads::executionSignature(*Spec, Athlon));

  // The prefetch algorithms read LineBytes / the guarded-load choice, so
  // the two machines (L2/128B/guarded vs L1/64B/unguarded) key apart.
  P4.Algo = Athlon.Algo = workloads::Algorithm::InterIntra;
  EXPECT_NE(workloads::executionSignature(*Spec, P4),
            workloads::executionSignature(*Spec, Athlon));

  // Different algorithm, different signature.
  workloads::RunOptions Inter = P4;
  Inter.Algo = workloads::Algorithm::Inter;
  EXPECT_NE(workloads::executionSignature(*Spec, P4),
            workloads::executionSignature(*Spec, Inter));

  // Different scale, different signature.
  workloads::RunOptions Scaled = P4;
  Scaled.Config.Scale = 0.1;
  EXPECT_NE(workloads::executionSignature(*Spec, P4),
            workloads::executionSignature(*Spec, Scaled));
}

TEST(ExecutionSignatureTest, TunedRunsNeedAStableKey) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("db");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Opt;
  Opt.Config = tinyConfig();
  Opt.TunePass = [](core::PrefetchPassOptions &P) {
    P.Planner.ScheduleDistance = 4;
  };
  // An arbitrary mutation cannot be keyed...
  EXPECT_EQ(workloads::executionSignature(*Spec, Opt), "");
  // ...until the caller names it.
  Opt.TuneKey = "dist=4";
  std::string Sig = workloads::executionSignature(*Spec, Opt);
  EXPECT_NE(Sig, "");
  EXPECT_NE(Sig.find("tune=dist=4"), std::string::npos);
}

TEST(ExecutionSignatureTest, EpochAndGcFacetsKeyApart) {
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("jess");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Classic;
  Classic.Config = tinyConfig();
  std::string Base = workloads::executionSignature(*Spec, Classic);
  ASSERT_NE(Base, "");

  // Defaults (1 epoch, sliding-compact, no phase change) add no facet:
  // old journals and spilled traces keep their keys.
  workloads::RunOptions Defaults = Classic;
  Defaults.Epochs = 1;
  Defaults.GcVariant = vm::GcVariant::SlidingCompact;
  EXPECT_EQ(workloads::executionSignature(*Spec, Defaults), Base);

  // Every adaptation facet keys its own trace — including for BASELINE,
  // whose memory behavior changes with the boundary collections too.
  workloads::RunOptions Epochs = Classic;
  Epochs.Epochs = 4;
  std::string EpochSig = workloads::executionSignature(*Spec, Epochs);
  EXPECT_NE(EpochSig, Base);
  EXPECT_NE(EpochSig.find("epochs=4"), std::string::npos);

  workloads::RunOptions Variant = Epochs;
  Variant.GcVariant = vm::GcVariant::AddressShuffle;
  std::string VariantSig = workloads::executionSignature(*Spec, Variant);
  EXPECT_NE(VariantSig, EpochSig);
  EXPECT_NE(VariantSig.find("gc=address-shuffle"), std::string::npos);

  workloads::RunOptions Phase = Variant;
  Phase.PhaseChange = true;
  EXPECT_NE(workloads::executionSignature(*Spec, Phase), VariantSig);
}

TEST(ExecutionSignatureTest, GovernedRunsAreNeverKeyed) {
  // Governor re-decisions depend on observed machine timing, so a
  // governed execution is never correct to replay for another machine —
  // or to record at all: like an unnamed TunePass mutation it gets the
  // empty (unkeyable) signature and always interprets directly.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("jess");
  ASSERT_NE(Spec, nullptr);
  workloads::RunOptions Opt;
  Opt.Config = tinyConfig();
  Opt.Epochs = 4;
  Opt.Governor = true;
  EXPECT_EQ(workloads::executionSignature(*Spec, Opt), "");
}

// -- Differential: replay == direct for the full evaluation matrix ---------

TEST(DifferentialTest, ReplayMatchesDirectForEveryWorkloadAndMachine) {
  // Includes the three-level machine so the page-walk and RPT paths are
  // exercised by the replay contract, not just the classic flat model.
  const std::vector<sim::MachineConfig> Machines = {
      (*sim::MachineConfig::byName("pentium4")),
      (*sim::MachineConfig::byName("athlonmp")),
      (*sim::MachineConfig::byName("modern3l"))};
  for (const workloads::WorkloadSpec &Spec : workloads::allWorkloads()) {
    for (const sim::MachineConfig &Machine : Machines) {
      workloads::RunOptions Opt;
      Opt.Machine = Machine;
      Opt.Algo = workloads::Algorithm::InterIntra;
      Opt.Config = tinyConfig();
      TraceBuffer Buf;
      Opt.Record = &Buf;
      workloads::RunResult Direct = workloads::runWorkload(Spec, Opt);
      ASSERT_FALSE(Buf.overflowed()) << Spec.Name;

      workloads::RunResult Replayed =
          workloads::replayTrace(Direct, Buf, Machine);
      std::string Tag = Spec.Name + " on " + Machine.Name;
      EXPECT_TRUE(Replayed.Replayed) << Tag;
      EXPECT_EQ(Replayed.CompiledCycles, Direct.CompiledCycles) << Tag;
      EXPECT_EQ(Replayed.Mem, Direct.Mem) << Tag;
      EXPECT_EQ(Replayed.Sites, Direct.Sites) << Tag;
      EXPECT_EQ(Replayed.ReturnValue, Direct.ReturnValue) << Tag;
      EXPECT_EQ(Replayed.Retired, Direct.Retired) << Tag;
    }
  }
}

TEST(DifferentialTest, BaselineTraceReplaysAcrossMachines) {
  // The signature layer treats BASELINE traces as machine-independent;
  // verify the claim: a trace recorded on the Pentium 4 replayed on the
  // Athlon MP must match the Athlon's own direct run bit for bit.
  const workloads::WorkloadSpec *Spec = workloads::findWorkload("jess");
  ASSERT_NE(Spec, nullptr);

  workloads::RunOptions P4;
  P4.Machine = (*sim::MachineConfig::byName("pentium4"));
  P4.Config = tinyConfig();
  TraceBuffer Buf;
  P4.Record = &Buf;
  workloads::RunResult Recorded = workloads::runWorkload(*Spec, P4);

  workloads::RunOptions Athlon = P4;
  Athlon.Machine = (*sim::MachineConfig::byName("athlonmp"));
  Athlon.Record = nullptr;
  workloads::RunResult Direct = workloads::runWorkload(*Spec, Athlon);

  workloads::RunResult Replayed =
      workloads::replayTrace(Recorded, Buf, Athlon.Machine);
  EXPECT_EQ(Replayed.CompiledCycles, Direct.CompiledCycles);
  EXPECT_EQ(Replayed.Mem, Direct.Mem);
  EXPECT_EQ(Replayed.Sites, Direct.Sites);
}

TEST(DifferentialTest, BatchedDispatchMatchesPerEventForEveryWorkload) {
  // The batched consume() overrides (MemorySystem's peek/commit fast
  // path, CountingSink's loop) against the one-virtual-call-per-event
  // reference, across every Table 3 workload on all three machines —
  // including the walked-TLB, RPT-prefetching Modern3L, whose batched
  // clean-hit loop must observe loads at the same clock values the
  // per-event path does: stats, per-site stats, and cycles must be
  // bit-identical.
  const std::vector<sim::MachineConfig> Machines = {
      (*sim::MachineConfig::byName("pentium4")),
      (*sim::MachineConfig::byName("athlonmp")),
      (*sim::MachineConfig::byName("modern3l"))};
  for (const workloads::WorkloadSpec &Spec : workloads::allWorkloads()) {
    workloads::RunOptions Opt;
    Opt.Machine = Machines[0];
    Opt.Algo = workloads::Algorithm::InterIntra;
    Opt.Config = tinyConfig();
    TraceBuffer Buf;
    Opt.Record = &Buf;
    workloads::runWorkload(Spec, Opt);
    ASSERT_FALSE(Buf.overflowed()) << Spec.Name;

    for (const sim::MachineConfig &Machine : Machines) {
      std::string Tag = Spec.Name + " on " + Machine.Name;
      sim::MemorySystem Batched(Machine), PerEvent(Machine);
      ASSERT_TRUE(replay(Buf, Batched)) << Tag;
      ASSERT_TRUE(replayPerEvent(Buf, PerEvent)) << Tag;
      EXPECT_EQ(Batched.stats(), PerEvent.stats()) << Tag;
      EXPECT_EQ(Batched.cycles(), PerEvent.cycles()) << Tag;
      EXPECT_EQ(Batched.siteStats(), PerEvent.siteStats()) << Tag;
    }

    sim::CountingSink A, B;
    ASSERT_TRUE(replay(Buf, A)) << Spec.Name;
    ASSERT_TRUE(replayPerEvent(Buf, B)) << Spec.Name;
    EXPECT_EQ(A.TickCalls, B.TickCalls) << Spec.Name;
    EXPECT_EQ(A.TicksTotal, B.TicksTotal) << Spec.Name;
    EXPECT_EQ(A.Loads, B.Loads) << Spec.Name;
    EXPECT_EQ(A.Stores, B.Stores) << Spec.Name;
    EXPECT_EQ(A.Prefetches, B.Prefetches) << Spec.Name;
    EXPECT_EQ(A.GuardedLoads, B.GuardedLoads) << Spec.Name;
    EXPECT_EQ(A.GuardedLoadFaults, B.GuardedLoadFaults) << Spec.Name;
    EXPECT_EQ(A.LoadSites, B.LoadSites) << Spec.Name;
  }
}

// -- TraceCache -------------------------------------------------------------

harness::TraceCache::Entry makeEntry(unsigned Loads, uint64_t Tag) {
  harness::TraceCache::Entry E;
  for (unsigned I = 0; I != Loads; ++I)
    E.Buf.load(0x1000 + 64 * I, 0);
  E.Buf.finish();
  E.ExecSide.ReturnValue = Tag;
  return E;
}

TEST(TraceCacheTest, LruEvictsLeastRecentlyUsed) {
  harness::TraceCache Cache(3000); // Room for ~2 entries of ~512+N bytes.
  harness::TraceCache::Entry A = makeEntry(200, 1), B = makeEntry(200, 2),
                             C = makeEntry(200, 3);
  Cache.insert("wl-a|BASELINE", std::move(A.Buf), A.ExecSide);
  Cache.insert("wl-b|BASELINE", std::move(B.Buf), B.ExecSide);
  ASSERT_NE(Cache.lookup("wl-a|BASELINE"), nullptr); // Refresh A.
  Cache.insert("wl-c|BASELINE", std::move(C.Buf), C.ExecSide);

  // B was least recently used, so B is the one pushed out.
  EXPECT_EQ(Cache.lookup("wl-b|BASELINE"), nullptr);
  auto GotA = Cache.lookup("wl-a|BASELINE");
  auto GotC = Cache.lookup("wl-c|BASELINE");
  ASSERT_NE(GotA, nullptr);
  ASSERT_NE(GotC, nullptr);
  EXPECT_EQ(GotA->ExecSide.ReturnValue, 1u);
  EXPECT_EQ(GotC->ExecSide.ReturnValue, 3u);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_LE(Cache.bytesInUse(), Cache.budgetBytes());
}

TEST(TraceCacheTest, ZeroBudgetHoldsNothing) {
  harness::TraceCache Cache(0);
  harness::TraceCache::Entry E = makeEntry(10, 9);
  Cache.insert("wl|X", std::move(E.Buf), E.ExecSide);
  EXPECT_EQ(Cache.lookup("wl|X"), nullptr);
  EXPECT_EQ(Cache.bytesInUse(), 0u);
}

TEST(TraceCacheTest, ReservedEventsFollowsTheLatestRecording) {
  harness::TraceCache Cache(1 << 20);
  EXPECT_EQ(Cache.reservedEvents("jess"), 0u);
  harness::TraceCache::Entry E = makeEntry(123, 0);
  uint64_t Events = E.Buf.events();
  Cache.insert("jess|BASELINE|scale=x", std::move(E.Buf), E.ExecSide);
  // Keyed by workload (the signature's first field), not full signature:
  // a different algorithm's recording still benefits from the hint.
  EXPECT_EQ(Cache.reservedEvents("jess"), Events);
  EXPECT_EQ(Cache.reservedEvents("db"), 0u);
}

TEST(TraceCacheTest, SpillDirectoryServesEvictedAndCrossProcessHits) {
  std::string Dir = ::testing::TempDir() + "/spf-trace-spill";
  harness::TraceCache::Entry A = makeEntry(300, 7), B = makeEntry(300, 8);

  {
    harness::TraceCache Cache(1800, Dir); // Fits one entry at a time.
    Cache.insert("wl-a|SIG", std::move(A.Buf), A.ExecSide);
    Cache.insert("wl-b|SIG", std::move(B.Buf), B.ExecSide); // Evicts A.
    ASSERT_GE(Cache.stats().Evictions, 1u);

    // The evicted entry comes back from disk.
    auto GotA = Cache.lookup("wl-a|SIG");
    ASSERT_NE(GotA, nullptr);
    EXPECT_EQ(GotA->ExecSide.ReturnValue, 7u);
    EXPECT_GE(Cache.stats().SpillLoads, 1u);
  }

  // A fresh cache (new process, same --trace-dir) replays the spill.
  harness::TraceCache Fresh(1 << 20, Dir);
  auto Got = Fresh.lookup("wl-a|SIG");
  ASSERT_NE(Got, nullptr);
  EXPECT_EQ(Got->ExecSide.ReturnValue, 7u);
  EXPECT_GT(Got->Buf.events(), 0u);

  // A different signature that hash-collides-or-not must never be served
  // someone else's trace.
  EXPECT_EQ(Fresh.lookup("wl-z|OTHER"), nullptr);
}

std::vector<std::filesystem::path> spillFiles(const std::string &Dir) {
  std::vector<std::filesystem::path> Files;
  std::error_code EC;
  for (const auto &DE : std::filesystem::directory_iterator(Dir, EC))
    Files.push_back(DE.path());
  return Files;
}

TEST(TraceCacheTest, MmapAndHeapSpillReloadsAreIdentical) {
  std::string Dir = ::testing::TempDir() + "/spf-mmap-vs-heap";
  std::filesystem::remove_all(Dir);
  harness::TraceCache::Entry E = makeEntry(400, 11);
  std::vector<AccessEvent> Expected = decodeAll(E.Buf);
  {
    harness::TraceCache Cache(1 << 20, Dir);
    Cache.insert("wl|MODES", std::move(E.Buf), E.ExecSide);
    ASSERT_GE(Cache.stats().SpillStores, 1u);
  }

  harness::TraceCache Mapped(1 << 20, Dir, /*UseMmap=*/true);
  harness::TraceCache Heap(1 << 20, Dir, /*UseMmap=*/false);
  auto GotM = Mapped.lookup("wl|MODES");
  auto GotH = Heap.lookup("wl|MODES");
  ASSERT_NE(GotM, nullptr);
  ASSERT_NE(GotH, nullptr);

  // The mmap reload borrows the file's pages; the heap reload borrows a
  // shared heap copy. Same events, same execution side, either way.
  EXPECT_TRUE(GotM->Buf.borrowed());
  EXPECT_TRUE(GotH->Buf.borrowed());
  EXPECT_EQ(GotM->ExecSide.ReturnValue, 11u);
  EXPECT_EQ(GotH->ExecSide.ReturnValue, 11u);
  EXPECT_EQ(decodeAll(GotM->Buf), Expected);
  EXPECT_EQ(decodeAll(GotH->Buf), Expected);

  // And both replay identically through a real machine.
  sim::MemorySystem FromMap((*sim::MachineConfig::byName("pentium4")));
  sim::MemorySystem FromHeap((*sim::MachineConfig::byName("pentium4")));
  ASSERT_TRUE(replay(GotM->Buf, FromMap));
  ASSERT_TRUE(replay(GotH->Buf, FromHeap));
  EXPECT_EQ(FromMap.stats(), FromHeap.stats());
  EXPECT_EQ(FromMap.cycles(), FromHeap.cycles());
}

TEST(TraceCacheTest, CorruptSpillFilesAreACleanMissAndUnlinked) {
  std::string Dir = ::testing::TempDir() + "/spf-corrupt-spill";
  std::filesystem::remove_all(Dir);
  {
    harness::TraceCache Cache(1 << 20, Dir);
    harness::TraceCache::Entry E = makeEntry(300, 5);
    Cache.insert("wl|CORRUPT", std::move(E.Buf), E.ExecSide);
    ASSERT_GE(Cache.stats().SpillStores, 1u);
  }
  auto Files = spillFiles(Dir);
  ASSERT_EQ(Files.size(), 1u);
  std::string Path = Files[0].string();
  std::string Good;
  {
    std::ifstream IS(Path, std::ios::binary);
    std::stringstream SS;
    SS << IS.rdbuf();
    Good = SS.str();
  }
  ASSERT_GT(Good.size(), 64u);

  uint64_t Rng = 0x5b111bad;
  auto RunCase = [&](const std::string &Bytes, bool UseMmap,
                     const std::string &What) {
    {
      std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
      OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    }
    harness::TraceCache Fresh(1 << 20, Dir, UseMmap);
    EXPECT_EQ(Fresh.lookup("wl|CORRUPT"), nullptr) << What;
    EXPECT_EQ(Fresh.stats().SpillDecodeErrors, 1u) << What;
    EXPECT_EQ(Fresh.stats().Misses, 1u) << What;
    // The bad file is unlinked, so the next sweep re-records instead of
    // tripping over it again.
    EXPECT_TRUE(spillFiles(Dir).empty()) << What;
  };

  for (bool UseMmap : {true, false}) {
    std::string Mode = UseMmap ? " (mmap)" : " (heap)";
    // Truncations at every byte offset, including the empty file.
    for (size_t Len = 0; Len != Good.size(); ++Len)
      RunCase(Good.substr(0, Len), UseMmap,
              "truncated at " + std::to_string(Len) + Mode);
    // Seeded single-bit flips across the whole blob.
    for (unsigned Round = 0; Round != 200; ++Round) {
      size_t Byte = splitmix64(Rng) % Good.size();
      std::string Bad = Good;
      Bad[Byte] = static_cast<char>(Bad[Byte] ^ (1u << (splitmix64(Rng) % 8)));
      RunCase(Bad, UseMmap,
              "bit flip at " + std::to_string(Byte) + Mode);
    }
  }

  // The pristine blob still loads (sanity that only corruption misses).
  {
    std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
    OS.write(Good.data(), static_cast<std::streamsize>(Good.size()));
  }
  harness::TraceCache Fresh(1 << 20, Dir);
  auto Got = Fresh.lookup("wl|CORRUPT");
  ASSERT_NE(Got, nullptr);
  EXPECT_EQ(Got->ExecSide.ReturnValue, 5u);
}

TEST(TraceCacheTest, FailedSpillPublishIsCountedAndLeavesNoTmpFile) {
  // Learn the deterministic spill file name for the signature.
  std::string Probe = ::testing::TempDir() + "/spf-rename-probe";
  std::filesystem::remove_all(Probe);
  {
    harness::TraceCache Cache(1 << 20, Probe);
    harness::TraceCache::Entry E = makeEntry(50, 3);
    Cache.insert("wl|RENAME", std::move(E.Buf), E.ExecSide);
  }
  auto ProbeFiles = spillFiles(Probe);
  ASSERT_EQ(ProbeFiles.size(), 1u);
  std::string Name = ProbeFiles[0].filename().string();

  // Occupy that path with a non-empty directory: rename(2) cannot
  // replace it, so the publish must fail.
  std::string Dir = ::testing::TempDir() + "/spf-rename-fail";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir + "/" + Name + "/blocker");

  harness::TraceCache Cache(1 << 20, Dir);
  harness::TraceCache::Entry E = makeEntry(50, 3);
  Cache.insert("wl|RENAME", std::move(E.Buf), E.ExecSide);
  EXPECT_EQ(Cache.stats().SpillPublishErrors, 1u);

  // No temp-file litter: the only directory entry is our blocker.
  for (const std::filesystem::path &P : spillFiles(Dir))
    EXPECT_TRUE(std::filesystem::is_directory(P)) << P;

  // The in-memory entry still serves...
  EXPECT_NE(Cache.lookup("wl|RENAME"), nullptr);
  // ...but a fresh process finds nothing on disk (and no crash from the
  // directory squatting on the spill path).
  harness::TraceCache Fresh(1 << 20, Dir);
  EXPECT_EQ(Fresh.lookup("wl|RENAME"), nullptr);
}

// -- runPlan integration ----------------------------------------------------

TEST(RunPlanTraceTest, ReuseChangesNoStatisticAtAnyWorkerCount) {
  harness::ExperimentPlan Plan;
  std::vector<const workloads::WorkloadSpec *> Specs = {
      workloads::findWorkload("jess"), workloads::findWorkload("db")};
  ASSERT_TRUE(Specs[0] && Specs[1]);
  Plan.addSweep(Specs,
                {workloads::Algorithm::Baseline, workloads::Algorithm::Inter,
                 workloads::Algorithm::InterIntra},
                {(*sim::MachineConfig::byName("pentium4")),
                 (*sim::MachineConfig::byName("athlonmp"))},
                tinyConfig(), "trace");
  ASSERT_EQ(Plan.size(), 12u);

  harness::TraceOptions Off;
  Off.Enabled = false;
  harness::ExperimentResult Direct = harness::runPlan(Plan, 1, Off);
  EXPECT_FALSE(Direct.TraceEnabled);

  for (unsigned Jobs : {1u, 8u}) {
    harness::ExperimentResult Reused =
        harness::runPlan(Plan, Jobs, harness::TraceOptions());
    EXPECT_TRUE(Reused.TraceEnabled);
    ASSERT_EQ(Reused.Cells.size(), Direct.Cells.size());
    for (unsigned I = 0; I != Plan.size(); ++I) {
      const workloads::RunResult &D = Direct.run(I);
      const workloads::RunResult &R = Reused.run(I);
      std::string Tag = Plan.cells()[I].Spec->Name + " cell " +
                        std::to_string(I) + " jobs " + std::to_string(Jobs);
      EXPECT_EQ(R.CompiledCycles, D.CompiledCycles) << Tag;
      EXPECT_EQ(R.Mem, D.Mem) << Tag;
      EXPECT_EQ(R.Sites, D.Sites) << Tag;
      EXPECT_EQ(R.Retired, D.Retired) << Tag;
      EXPECT_EQ(R.ReturnValue, D.ReturnValue) << Tag;
      EXPECT_EQ(R.SelfCheckOk, D.SelfCheckOk) << Tag;
      EXPECT_EQ(R.Exec.Retired, D.Exec.Retired) << Tag;
      EXPECT_EQ(R.Exec.PrefetchRelated, D.Exec.PrefetchRelated) << Tag;
      EXPECT_EQ(R.Exec.GcRuns, D.Exec.GcRuns) << Tag;
    }
    // At one worker the schedule is the plan order, so the two baseline
    // cells of each workload (P4 first, Athlon second) share one trace.
    if (Jobs == 1) {
      EXPECT_GE(Reused.Trace.Hits, 2u);
    }
  }
}

TEST(RunPlanTraceTest, JsonReportCarriesTraceFields) {
  harness::ExperimentPlan Plan;
  std::vector<const workloads::WorkloadSpec *> Specs = {
      workloads::findWorkload("db")};
  ASSERT_TRUE(Specs[0]);
  Plan.addSweep(Specs, {workloads::Algorithm::Baseline},
                {(*sim::MachineConfig::byName("pentium4")),
                 (*sim::MachineConfig::byName("athlonmp"))},
                tinyConfig(), "json");
  harness::ExperimentResult Result =
      harness::runPlan(Plan, 1, harness::TraceOptions());

  std::ostringstream OS;
  harness::writeJsonReport(OS, Plan, Result, 0.05, 1);
  std::string Json = OS.str();
  for (const char *Key :
       {"\"schema\":\"spf-sweep-v2\"", "\"l1_store_misses\"",
        "\"cycles_stalled_on_loads\"", "\"load_sites\"",
        "\"site_stats_hash\"", "\"replayed\"", "\"interpret_us\"",
        "\"replay_us\"", "\"trace\"", "\"hits\"", "\"budget_bytes\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key;

  // Two baseline cells, one signature: the second must have replayed.
  EXPECT_NE(Json.find("\"replayed\":true"), std::string::npos);
  EXPECT_EQ(Result.Trace.Hits, 1u);
  EXPECT_EQ(Result.Trace.Misses, 1u);
}

// -- Spill-directory budget, stale tmp cleanup, injected disk faults ---------

/// The on-disk size of one makeEntry(300, ...) spill file, measured so
/// the budget tests track the codec instead of hard-coding sizes.
uintmax_t probeSpillFileBytes() {
  std::string Dir = ::testing::TempDir() + "/spf-spill-probe";
  std::filesystem::remove_all(Dir);
  harness::TraceCache Cache(1 << 20, Dir);
  harness::TraceCache::Entry E = makeEntry(300, 0);
  Cache.insert("wl-probe|SIZE", std::move(E.Buf), E.ExecSide);
  auto Files = spillFiles(Dir);
  return Files.size() == 1 ? std::filesystem::file_size(Files[0]) : 0;
}

TEST(SpillBudgetTest, DirectoryBudgetEvictsLeastRecentlyReplayedFiles) {
  std::string Dir = ::testing::TempDir() + "/spf-spill-budget";
  std::filesystem::remove_all(Dir);
  const uintmax_t One = probeSpillFileBytes();
  ASSERT_GT(One, 0u);

  // Room for two files and change — the third insert must evict.
  const size_t Budget = static_cast<size_t>(One * 5 / 2);
  harness::TraceCache Cache(1 << 20, Dir, harness::TraceCache::mmapFromEnv(),
                            Budget);
  harness::TraceCache::Entry A = makeEntry(300, 1), B = makeEntry(300, 2),
                             C = makeEntry(300, 3), D = makeEntry(300, 4);
  Cache.insert("wl-a|BUDGET", std::move(A.Buf), A.ExecSide);
  Cache.insert("wl-b|BUDGET", std::move(B.Buf), B.ExecSide);
  Cache.insert("wl-c|BUDGET", std::move(C.Buf), C.ExecSide);
  Cache.insert("wl-d|BUDGET", std::move(D.Buf), D.ExecSide);
  EXPECT_GT(Cache.stats().SpillEvictions, 0u);

  // The directory really shrank: total bytes fit the budget.
  uintmax_t Total = 0;
  for (const std::filesystem::path &P : spillFiles(Dir))
    Total += std::filesystem::file_size(P);
  EXPECT_LE(Total, Budget);

  // The newest spill survives on disk for a fresh process; the oldest
  // was evicted and reads as a clean miss.
  harness::TraceCache Fresh(1 << 20, Dir);
  EXPECT_NE(Fresh.lookup("wl-d|BUDGET"), nullptr);
  EXPECT_EQ(Fresh.lookup("wl-a|BUDGET"), nullptr);
}

TEST(SpillBudgetTest, ZeroBudgetMeansUnlimited) {
  std::string Dir = ::testing::TempDir() + "/spf-spill-unlimited";
  std::filesystem::remove_all(Dir);
  harness::TraceCache Cache(1 << 20, Dir, harness::TraceCache::mmapFromEnv(),
                            /*SpillBudgetBytes=*/0);
  for (unsigned I = 0; I != 6; ++I) {
    harness::TraceCache::Entry E = makeEntry(300, I);
    Cache.insert("wl-" + std::to_string(I) + "|NOLIMIT", std::move(E.Buf),
                 E.ExecSide);
  }
  EXPECT_EQ(Cache.stats().SpillEvictions, 0u);
  EXPECT_EQ(spillFiles(Dir).size(), 6u);
}

TEST(SpillBudgetTest, ReplayRefreshesASpillFilesLruPosition) {
  std::string Dir = ::testing::TempDir() + "/spf-spill-touch";
  std::filesystem::remove_all(Dir);
  // In-memory budget 0: every lookup goes to disk, exercising the
  // touch-on-replay path. The spill budget holds two files, not three.
  const uintmax_t One = probeSpillFileBytes();
  ASSERT_GT(One, 0u);
  harness::TraceCache Cache(0, Dir, harness::TraceCache::mmapFromEnv(),
                            static_cast<size_t>(One * 5 / 2));
  harness::TraceCache::Entry A = makeEntry(300, 1), B = makeEntry(300, 2),
                             C = makeEntry(300, 3);
  Cache.insert("wl-a|TOUCH", std::move(A.Buf), A.ExecSide);
  Cache.insert("wl-b|TOUCH", std::move(B.Buf), B.ExecSide);
  ASSERT_NE(Cache.lookup("wl-a|TOUCH"), nullptr); // A is now hottest.
  Cache.insert("wl-c|TOUCH", std::move(C.Buf), C.ExecSide); // Evicts B.

  EXPECT_NE(Cache.lookup("wl-a|TOUCH"), nullptr);
  EXPECT_EQ(Cache.lookup("wl-b|TOUCH"), nullptr);
  EXPECT_NE(Cache.lookup("wl-c|TOUCH"), nullptr);
}

TEST(SpillBudgetTest, StaleTmpFilesAreSweptAtOpenLiveOnesSpared) {
  std::string Dir = ::testing::TempDir() + "/spf-stale-tmp";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);

  // A crashed writer's tmp file: pid 999999999 cannot exist (beyond
  // kernel.pid_max), so the liveness probe fails and the file goes.
  std::string Stale = Dir + "/spf-trace-dead.tmp.999999999";
  // Our own pid is alive: its tmp file must be spared (a supervised
  // sibling worker could be mid-publish).
  std::string Live =
      Dir + "/spf-trace-live.tmp." + std::to_string(::getpid());
  // An unparsable suffix is debris too.
  std::string Junk = Dir + "/spf-trace-junk.tmp.notanumber";
  for (const std::string &P : {Stale, Live, Junk})
    std::ofstream(P) << "x";

  harness::TraceCache Cache(1 << 20, Dir);
  EXPECT_EQ(Cache.stats().StaleTmpRemoved, 2u);
  EXPECT_FALSE(std::filesystem::exists(Stale));
  EXPECT_TRUE(std::filesystem::exists(Live));
  EXPECT_FALSE(std::filesystem::exists(Junk));
}

TEST(SpillFaultTest, InjectedWriteFaultCountsAPublishErrorAndDegrades) {
  std::string Dir = ::testing::TempDir() + "/spf-spill-fault";
  std::filesystem::remove_all(Dir);
  harness::TraceCache Cache(1 << 20, Dir);

  auto C = support::FaultConfig::parse("disk-write:1:13");
  ASSERT_TRUE(C.has_value());
  support::FaultInjector Inj(*C);
  harness::TraceCache::Entry E = makeEntry(100, 7);
  {
    support::FaultScope Scope(Inj);
    Cache.insert("wl|FAULT", std::move(E.Buf), E.ExecSide);
  }
  EXPECT_EQ(Cache.stats().SpillPublishErrors, 1u);
  EXPECT_TRUE(spillFiles(Dir).empty()); // Nothing landed, no tmp litter.
  // The in-memory entry still serves: the sweep degrades, never breaks.
  EXPECT_NE(Cache.lookup("wl|FAULT"), nullptr);
}

} // namespace
