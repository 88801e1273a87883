//===- sim/Tlb.h - Data TLB model -------------------------------*- C++ -*-===//
///
/// \file
/// LRU data TLB. DTLB behaviour is central to the paper's evaluation: a
/// hardware prefetch is cancelled when it would miss the DTLB, and guarded
/// loads are used precisely to fill DTLB entries in advance ("TLB priming",
/// Section 3.3); Figure 10 reports DTLB load MPIs.
///
/// The TLB sits on the hottest per-event path of trace replay (every
/// demand access translates), and a miss-heavy workload misses it
/// millions of times per sweep, so every operation is O(1). The page
/// table is a fixed-capacity open-addressed hash table in flat arrays —
/// one multiply-shift hash plus a short linear probe per lookup, no node
/// allocation. Recency is an intrusive doubly linked list threaded
/// through the same slots (Prev/Next indices, MRU at the head): a touch
/// moves the slot to the head and eviction tombstones the tail. A
/// one-entry MRU filter (always the list head) short-circuits same-page
/// runs with no list work at all. The table is rebuilt in place, tail
/// to head, when tombstones would stretch probe chains. All of it is
/// bookkeeping layout only: hit/miss decisions and eviction order are
/// bit-identical to the classic linked-list LRU.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_SIM_TLB_H
#define SPF_SIM_TLB_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace spf {
namespace sim {

/// Fully-associative LRU TLB with O(1) lookup, touch and eviction.
class Tlb {
public:
  Tlb(unsigned Entries, unsigned PageBytes);

  unsigned pageBytes() const { return PageBytes; }

  /// Demand translation: returns true on hit. On a miss the entry is
  /// filled (the page walk happened); the caller charges the penalty.
  bool access(uint64_t Addr) {
    uint64_t Page = pageOf(Addr);
    ++DemandAccesses;
    if (Page == MruPage) // Already the list head: nothing to move.
      return true;
    return accessSlow(Page);
  }

  /// "No hit" result of peekHit().
  static constexpr size_t NoSlot = ~size_t(0);

  /// Pure probe for the replay fast path: the slot of \p Addr's resident
  /// entry, or NoSlot. No state changes; pair with commitHit().
  size_t peekHit(uint64_t Addr) const {
    uint64_t Page = pageOf(Addr);
    if (Page == MruPage)
      return Head;
    return findSlot(Page);
  }

  /// Commits the demand hit peekHit() found — exactly access()'s hit
  /// path (demand-access count, move to the list head, MRU repoint).
  void commitHit(size_t Slot) {
    ++DemandAccesses;
    touch(static_cast<uint32_t>(Slot));
  }

  /// Register-resident counter window for a block of commits — same
  /// contract as Cache::BlockCursor: flush() before any non-cursor call
  /// on this TLB and at the end of the block.
  class BlockCursor {
  public:
    explicit BlockCursor(Tlb &T) : T(T), DemandAccesses(T.DemandAccesses) {}

    size_t peekHit(uint64_t Addr) const { return T.peekHit(Addr); }

    /// Exactly Tlb::commitHit, the counter held in the cursor.
    void commitHit(size_t Slot) {
      ++DemandAccesses;
      T.touch(static_cast<uint32_t>(Slot));
    }

    void flush() { T.DemandAccesses = DemandAccesses; }
    void reload() { DemandAccesses = T.DemandAccesses; }

  private:
    Tlb &T;
    uint64_t DemandAccesses;
  };

  /// Probe without filling: the cancellation check of a hardware prefetch.
  /// The MRU entry is always present in the table, so checking it first
  /// is pure fast path.
  bool contains(uint64_t Addr) const {
    uint64_t Page = pageOf(Addr);
    if (Page == MruPage)
      return true;
    return findSlot(Page) != NotFound;
  }

  /// Fills the entry for \p Addr without counting a demand access
  /// (TLB priming by a guarded load).
  void fill(uint64_t Addr);

  void reset();

  uint64_t demandAccesses() const { return DemandAccesses; }
  uint64_t demandMisses() const { return DemandMisses; }
  /// Tombstone compactions so far (survives reset(), like the counters).
  uint64_t rebuilds() const { return Rebuilds; }

private:
  bool accessSlow(uint64_t Page);
  void insertPage(uint64_t Page);
  void evictLru();
  void rebuild();

  /// Makes live slot \p I the most recently used: moves it to the list
  /// head and points the MRU filter at it. O(1); a no-op on the head.
  void touch(uint32_t I) {
    if (I != Head) {
      // I is not the head, so it has a predecessor.
      uint32_t P = Prev[I], N = Next[I];
      Next[P] = N;
      if (N != Nil)
        Prev[N] = P;
      else
        Tail = P;
      pushFront(I);
    }
    MruPage = Pages[I];
  }

  /// Links unlinked slot \p I in as the list head.
  void pushFront(uint32_t I) {
    Prev[I] = Nil;
    Next[I] = Head;
    if (Head != Nil)
      Prev[Head] = I;
    else
      Tail = I;
    Head = I;
  }

  /// Page number of \p Addr: a shift for power-of-two page sizes (the
  /// universal case; PageShift 0 falls back to division). Page sizes of
  /// at least 2 keep every page number below the sentinels.
  uint64_t pageOf(uint64_t Addr) const {
    return PageShift ? Addr >> PageShift : Addr / PageBytes;
  }

  static constexpr size_t NotFound = ~size_t(0);
  /// Slot sentinels — the two top page numbers, unreachable for any
  /// page size >= 2. A tombstone keeps probe chains intact across the
  /// eviction that deleted it.
  static constexpr uint64_t EmptyPage = ~uint64_t(0);
  static constexpr uint64_t TombPage = ~uint64_t(0) - 1;
  /// MRU-invalid marker (doubles as "no page": equals EmptyPage).
  static constexpr uint64_t NoPage = ~uint64_t(0);
  /// End of the recency list.
  static constexpr uint32_t Nil = ~uint32_t(0);

  size_t hashIdx(uint64_t Page) const {
    return static_cast<size_t>((Page * 0x9E3779B97F4A7C15ull) >> HashShift);
  }

  /// Index of \p Page's live slot, or NotFound. Pure.
  size_t findSlot(uint64_t Page) const {
    size_t I = hashIdx(Page);
    for (;;) {
      uint64_t P = Pages[I];
      if (P == Page)
        return I;
      if (P == EmptyPage)
        return NotFound;
      I = (I + 1) & Mask;
    }
  }

  unsigned Entries;
  unsigned PageBytes;
  unsigned PageShift;
  unsigned HashShift;
  size_t Mask;                 ///< Capacity - 1 (capacity is a power of two).
  std::vector<uint64_t> Pages; ///< Page per slot, or a sentinel.
  /// Recency list over the live slots, parallel to Pages: Prev points
  /// toward the MRU head, Next toward the LRU tail. Meaningless for
  /// empty and tombstoned slots.
  std::vector<uint32_t> Prev;
  std::vector<uint32_t> Next;
  uint32_t Head = Nil; ///< Most recently used live slot.
  uint32_t Tail = Nil; ///< Least recently used live slot: the victim.
  size_t LiveCount = 0; ///< Resident entries (<= Entries).
  size_t UsedCount = 0; ///< Live + tombstoned slots.
  /// One-entry MRU filter: NoPage = invalid; otherwise Pages[Head] ==
  /// MruPage (every touch moves its slot to the head; eviction of the
  /// head and reset() invalidate the filter).
  uint64_t MruPage = NoPage;

  uint64_t DemandAccesses = 0;
  uint64_t DemandMisses = 0;
  uint64_t Rebuilds = 0;
};

} // namespace sim
} // namespace spf

#endif // SPF_SIM_TLB_H
