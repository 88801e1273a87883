//===- sim/Tlb.cpp --------------------------------------------------------===//

#include "sim/Tlb.h"

#include <cassert>

using namespace spf;
using namespace spf::sim;

Tlb::Tlb(unsigned Entries, unsigned PageBytes)
    : Entries(Entries), PageBytes(PageBytes),
      PageShift((PageBytes & (PageBytes - 1)) == 0
                    ? static_cast<unsigned>(std::countr_zero(PageBytes))
                    : 0) {
  // Capacity 2x the entry count (power of two, >= 8): at most half the
  // slots are ever live, keeping linear probes short.
  size_t Cap = std::bit_ceil(static_cast<size_t>(Entries ? Entries : 1) * 2);
  if (Cap < 8)
    Cap = 8;
  assert(Cap < Nil && "slot indices must fit the 32-bit recency links");
  Mask = Cap - 1;
  HashShift = 64 - static_cast<unsigned>(std::countr_zero(Cap));
  Pages.assign(Cap, EmptyPage);
  Prev.assign(Cap, Nil);
  Next.assign(Cap, Nil);
}

bool Tlb::accessSlow(uint64_t Page) {
  size_t I = findSlot(Page);
  if (I != NotFound) {
    touch(static_cast<uint32_t>(I));
    return true;
  }
  ++DemandMisses;
  insertPage(Page);
  return false;
}

void Tlb::evictLru() {
  // The tail is the least recently touched entry: exact LRU in O(1).
  uint32_t Victim = Tail;
  Tail = Prev[Victim];
  if (Tail != Nil) {
    Next[Tail] = Nil;
  } else { // The victim was the only entry (Entries == 1): the MRU.
    Head = Nil;
    MruPage = NoPage;
  }
  Pages[Victim] = TombPage;
  --LiveCount;
}

void Tlb::rebuild() {
  // Drop tombstones. Re-inserting the live entries from the LRU tail to
  // the MRU head, each pushed to the front, reproduces the recency list
  // exactly, so slot placement stays unobservable.
  std::vector<uint64_t> OldPages = std::move(Pages);
  std::vector<uint32_t> OldPrev = std::move(Prev);
  size_t Cap = Mask + 1;
  Pages.assign(Cap, EmptyPage);
  Prev.assign(Cap, Nil);
  UsedCount = LiveCount;
  ++Rebuilds;
  uint32_t Old = Tail;
  Head = Tail = Nil;
  for (; Old != Nil; Old = OldPrev[Old]) {
    size_t J = hashIdx(OldPages[Old]);
    while (Pages[J] != EmptyPage)
      J = (J + 1) & Mask;
    Pages[J] = OldPages[Old];
    pushFront(static_cast<uint32_t>(J));
  }
}

void Tlb::insertPage(uint64_t Page) {
  if (LiveCount >= Entries)
    evictLru();
  if ((UsedCount + 1) * 4 > (Mask + 1) * 3)
    rebuild();
  // The caller guarantees Page is absent, so the first tombstone (or the
  // terminal empty slot) on its probe chain is a valid home.
  size_t I = hashIdx(Page);
  for (;;) {
    uint64_t P = Pages[I];
    if (P == TombPage)
      break;
    if (P == EmptyPage) {
      ++UsedCount;
      break;
    }
    I = (I + 1) & Mask;
  }
  Pages[I] = Page;
  ++LiveCount;
  pushFront(static_cast<uint32_t>(I));
  MruPage = Page;
}

void Tlb::fill(uint64_t Addr) {
  uint64_t Page = pageOf(Addr);
  if (Page == MruPage)
    return;
  size_t I = findSlot(Page);
  if (I != NotFound)
    touch(static_cast<uint32_t>(I));
  else
    insertPage(Page);
}

void Tlb::reset() {
  Pages.assign(Pages.size(), EmptyPage);
  Head = Tail = Nil;
  LiveCount = 0;
  UsedCount = 0;
  MruPage = NoPage;
}
