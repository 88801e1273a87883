//===- vm/Heap.cpp --------------------------------------------------------===//

#include "vm/Heap.h"

#include "support/ErrorHandling.h"

#include <new>

#include <sys/mman.h>

using namespace spf;
using namespace spf::vm;

static uint64_t alignUp8(uint64_t N) { return (N + 7) & ~7ull; }

/// Reserves \p Bytes of zero-reading memory that the kernel commits page by
/// page on first touch, so an untouched heap costs neither page faults nor
/// resident memory.
static uint8_t *mapZeroed(uint64_t Bytes) {
  if (Bytes == 0)
    return nullptr;
  void *P = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  return static_cast<uint8_t *>(P);
}

Heap::Heap(const TypeTable &Types, Config Cfg)
    : Types(Types), Cfg(Cfg) {
  assert(Cfg.StaticsBase + Cfg.StaticsBytes <= Cfg.HeapBase &&
         "statics area must not overlap the heap");
  Storage = mapZeroed(Cfg.HeapBytes);
  try {
    StaticsStorage = mapZeroed(Cfg.StaticsBytes);
  } catch (...) {
    if (Storage)
      ::munmap(Storage, Cfg.HeapBytes);
    throw;
  }
}

Heap::~Heap() {
  if (Storage)
    ::munmap(Storage, Cfg.HeapBytes);
  if (StaticsStorage)
    ::munmap(StaticsStorage, Cfg.StaticsBytes);
}

void Heap::formatFiller(Addr A, uint64_t Size) {
  assert(Size >= ObjectHeaderSize && (Size & 7) == 0 && "unparseable hole");
  uint64_t Length = (Size - ObjectHeaderSize) / 8;
  std::memset(ptr(A), 0, ObjectHeaderSize);
  uint32_t Id = static_cast<uint32_t>(ir::Type::I64);
  uint32_t Flags = HF_IsArray;
  std::memcpy(ptr(A), &Id, 4);
  std::memcpy(ptr(A) + 4, &Flags, 4);
  std::memcpy(ptr(A) + ArrayLengthOffset, &Length, 8);
}

void Heap::addFreeBlock(uint64_t Offset, uint64_t Size) {
  formatFiller(Cfg.HeapBase + Offset, Size);
  FreeList.push_back({Offset, Size});
  FreeBytes += Size;
}

Addr Heap::allocFromFreeList(uint64_t Size) {
  for (size_t I = 0, E = FreeList.size(); I != E; ++I) {
    FreeBlock &B = FreeList[I];
    if (B.Size < Size)
      continue;
    uint64_t Rest = B.Size - Size;
    // The remainder must itself be a formattable filler (or nothing);
    // a sub-header sliver would break linear heap walks.
    if (Rest != 0 && Rest < ObjectHeaderSize)
      continue;
    uint64_t Offset = B.Offset;
    FreeBytes -= Size;
    if (Rest != 0) {
      B.Offset = Offset + Size;
      B.Size = Rest;
      formatFiller(Cfg.HeapBase + B.Offset, Rest);
    } else {
      FreeList[I] = FreeList.back();
      FreeList.pop_back();
    }
    return Cfg.HeapBase + Offset;
  }
  return 0;
}

Addr Heap::allocObject(const ClassDesc &Cls) {
  uint64_t Size = alignUp8(Cls.instanceSize());
  Addr A = 0;
  if (!FreeList.empty())
    A = allocFromFreeList(Size);
  if (!A) {
    if (Top + Size > Cfg.HeapBytes)
      return 0;
    A = Cfg.HeapBase + Top;
    Top += Size;
  }
  ++NumAllocs;
  std::memset(ptr(A), 0, Size);
  uint32_t Id = Cls.id();
  std::memcpy(ptr(A), &Id, 4);
  return A;
}

Addr Heap::allocArray(ir::Type ElemTy, uint64_t Length) {
  uint64_t Size =
      alignUp8(ObjectHeaderSize + Length * ir::storageSize(ElemTy));
  Addr A = 0;
  if (!FreeList.empty())
    A = allocFromFreeList(Size);
  if (!A) {
    if (Top + Size > Cfg.HeapBytes)
      return 0;
    A = Cfg.HeapBase + Top;
    Top += Size;
  }
  ++NumAllocs;
  std::memset(ptr(A), 0, Size);
  uint32_t Id = static_cast<uint32_t>(ElemTy);
  uint32_t Flags = HF_IsArray;
  std::memcpy(ptr(A), &Id, 4);
  std::memcpy(ptr(A) + 4, &Flags, 4);
  std::memcpy(ptr(A) + ArrayLengthOffset, &Length, 8);
  return A;
}

Addr Heap::allocStatic(ir::Type Ty) {
  uint64_t Size = ir::storageSize(Ty);
  uint64_t Offset = (StaticsTop + Size - 1) / Size * Size;
  if (Offset + Size > Cfg.StaticsBytes)
    reportFatalError("statics area exhausted");
  StaticsTop = Offset + Size;
  Addr A = Cfg.StaticsBase + Offset;
  if (Ty == ir::Type::Ref)
    StaticRefSlots.push_back(A);
  return A;
}

bool Heap::isArray(Addr Obj) const {
  uint32_t Flags;
  std::memcpy(&Flags, ptr(Obj) + 4, 4);
  return Flags & HF_IsArray;
}

uint32_t Heap::descId(Addr Obj) const {
  uint32_t Id;
  std::memcpy(&Id, ptr(Obj), 4);
  return Id;
}

uint64_t Heap::arrayLength(Addr Obj) const {
  assert(isArray(Obj) && "arrayLength on a non-array");
  uint64_t Len;
  std::memcpy(&Len, ptr(Obj) + ArrayLengthOffset, 8);
  return Len;
}

ir::Type Heap::arrayElemType(Addr Obj) const {
  assert(isArray(Obj) && "arrayElemType on a non-array");
  return static_cast<ir::Type>(descId(Obj));
}

uint64_t Heap::objectSize(Addr Obj) const {
  if (isArray(Obj))
    return alignUp8(ObjectHeaderSize +
                    arrayLength(Obj) * ir::storageSize(arrayElemType(Obj)));
  const ClassDesc *Cls = Types.classById(descId(Obj));
  assert(Cls && "object with unknown class descriptor");
  return alignUp8(Cls->instanceSize());
}

bool Heap::marked(Addr Obj) const {
  uint32_t Flags;
  std::memcpy(&Flags, ptr(Obj) + 4, 4);
  return Flags & HF_Marked;
}

void Heap::setMarked(Addr Obj, bool M) {
  uint32_t Flags;
  std::memcpy(&Flags, ptr(Obj) + 4, 4);
  Flags = M ? (Flags | HF_Marked) : (Flags & ~HF_Marked);
  std::memcpy(ptr(Obj) + 4, &Flags, 4);
}

bool Heap::isObjectStart(Addr A) const {
  for (Addr Obj = Cfg.HeapBase, End = heapTop(); Obj < End;
       Obj += objectSize(Obj)) {
    if (Obj == A)
      return true;
    if (Obj > A)
      return false;
  }
  return false;
}
