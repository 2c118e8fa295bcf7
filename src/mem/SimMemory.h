//===- mem/SimMemory.h - Paged simulated address space ---------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sparse 64-bit byte-addressable memory backed by 4 KiB pages. The
/// interpreter stores real values here so pointer-chasing workloads
/// (TSP, Health, CLOMP) produce genuine data-dependent address streams,
/// exactly what the sampled PMU observes on hardware.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_MEM_SIMMEMORY_H
#define STRUCTSLIM_MEM_SIMMEMORY_H

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

namespace structslim {
namespace mem {

/// Sparse paged memory. Unwritten bytes read as zero.
class SimMemory {
public:
  static constexpr uint64_t PageBits = 12;
  static constexpr uint64_t PageSize = 1ull << PageBits;

  /// Reads \p Size (1/2/4/8) bytes at \p Addr, little-endian,
  /// zero-extended.
  uint64_t read(uint64_t Addr, unsigned Size) const;

  /// Writes the low \p Size bytes of \p Value at \p Addr.
  void write(uint64_t Addr, unsigned Size, uint64_t Value);

  /// Number of pages materialized so far (footprint metric).
  size_t getNumPages() const { return Pages.size(); }

  /// Raw page storage for \p PageIndex, or nullptr if the page has not
  /// been materialized (its bytes read as zero).
  uint8_t *pageDataIfPresent(uint64_t PageIndex) {
    auto It = Pages.find(PageIndex);
    return It == Pages.end() ? nullptr : It->second->data();
  }

  /// Raw page storage for \p PageIndex, materializing it if absent.
  uint8_t *pageDataForWrite(uint64_t PageIndex) {
    return getOrCreatePage(PageIndex).data();
  }

private:
  using Page = std::array<uint8_t, PageSize>;

  const Page *findPage(uint64_t PageIndex) const {
    auto It = Pages.find(PageIndex);
    return It == Pages.end() ? nullptr : It->second.get();
  }

  Page &getOrCreatePage(uint64_t PageIndex);

  // Pages are heap-stable and never freed, so a page pointer handed out
  // stays valid for the memory's lifetime.
  std::unordered_map<uint64_t, std::unique_ptr<Page>> Pages;
};

/// Small direct-mapped cache of page base pointers, owned by one
/// interpreter. Hit path for an aligned same-page access is an index
/// mask, a tag compare, and a fixed-size memcpy — no unordered_map
/// probe. Only present pages are ever cached, and SimMemory never frees
/// or moves a page, so an entry never goes stale; straddling accesses
/// and absent pages fall back to SimMemory.
class PageAccessCache {
public:
  explicit PageAccessCache(SimMemory &Mem) : Mem(&Mem) {}

  uint64_t read(uint64_t Addr, unsigned Size) {
    uint64_t Offset = Addr & (SimMemory::PageSize - 1);
    if (Offset + Size <= SimMemory::PageSize) {
      if (const uint8_t *Data = find(Addr >> SimMemory::PageBits))
        return loadLE(Data + Offset, Size);
      return readMiss(Addr, Size);
    }
    return Mem->read(Addr, Size);
  }

  void write(uint64_t Addr, unsigned Size, uint64_t Value) {
    uint64_t Offset = Addr & (SimMemory::PageSize - 1);
    if (Offset + Size <= SimMemory::PageSize) {
      uint8_t *Data = find(Addr >> SimMemory::PageBits);
      if (!Data)
        Data = writeMiss(Addr >> SimMemory::PageBits);
      storeLE(Data + Offset, Size, Value);
      return;
    }
    Mem->write(Addr, Size, Value); // straddle: let SimMemory split it
  }

private:
  static constexpr size_t NumEntries = 64;
  struct Entry {
    uint64_t PageIndex = ~0ull;
    uint8_t *Data = nullptr;
  };

  uint8_t *find(uint64_t PageIndex) {
    Entry &E = Entries[PageIndex & (NumEntries - 1)];
    return E.PageIndex == PageIndex ? E.Data : nullptr;
  }

  uint64_t readMiss(uint64_t Addr, unsigned Size) {
    uint64_t PageIndex = Addr >> SimMemory::PageBits;
    uint8_t *Data = Mem->pageDataIfPresent(PageIndex);
    if (!Data)
      return 0; // absent pages read as zero and are never cached
    Entries[PageIndex & (NumEntries - 1)] = {PageIndex, Data};
    return loadLE(Data + (Addr & (SimMemory::PageSize - 1)), Size);
  }

  uint8_t *writeMiss(uint64_t PageIndex) {
    uint8_t *Data = Mem->pageDataForWrite(PageIndex);
    Entries[PageIndex & (NumEntries - 1)] = {PageIndex, Data};
    return Data;
  }

  static uint64_t loadLE(const uint8_t *P, unsigned Size) {
    switch (Size) {
    case 1:
      return *P;
    case 2: {
      uint16_t V;
      std::memcpy(&V, P, 2);
      return V;
    }
    case 4: {
      uint32_t V;
      std::memcpy(&V, P, 4);
      return V;
    }
    default: {
      uint64_t V;
      std::memcpy(&V, P, 8);
      return V;
    }
    }
  }

  static void storeLE(uint8_t *P, unsigned Size, uint64_t Value) {
    switch (Size) {
    case 1:
      *P = static_cast<uint8_t>(Value);
      return;
    case 2: {
      uint16_t V = static_cast<uint16_t>(Value);
      std::memcpy(P, &V, 2);
      return;
    }
    case 4: {
      uint32_t V = static_cast<uint32_t>(Value);
      std::memcpy(P, &V, 4);
      return;
    }
    default:
      std::memcpy(P, &Value, 8);
      return;
    }
  }

  SimMemory *Mem;
  std::array<Entry, NumEntries> Entries;
};

} // namespace mem
} // namespace structslim

#endif // STRUCTSLIM_MEM_SIMMEMORY_H
