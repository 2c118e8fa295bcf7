//===- cache/Hierarchy.cpp ------------------------------------*- C++ -*-===//

#include "cache/Hierarchy.h"

#include <algorithm>

using namespace structslim;
using namespace structslim::cache;

const char *structslim::cache::memLevelName(MemLevel Level) {
  switch (Level) {
  case MemLevel::L1:
    return "L1";
  case MemLevel::L2:
    return "L2";
  case MemLevel::L3:
    return "L3";
  case MemLevel::Dram:
    return "DRAM";
  }
  return "?";
}

StridePrefetcher::StridePrefetcher(size_t NumEntries) {
  size_t Rounded = 1;
  while (Rounded < NumEntries)
    Rounded *= 2;
  Table.assign(Rounded, Entry());
  IndexShift = 64;
  while ((1ull << (64 - IndexShift)) < Rounded)
    --IndexShift;
}

size_t StridePrefetcher::indexFor(uint64_t Ip, size_t NumEntries) {
  unsigned Bits = 0;
  while ((1ull << Bits) < NumEntries)
    ++Bits;
  if (Bits == 0)
    return 0;
  return static_cast<size_t>((Ip * 0x9e3779b97f4a7c15ULL) >> (64 - Bits));
}

unsigned StridePrefetcher::observe(uint64_t Ip, uint64_t Addr,
                                   unsigned LineSize, unsigned Degree,
                                   uint64_t *Out) {
  Entry &E = Table[IndexShift == 64
                       ? 0
                       : (Ip * 0x9e3779b97f4a7c15ULL) >> IndexShift];
  if (!E.Valid || E.Ip != Ip) {
    E = {Ip, Addr, 0, 0, true};
    return 0;
  }
  int64_t Stride = static_cast<int64_t>(Addr) -
                   static_cast<int64_t>(E.LastAddr);
  if (Stride != 0 && Stride == E.Stride)
    E.Confidence = std::min(E.Confidence + 1, 4u);
  else
    E.Confidence = 0;
  E.Stride = Stride;
  E.LastAddr = Addr;
  if (E.Confidence < 2 || Stride == 0)
    return 0;

  unsigned Count = 0;
  for (unsigned D = 1; D <= Degree; ++D) {
    uint64_t Target = Addr + static_cast<uint64_t>(Stride) * D;
    Out[Count++] = Target / LineSize;
  }
  Issued += Count;
  return Count;
}

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &Config,
                                 SetAssocCache *SharedL3)
    : Config(Config), L1(Config.L1), L2(Config.L2),
      Prefetcher(Config.PrefetchTableEntries), Dtlb(Config.Tlb) {
  if (SharedL3) {
    L3Ptr = SharedL3;
  } else {
    OwnedL3 = std::make_unique<SetAssocCache>(Config.L3);
    L3Ptr = OwnedL3.get();
  }
  // The SetAssocCache constructor already rejected non-power-of-two
  // line sizes.
  LineShift = 0;
  while ((1u << LineShift) < Config.L1.LineSize)
    ++LineShift;
  Mode = (Config.EnableTlb ? 1 : 0) | (Config.EnablePrefetcher ? 2 : 0);
}

AccessResult MemoryHierarchy::accessSlow(uint64_t Addr, unsigned Size,
                                         uint64_t Ip, uint64_t FirstLine,
                                         uint64_t LastLine) {
  (void)Size;
  AccessResult Result;
  if ((Mode & 1) && !Dtlb.access(Addr)) {
    Result.TlbMiss = true;
    Result.Latency += Config.Tlb.WalkLatency;
  }
  unsigned LineLatency = 0;
  Result.Served = accessLine(FirstLine, LineLatency);
  Result.Latency += LineLatency;
  if (LastLine != FirstLine) {
    unsigned Latency2 = 0;
    MemLevel Served2 = accessLine(LastLine, Latency2);
    if (Latency2 > LineLatency) {
      // The slower line dominates the line component of the latency.
      Result.Latency += Latency2 - LineLatency;
      Result.Served = Served2;
    }
  }

  if (Mode & 2) {
    uint64_t Candidates[8];
    unsigned Degree = std::min(Config.PrefetchDegree, 8u);
    unsigned Count = Prefetcher.observe(Ip, Addr, Config.L1.LineSize,
                                        Degree, Candidates);
    // Prefetches fill L2 (and L3 on the way), not L1, matching the
    // mid-level prefetchers on the paper's hardware.
    for (unsigned I = 0; I != Count; ++I) {
      L3Ptr->installPrefetch(Candidates[I]);
      L2.installPrefetch(Candidates[I]);
    }
  }
  return Result;
}

void MemoryHierarchy::resetCounters() {
  L1.resetCounters();
  L2.resetCounters();
  L3Ptr->resetCounters();
  Dtlb.resetCounters();
}
