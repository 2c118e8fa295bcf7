//===- cache/Hierarchy.h - L1/L2/L3/DRAM latency model ---------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Composes cache levels into the paper's testbed memory hierarchy:
/// private 32 KB L1d and 256 KB L2 per core, shared 20 MB L3, DRAM
/// behind it. Every access reports which level served it and at what
/// latency — the exact quantity PEBS-LL attaches to load samples. A
/// per-IP stride prefetcher can be enabled to model hardware
/// prefetching (the paper notes prefetchers recognize non-unit strides
/// but long strides still waste cache capacity).
///
/// The per-access path is kept branch-lean: the TLB/prefetcher
/// configuration is folded into one dispatch mode at construction, line
/// addresses use a precomputed shift instead of a division, and the
/// no-TLB/no-prefetcher configuration (every calibrated workload)
/// inlines from this header straight into the interpreter loop.
///
/// There is one access path, `access`, and both simulation placements
/// use it: the inline engine calls it from the interpreter, and the
/// decoupled pipeline's consumer (runtime/SimPipeline) calls it for each
/// queued record in ring order, which is the same order. The levels are
/// packed LRU caches (cache/Cache.h).
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_CACHE_HIERARCHY_H
#define STRUCTSLIM_CACHE_HIERARCHY_H

#include "cache/Cache.h"
#include "cache/Tlb.h"

#include <memory>
#include <vector>

namespace structslim {
namespace cache {

/// Which level served a memory access.
enum class MemLevel : uint8_t { L1 = 0, L2 = 1, L3 = 2, Dram = 3 };

/// Printable level name.
const char *memLevelName(MemLevel Level);

/// Outcome of one access through the hierarchy.
struct AccessResult {
  unsigned Latency = 0; ///< Includes the page-walk penalty on TLB miss.
  MemLevel Served = MemLevel::L1;
  bool TlbMiss = false;
};

/// Full hierarchy configuration. Defaults model the Xeon E5-4650L of
/// the paper's evaluation (Sec. 6).
struct HierarchyConfig {
  CacheConfig L1{"L1d", 32 * 1024, 8, 64, 4};
  CacheConfig L2{"L2", 256 * 1024, 8, 64, 12};
  CacheConfig L3{"L3", 20 * 1024 * 1024, 16, 64, 40};
  unsigned DramLatency = 200;
  bool EnablePrefetcher = false;
  unsigned PrefetchDegree = 2;
  /// Stride-prefetcher reference-prediction-table entries (rounded up
  /// to a power of two).
  size_t PrefetchTableEntries = 256;
  /// TLB modeling is opt-in so the default latency model matches the
  /// calibrated workloads; the ablation benches turn it on.
  bool EnableTlb = false;
  TlbConfig Tlb;
};

/// Per-IP stride prefetcher (reference-prediction-table style).
class StridePrefetcher {
public:
  struct Entry {
    uint64_t Ip = 0;
    uint64_t LastAddr = 0;
    int64_t Stride = 0;
    unsigned Confidence = 0;
    bool Valid = false;
  };

  /// \p NumEntries is rounded up to a power of two.
  explicit StridePrefetcher(size_t NumEntries = 256);

  /// Table index for \p Ip in a \p NumEntries-slot table (power of
  /// two). Takes the top log2(NumEntries) bits of the multiplicative
  /// hash — the full hash width participates, so tables larger than
  /// 256 entries use all their slots (the old `>> 56 & (N-1)` kept
  /// only 8 hash bits and could never index past slot 255).
  static size_t indexFor(uint64_t Ip, size_t NumEntries);

  /// Observes a demand access; returns the number of prefetch
  /// candidate line addresses written to \p Out (up to \p Degree).
  unsigned observe(uint64_t Ip, uint64_t Addr, unsigned LineSize,
                   unsigned Degree, uint64_t *Out);

  uint64_t getIssued() const { return Issued; }
  size_t getNumEntries() const { return Table.size(); }

private:
  std::vector<Entry> Table;
  unsigned IndexShift; ///< 64 - log2(Table.size()), precomputed.
  uint64_t Issued = 0;
};

/// One core's view of the memory hierarchy. The L3 may be shared: pass
/// a common SetAssocCache to every core's hierarchy. Sharing is safe
/// because the runtime never simulates two cores' accesses
/// concurrently: one thread (the executor, or the decoupled pipeline's
/// single consumer) drives every hierarchy of a phase.
class MemoryHierarchy {
public:
  explicit MemoryHierarchy(const HierarchyConfig &Config,
                           SetAssocCache *SharedL3 = nullptr);

  /// Simulates an access of \p Size bytes at \p Addr issued by
  /// instruction \p Ip. Accesses that straddle a line boundary touch
  /// both lines and report the slower one.
  AccessResult access(uint64_t Addr, unsigned Size, bool IsWrite,
                      uint64_t Ip) {
    (void)IsWrite; // Write-allocate with identical timing; PEBS-LL only
                   // samples loads, but the model treats both uniformly.
    uint64_t FirstLine = Addr >> LineShift;
    uint64_t LastLine = (Addr + Size - 1) >> LineShift;
    if (Mode == 0 && FirstLine == LastLine) {
      // Hot path: no TLB, no prefetcher, one line — the calibrated
      // workload configuration for all but straddling accesses.
      AccessResult Result;
      Result.Served = accessLine(FirstLine, Result.Latency);
      return Result;
    }
    return accessSlow(Addr, Size, Ip, FirstLine, LastLine);
  }

  uint8_t mode() const { return Mode; }
  unsigned lineShift() const { return LineShift; }

  SetAssocCache &l1() { return L1; }
  SetAssocCache &l2() { return L2; }
  SetAssocCache &l3() { return *L3Ptr; }
  const SetAssocCache &l1() const { return L1; }
  const SetAssocCache &l2() const { return L2; }
  const SetAssocCache &l3() const { return *L3Ptr; }
  const HierarchyConfig &getConfig() const { return Config; }
  const StridePrefetcher &getPrefetcher() const { return Prefetcher; }
  const Tlb &tlb() const { return Dtlb; }

  void resetCounters();

private:
  MemLevel accessLine(uint64_t LineAddr, unsigned &Latency) {
    if (L1.access(LineAddr)) {
      Latency = Config.L1.HitLatency;
      return MemLevel::L1;
    }
    if (L2.access(LineAddr)) {
      Latency = Config.L2.HitLatency;
      return MemLevel::L2;
    }
    if (L3Ptr->access(LineAddr)) {
      Latency = Config.L3.HitLatency;
      return MemLevel::L3;
    }
    Latency = Config.DramLatency;
    return MemLevel::Dram;
  }

  AccessResult accessSlow(uint64_t Addr, unsigned Size, uint64_t Ip,
                          uint64_t FirstLine, uint64_t LastLine);

  HierarchyConfig Config;
  SetAssocCache L1;
  SetAssocCache L2;
  std::unique_ptr<SetAssocCache> OwnedL3;
  SetAssocCache *L3Ptr;
  StridePrefetcher Prefetcher;
  Tlb Dtlb;
  unsigned LineShift;  ///< log2(L1 line size), precomputed.
  uint8_t Mode;        ///< Bit 0: TLB on; bit 1: prefetcher on.
};

} // namespace cache
} // namespace structslim

#endif // STRUCTSLIM_CACHE_HIERARCHY_H
