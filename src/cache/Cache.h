//===- cache/Cache.h - Set-associative cache model --------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative, LRU, allocate-on-miss cache. Instances model the
/// private L1/L2 and the shared L3 of the paper's Xeon E5-4650L testbed
/// (32 KB L1d, 256 KB L2 private; 20 MB L3 shared). Hit/miss counters
/// double as the hardware event counters the paper reads for Table 4.
///
/// State is packed per set: the set's tags sit contiguously in one flat
/// array (set-major), one 64-bit recency word lists the ways from most
/// to least recently used (nibble k holds the way at rank k, so at most
/// 16 ways), and a fill count says how many ways are valid. Ways fill in
/// index order and are never invalidated, so the valid ways are always
/// the prefix [0, fill). A hit moves its way to rank 0 with a few shifts
/// and masks; a miss fills the next invalid way, or once the set is full
/// evicts the way at the last rank. That is exactly the order a
/// physically ordered move-to-front way array evicts in (invalid ways
/// first, lowest index first, then least recent), so hit/miss sequences
/// are bit-identical to it — cache_test diffs the two on random traces
/// for every associativity from 1 to 16.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_CACHE_CACHE_H
#define STRUCTSLIM_CACHE_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

namespace structslim {
namespace cache {

/// Geometry and timing of one cache level.
struct CacheConfig {
  std::string Name = "cache";
  uint64_t SizeBytes = 32 * 1024;
  unsigned Assoc = 8; ///< 1..16 (one recency nibble per way).
  unsigned LineSize = 64;
  unsigned HitLatency = 4; ///< Cycles when this level serves the access.
};

/// One cache level. Addresses are pre-shifted line addresses.
class SetAssocCache {
public:
  explicit SetAssocCache(const CacheConfig &Config);

  /// Looks up \p LineAddr; on miss, installs it (evicting LRU).
  /// Returns true on hit. Counts the access.
  bool access(uint64_t LineAddr) {
    size_t Set = setIndex(LineAddr);
    if (int Way = findWay(Set, LineAddr); Way >= 0) {
      touch(Set, static_cast<unsigned>(Way));
      ++Hits;
      return true;
    }
    ++Misses;
    install(Set, LineAddr);
    return false;
  }

  /// \p N more accesses to the line access() just looked up. That line
  /// is its set's most recent way, and a hit on the most recent way
  /// changes no recency state, so the repeats only count as hits.
  /// Valid only directly after access(), which the pipeline consumer
  /// guarantees by construction (one run record = one access plus its
  /// repeats).
  void repeatMru(uint64_t N) { Hits += N; }

  /// Installs \p LineAddr without counting a demand access (prefetch
  /// fill). When already present it only refreshes recency.
  void installPrefetch(uint64_t LineAddr) {
    size_t Set = setIndex(LineAddr);
    if (int Way = findWay(Set, LineAddr); Way >= 0) {
      touch(Set, static_cast<unsigned>(Way));
      return;
    }
    install(Set, LineAddr);
    ++PrefetchFills;
  }

  /// Lookup without side effects.
  bool contains(uint64_t LineAddr) const {
    return findWay(setIndex(LineAddr), LineAddr) >= 0;
  }

  const CacheConfig &getConfig() const { return Config; }
  uint64_t getHits() const { return Hits; }
  uint64_t getMisses() const { return Misses; }
  uint64_t getAccesses() const { return Hits + Misses; }
  uint64_t getPrefetchFills() const { return PrefetchFills; }
  double getMissRatio() const {
    uint64_t Total = getAccesses();
    return Total == 0 ? 0.0 : static_cast<double>(Misses) / Total;
  }

  void resetCounters() { Hits = Misses = PrefetchFills = 0; }

private:
  // Sets are indexed by modulo so non-power-of-two geometries (like a
  // 20 MB 16-way L3) work; tags store the full line address. The
  // power-of-two geometries (L1, L2) take the mask path — same index,
  // no division in the per-access hot path.
  size_t setIndex(uint64_t LineAddr) const {
    return static_cast<size_t>(SetMask != 0 ? (LineAddr & SetMask)
                                            : LineAddr % NumSets);
  }

  /// The valid way of set \p Set holding \p LineAddr, or -1.
  int findWay(size_t Set, uint64_t LineAddr) const {
    const uint64_t *T = &Tags[Set * Config.Assoc];
    for (unsigned W = 0, E = Fill[Set]; W != E; ++W)
      if (T[W] == LineAddr)
        return static_cast<int>(W);
    return -1;
  }

  /// Moves valid way \p Way of set \p Set to recency rank 0. Its rank is
  /// the lowest nibble equal to \p Way (nibbles at ranks >= fill are
  /// don't-care, and the way's true rank lies below them): XOR zeroes
  /// that nibble, and the borrow trick flags the lowest zero nibble
  /// exactly. Ranks below it shift up by one; ranks above stay.
  void touch(size_t Set, unsigned Way) {
    uint64_t R = Order[Set];
    uint64_t X = R ^ (Way * 0x1111111111111111ull);
    uint64_t Zero = (X - 0x1111111111111111ull) & ~X & 0x8888888888888888ull;
    unsigned Shift = static_cast<unsigned>(__builtin_ctzll(Zero)) & ~3u;
    uint64_t Below = (1ull << Shift) - 1;
    uint64_t Above = (~0ull << Shift) << 4;
    Order[Set] = (R & Above) | ((R & Below) << 4) | Way;
  }

  /// Fills the lowest invalid way of set \p Set with \p LineAddr, or
  /// once the set is full replaces its least recent way; the filled way
  /// becomes rank 0.
  void install(size_t Set, uint64_t LineAddr) {
    uint64_t R = Order[Set];
    unsigned Way = Fill[Set];
    if (Way != Config.Assoc)
      ++Fill[Set];
    else
      Way = static_cast<unsigned>(R >> (4 * (Config.Assoc - 1))) & 0xF;
    Tags[Set * Config.Assoc + Way] = LineAddr;
    Order[Set] = (R << 4) | Way;
  }

  CacheConfig Config;
  uint64_t NumSets;
  uint64_t SetMask; ///< NumSets - 1 when NumSets is a power of two, else 0.
  std::vector<uint64_t> Tags;  ///< NumSets * Assoc, set-major.
  std::vector<uint64_t> Order; ///< Per set: nibble k = way at rank k.
  std::vector<uint8_t> Fill;   ///< Per set: valid-way count.
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t PrefetchFills = 0;
};

} // namespace cache
} // namespace structslim

#endif // STRUCTSLIM_CACHE_CACHE_H
