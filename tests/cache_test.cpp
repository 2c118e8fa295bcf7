//===- tests/cache_test.cpp - Cache & hierarchy tests ----------*- C++ -*-===//

#include "cache/Cache.h"
#include "cache/Hierarchy.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

using namespace structslim;
using namespace structslim::cache;

namespace {

/// A tiny 2-set, 2-way cache for exact LRU checks: 4 lines of 64 B.
CacheConfig tinyConfig() {
  CacheConfig C;
  C.Name = "tiny";
  C.SizeBytes = 4 * 64;
  C.Assoc = 2;
  C.LineSize = 64;
  C.HitLatency = 4;
  return C;
}

} // namespace

TEST(SetAssocCache, ColdMissThenHit) {
  SetAssocCache C(tinyConfig());
  EXPECT_FALSE(C.access(10));
  EXPECT_TRUE(C.access(10));
  EXPECT_EQ(C.getMisses(), 1u);
  EXPECT_EQ(C.getHits(), 1u);
}

TEST(SetAssocCache, LruEviction) {
  SetAssocCache C(tinyConfig()); // 2 sets: lines map by line % 2.
  // Lines 0, 2, 4 all map to set 0 (even).
  C.access(0);
  C.access(2);
  C.access(4); // Evicts 0 (LRU).
  EXPECT_FALSE(C.access(0));
  // Now 2 was evicted (it became LRU after 4 and 0 installed).
  EXPECT_FALSE(C.access(2));
}

TEST(SetAssocCache, LruTouchRefreshes) {
  SetAssocCache C(tinyConfig());
  C.access(0);
  C.access(2);
  C.access(0); // Refresh 0; 2 becomes LRU.
  C.access(4); // Evicts 2.
  EXPECT_TRUE(C.access(0));
  EXPECT_FALSE(C.access(2));
}

TEST(SetAssocCache, SetsAreIndependent) {
  SetAssocCache C(tinyConfig());
  C.access(0); // Set 0.
  C.access(1); // Set 1.
  C.access(3); // Set 1.
  EXPECT_TRUE(C.access(0)); // Untouched by set-1 traffic.
}

TEST(SetAssocCache, NonPowerOfTwoSets) {
  // 20 MB, 16-way, 64 B lines: 20480 sets (the paper's L3 geometry).
  CacheConfig C;
  C.SizeBytes = 20 * 1024 * 1024;
  C.Assoc = 16;
  C.LineSize = 64;
  SetAssocCache Cache(C);
  for (uint64_t L = 0; L != 1000; ++L)
    Cache.access(L);
  for (uint64_t L = 0; L != 1000; ++L)
    EXPECT_TRUE(Cache.access(L)) << "line " << L;
}

TEST(SetAssocCache, WorkingSetLargerThanCacheThrashes) {
  SetAssocCache C(tinyConfig()); // 4 lines total.
  for (int Round = 0; Round != 3; ++Round)
    for (uint64_t L = 0; L != 8; ++L)
      C.access(L);
  // Cyclic sweep over 2x capacity with LRU: every access misses.
  EXPECT_EQ(C.getMisses(), 24u);
}

TEST(SetAssocCache, PrefetchInstallDoesNotCountDemand) {
  SetAssocCache C(tinyConfig());
  C.installPrefetch(6);
  EXPECT_EQ(C.getAccesses(), 0u);
  EXPECT_EQ(C.getPrefetchFills(), 1u);
  EXPECT_TRUE(C.access(6)); // Hit thanks to the prefetch.
}

TEST(SetAssocCache, ContainsIsSideEffectFree) {
  SetAssocCache C(tinyConfig());
  C.access(0);
  C.access(2);
  EXPECT_TRUE(C.contains(0));
  EXPECT_TRUE(C.contains(2));
  EXPECT_FALSE(C.contains(4));
  // contains() must not refresh LRU: 0 is still the eviction victim.
  C.access(4);
  EXPECT_FALSE(C.contains(0));
}

TEST(SetAssocCache, BadGeometryAborts) {
  CacheConfig C;
  C.SizeBytes = 100; // Not a multiple of assoc * line.
  C.Assoc = 8;
  C.LineSize = 64;
  EXPECT_DEATH(SetAssocCache{C}, "multiple of assoc");
  CacheConfig C2;
  C2.LineSize = 48;
  EXPECT_DEATH(SetAssocCache{C2}, "power of two");
}

TEST(SetAssocCache, AssocOutsideOneToSixteenAborts) {
  // The recency word holds one 4-bit way index per rank.
  CacheConfig Zero{"zero", 1024, 0, 64, 1};
  EXPECT_DEATH(SetAssocCache{Zero}, "between 1 and 16");
  CacheConfig Wide{"wide", 17 * 64 * 4, 17, 64, 1};
  EXPECT_DEATH(SetAssocCache{Wide}, "between 1 and 16");
}

// --- MemoryHierarchy --------------------------------------------------------

namespace {

HierarchyConfig smallHierarchy() {
  HierarchyConfig H;
  H.L1 = {"L1", 1024, 2, 64, 4};
  H.L2 = {"L2", 4096, 4, 64, 12};
  H.L3 = {"L3", 16384, 8, 64, 40};
  H.DramLatency = 200;
  return H;
}

} // namespace

TEST(Hierarchy, LevelsAndLatencies) {
  MemoryHierarchy H(smallHierarchy());
  AccessResult First = H.access(0, 8, false, 1);
  EXPECT_EQ(First.Served, MemLevel::Dram);
  EXPECT_EQ(First.Latency, 200u);
  AccessResult Second = H.access(0, 8, false, 1);
  EXPECT_EQ(Second.Served, MemLevel::L1);
  EXPECT_EQ(Second.Latency, 4u);
}

TEST(Hierarchy, L2ServesAfterL1Eviction) {
  MemoryHierarchy H(smallHierarchy());
  H.access(0, 8, false, 1);
  // Evict line 0 from L1 (16 lines) but not L2 (64 lines): touch 16
  // conflicting-ish lines.
  for (uint64_t L = 1; L <= 32; ++L)
    H.access(L * 64, 8, false, 1);
  AccessResult R = H.access(0, 8, false, 1);
  EXPECT_EQ(R.Served, MemLevel::L2);
  EXPECT_EQ(R.Latency, 12u);
}

TEST(Hierarchy, LineStraddleTakesSlowerLine) {
  MemoryHierarchy H(smallHierarchy());
  H.access(0, 8, false, 1); // Line 0 cached everywhere.
  // 8 bytes at offset 60: touches lines 0 (hit) and 1 (cold -> DRAM).
  AccessResult R = H.access(60, 8, false, 2);
  EXPECT_EQ(R.Served, MemLevel::Dram);
  EXPECT_EQ(R.Latency, 200u);
}

TEST(Hierarchy, SharedL3AcrossCores) {
  HierarchyConfig Cfg = smallHierarchy();
  SetAssocCache SharedL3(Cfg.L3);
  MemoryHierarchy Core0(Cfg, &SharedL3);
  MemoryHierarchy Core1(Cfg, &SharedL3);
  Core0.access(0, 8, false, 1); // Fills the shared L3.
  AccessResult R = Core1.access(0, 8, false, 1);
  EXPECT_EQ(R.Served, MemLevel::L3); // Private L1/L2 cold, L3 warm.
  EXPECT_EQ(SharedL3.getAccesses(), 2u);
}

TEST(Hierarchy, MissCountersPerLevel) {
  MemoryHierarchy H(smallHierarchy());
  H.access(0, 8, false, 1);
  H.access(0, 8, false, 1);
  EXPECT_EQ(H.l1().getMisses(), 1u);
  EXPECT_EQ(H.l1().getHits(), 1u);
  EXPECT_EQ(H.l2().getMisses(), 1u);
  EXPECT_EQ(H.l3().getMisses(), 1u);
  H.resetCounters();
  EXPECT_EQ(H.l1().getAccesses(), 0u);
}

TEST(Hierarchy, MemLevelNames) {
  EXPECT_STREQ(memLevelName(MemLevel::L1), "L1");
  EXPECT_STREQ(memLevelName(MemLevel::L2), "L2");
  EXPECT_STREQ(memLevelName(MemLevel::L3), "L3");
  EXPECT_STREQ(memLevelName(MemLevel::Dram), "DRAM");
}

// --- StridePrefetcher --------------------------------------------------------

TEST(Prefetcher, DetectsConstantStride) {
  HierarchyConfig Cfg = smallHierarchy();
  Cfg.EnablePrefetcher = true;
  Cfg.PrefetchDegree = 2;
  MemoryHierarchy H(Cfg);
  // Stride-64 stream from one IP: after warmup, upcoming lines are
  // prefetched into L2.
  for (uint64_t I = 0; I != 8; ++I)
    H.access(I * 64, 8, false, /*Ip=*/7);
  EXPECT_GT(H.getPrefetcher().getIssued(), 0u);
  // The next line should now be at least L2-resident.
  AccessResult R = H.access(8 * 64, 8, false, 7);
  EXPECT_NE(R.Served, MemLevel::Dram);
}

TEST(Prefetcher, IndexUsesFullHashWidth) {
  // Regression: the table index used to be (hash >> 56) & (N-1), which
  // keeps only the top 8 hash bits — any table beyond 256 entries left
  // the extra slots unreachable. The index must come from the top
  // log2(N) bits of the full-width hash.
  std::set<size_t> Used;
  for (uint64_t Ip = 0; Ip != 8192; ++Ip)
    Used.insert(StridePrefetcher::indexFor(0x400000 + Ip * 4, 4096));
  EXPECT_GT(Used.size(), 256u);
  for (size_t Slot : Used)
    EXPECT_LT(Slot, 4096u);

  // The default 256-entry geometry keeps its historical mapping (the
  // top-8-bit index), so existing profiles stay bit-identical.
  for (uint64_t Ip : {0x400000ull, 0x400004ull, 0x7fffffull, 1ull})
    EXPECT_EQ(StridePrefetcher::indexFor(Ip, 256),
              (Ip * 0x9e3779b97f4a7c15ULL) >> 56);

  // Degenerate single-entry table maps everything to slot 0.
  EXPECT_EQ(StridePrefetcher::indexFor(0x1234, 1), 0u);
}

TEST(Prefetcher, TableSizeConfigurableAndRoundedToPowerOfTwo) {
  StridePrefetcher P(1024);
  EXPECT_EQ(P.getNumEntries(), 1024u);
  StridePrefetcher Rounded(300);
  EXPECT_EQ(Rounded.getNumEntries(), 512u);
  HierarchyConfig Cfg = smallHierarchy();
  Cfg.EnablePrefetcher = true;
  Cfg.PrefetchTableEntries = 2048;
  MemoryHierarchy H(Cfg);
  EXPECT_EQ(H.getPrefetcher().getNumEntries(), 2048u);
  // Larger tables still detect streams.
  for (uint64_t I = 0; I != 8; ++I)
    H.access(I * 64, 8, false, /*Ip=*/7);
  EXPECT_GT(H.getPrefetcher().getIssued(), 0u);
}

TEST(Prefetcher, NoIssueForRandomPattern) {
  HierarchyConfig Cfg = smallHierarchy();
  Cfg.EnablePrefetcher = true;
  MemoryHierarchy H(Cfg);
  Rng R(3);
  for (int I = 0; I != 64; ++I)
    H.access(R.nextBelow(1 << 20), 8, false, 7);
  // A couple of accidental matches are possible, but not a stream.
  EXPECT_LT(H.getPrefetcher().getIssued(), 8u);
}

TEST(Prefetcher, DisabledByDefault) {
  MemoryHierarchy H(smallHierarchy());
  for (uint64_t I = 0; I != 16; ++I)
    H.access(I * 64, 8, false, 7);
  EXPECT_EQ(H.getPrefetcher().getIssued(), 0u);
  EXPECT_EQ(H.l2().getPrefetchFills(), 0u);
}

TEST(Prefetcher, NonUnitStrideRecognized) {
  // The paper notes hardware prefetchers recognize non-unit strides;
  // ours does too (per-IP stride table).
  HierarchyConfig Cfg = smallHierarchy();
  Cfg.EnablePrefetcher = true;
  MemoryHierarchy H(Cfg);
  for (uint64_t I = 0; I != 8; ++I)
    H.access(I * 256, 8, false, 9);
  EXPECT_GT(H.getPrefetcher().getIssued(), 0u);
}

// --- Packed cache vs the reference shift-based LRU model. --------------

namespace {

/// A physically ordered way array per set, front = most recent: hits
/// move to front, misses evict the back (invalid ways start at the back
/// in index order).
class ShiftLruReference {
public:
  explicit ShiftLruReference(const CacheConfig &Config)
      : NumSets(Config.SizeBytes / Config.LineSize / Config.Assoc),
        Sets(NumSets, std::vector<Way>(Config.Assoc)) {}

  bool access(uint64_t LineAddr) {
    if (touch(LineAddr)) {
      ++Hits;
      return true;
    }
    ++Misses;
    return false;
  }

  /// The model's semantics for a run's tail: \p N more accesses to the
  /// line just accessed.
  void repeatMru(uint64_t LineAddr, uint64_t N) {
    for (uint64_t I = 0; I != N; ++I)
      access(LineAddr);
  }

  void installPrefetch(uint64_t LineAddr) { touch(LineAddr); }

  uint64_t getHits() const { return Hits; }
  uint64_t getMisses() const { return Misses; }

private:
  struct Way {
    uint64_t Tag = 0;
    bool Valid = false;
  };

  /// Moves \p LineAddr to the front, installing it on a miss; returns
  /// whether it was present.
  bool touch(uint64_t LineAddr) {
    std::vector<Way> &S = Sets[LineAddr % NumSets];
    for (size_t W = 0; W != S.size(); ++W) {
      if (S[W].Valid && S[W].Tag == LineAddr) {
        Way Hit = S[W];
        S.erase(S.begin() + W);
        S.insert(S.begin(), Hit);
        return true;
      }
    }
    S.pop_back();
    S.insert(S.begin(), Way{LineAddr, true});
    return false;
  }

  uint64_t NumSets;
  std::vector<std::vector<Way>> Sets;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Random demand traffic with ~10% prefetch installs and ~10% run tails
/// (repeatMru right after an access), diffed access by access.
void compareOnRandomTrace(const CacheConfig &Config, uint64_t Seed,
                          size_t Accesses, uint64_t AddressSpaceLines) {
  SetAssocCache Packed(Config);
  ShiftLruReference Ref(Config);
  Rng R(Seed);
  for (size_t I = 0; I != Accesses; ++I) {
    uint64_t Line = R.nextBelow(AddressSpaceLines);
    uint64_t Kind = R.nextBelow(10);
    if (Kind == 0) {
      Packed.installPrefetch(Line);
      Ref.installPrefetch(Line);
      continue;
    }
    bool PackedHit = Packed.access(Line);
    bool RefHit = Ref.access(Line);
    ASSERT_EQ(PackedHit, RefHit)
        << Config.Name << ": access " << I << " line " << Line;
    if (Kind == 1) {
      uint64_t N = 1 + R.nextBelow(20);
      Packed.repeatMru(N);
      Ref.repeatMru(Line, N);
    }
    ASSERT_EQ(Packed.getHits(), Ref.getHits()) << Config.Name << " " << I;
  }
  EXPECT_EQ(Packed.getHits(), Ref.getHits()) << Config.Name;
  EXPECT_EQ(Packed.getMisses(), Ref.getMisses()) << Config.Name;
}

} // namespace

TEST(SoaCacheEquivalence, L1GeometryRandomTraces) {
  CacheConfig C{"L1d", 32 * 1024, 8, 64, 4};
  // Working sets below, around, and far above capacity.
  compareOnRandomTrace(C, 1, 200000, 256);
  compareOnRandomTrace(C, 2, 200000, 4096);
  compareOnRandomTrace(C, 3, 200000, 1 << 20);
}

TEST(SoaCacheEquivalence, TinyCacheMaximalEvictionPressure) {
  CacheConfig C{"tiny", 4 * 2 * 64, 2, 64, 1};
  compareOnRandomTrace(C, 4, 100000, 64);
}

TEST(SoaCacheEquivalence, NonPowerOfTwoSets) {
  // 5 sets of 4 ways: exercises the modulo set indexing.
  CacheConfig C{"npot", 5 * 4 * 64, 4, 64, 1};
  compareOnRandomTrace(C, 5, 100000, 160);
}

TEST(SoaCacheEquivalence, DirectMappedAndHighAssoc) {
  CacheConfig Direct{"direct", 64 * 64, 1, 64, 1};
  compareOnRandomTrace(Direct, 6, 50000, 512);
  CacheConfig Wide{"wide", 16 * 64, 16, 64, 1};
  compareOnRandomTrace(Wide, 7, 50000, 64);
}

TEST(SoaCacheEquivalence, EveryAssocPowerOfTwoAndOddSetCounts) {
  // Every associativity the recency word holds, each with 8 sets (mask
  // indexing) and 7 sets (modulo indexing); the address space is 3x
  // capacity, so sets fill, hit and evict at every rank.
  for (unsigned Assoc = 1; Assoc <= 16; ++Assoc) {
    for (uint64_t Sets : {8u, 7u}) {
      std::string Name =
          "assoc" + std::to_string(Assoc) + "x" + std::to_string(Sets);
      CacheConfig C{Name, Sets * Assoc * 64, Assoc, 64, 1};
      compareOnRandomTrace(C, 100 + Assoc * 2 + Sets, 20000, 3 * Sets * Assoc);
    }
  }
}
