//===- tests/simd_test.cpp - SIMD vs scalar differential suite -*- C++ -*-===//
//
// The vectorized simulation kernels (the batched cache tag probe and
// the stride-GCD folds) keep their portable scalar code as the checked
// reference: every kernel must produce bit-identical results with the
// vector path on and forced off. These tests drive randomized inputs
// through both paths via the simd::forceScalar hook and diff outputs,
// counters, and full replacement-state hashes — plus a third leg
// against the unbatched access()/repeatMru and std::gcd oracles, so a
// bug that hit both kernel paths equally would still be caught.
//
// On hosts (or builds) without the vector tiers the two paths collapse
// to the same scalar code and the suite degenerates to oracle checks —
// still valid, just not differential.
//
//===----------------------------------------------------------------------===//

#include "cache/Cache.h"
#include "core/StrideKernel.h"
#include "support/Random.h"
#include "support/Simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

using namespace structslim;
namespace simd = structslim::support::simd;

namespace {

/// Forces the scalar reference for the guard's lifetime.
struct ScalarGuard {
  ScalarGuard() { simd::forceScalar(true); }
  ~ScalarGuard() { simd::forceScalar(false); }
};

//===----------------------------------------------------------------------===//
// Batched cache probe: vector vs scalar vs unbatched oracle.
//===----------------------------------------------------------------------===//

/// Runs the same randomized batch trace through three caches — vector
/// path, forced-scalar path, and the unbatched access()/repeatMru
/// oracle — and requires identical hit vectors, counters, and complete
/// replacement state.
void diffBatchTrace(const cache::CacheConfig &Config, uint64_t Seed,
                    size_t Batches, uint64_t AddressSpaceLines) {
  cache::SetAssocCache Vec(Config);
  cache::SetAssocCache Sca(Config);
  cache::SetAssocCache Ref(Config);
  Rng Gen(Seed);
  std::vector<cache::BatchLineOp> Ops;
  std::vector<uint8_t> HitVec, HitSca, HitRef;
  for (size_t Batch = 0; Batch != Batches; ++Batch) {
    // Mix tiny batches (below any vector width) with large ones, runs
    // of consecutive lines (set-sorted fast path) with random jumps,
    // and occasional repeat tails (the run-length-collapsed hits).
    size_t N = 1 + Gen.nextBelow(Gen.nextBelow(4) == 0 ? 3 : 400);
    Ops.clear();
    uint64_t Cursor = Gen.nextBelow(AddressSpaceLines);
    for (size_t I = 0; I != N; ++I) {
      if (Gen.nextBelow(3) == 0)
        Cursor = Gen.nextBelow(AddressSpaceLines);
      else
        Cursor = (Cursor + 1) % AddressSpaceLines;
      uint32_t Repeat = Gen.nextBelow(8) == 0
                            ? static_cast<uint32_t>(Gen.nextBelow(16))
                            : 0;
      Ops.push_back({Cursor, Repeat, static_cast<uint32_t>(I)});
    }
    HitVec.assign(N, 0xAA);
    HitSca.assign(N, 0xAA);
    HitRef.assign(N, 0xAA);
    Vec.accessBatch(Ops.data(), N, HitVec.data());
    {
      ScalarGuard Scalar;
      Sca.accessBatch(Ops.data(), N, HitSca.data());
    }
    for (size_t I = 0; I != N; ++I) {
      HitRef[I] = Ref.access(Ops[I].Line) ? 1 : 0;
      if (Ops[I].Repeat)
        Ref.repeatMru(Ops[I].Repeat);
    }
    for (size_t I = 0; I != N; ++I) {
      ASSERT_EQ(HitVec[I] != 0, HitRef[I] != 0)
          << Config.Name << ": batch " << Batch << " op " << I << " line "
          << Ops[I].Line;
      ASSERT_EQ(HitSca[I] != 0, HitRef[I] != 0)
          << Config.Name << ": batch " << Batch << " op " << I << " line "
          << Ops[I].Line;
    }
  }
  EXPECT_EQ(Vec.stateHash(), Ref.stateHash()) << Config.Name;
  EXPECT_EQ(Sca.stateHash(), Ref.stateHash()) << Config.Name;
  EXPECT_EQ(Vec.getHits(), Ref.getHits()) << Config.Name;
  EXPECT_EQ(Vec.getMisses(), Ref.getMisses()) << Config.Name;
  EXPECT_EQ(Sca.getHits(), Ref.getHits()) << Config.Name;
  EXPECT_EQ(Sca.getMisses(), Ref.getMisses()) << Config.Name;
}

} // namespace

TEST(SimdCacheDifferential, L1GeometryRandomBatches) {
  cache::CacheConfig C{"L1d", 32 * 1024, 8, 64, 4};
  // Working sets below, around, and far above capacity.
  diffBatchTrace(C, 0xA1, 400, 256);
  diffBatchTrace(C, 0xA2, 400, 4096);
  diffBatchTrace(C, 0xA3, 400, 1 << 20);
}

TEST(SimdCacheDifferential, L2AndL3Geometries) {
  cache::CacheConfig L2{"L2", 256 * 1024, 8, 64, 12};
  diffBatchTrace(L2, 0xB1, 300, 1 << 16);
  // The paper's 20 MB 16-way L3: non-power-of-two set count, and an
  // associativity spanning multiple vector registers per probe.
  cache::CacheConfig L3{"L3", 20 * 1024 * 1024, 16, 64, 30};
  diffBatchTrace(L3, 0xB2, 200, 1 << 20);
}

TEST(SimdCacheDifferential, AwkwardGeometries) {
  // Direct-mapped: one tag per probe, the minimal vector width.
  cache::CacheConfig Direct{"direct", 64 * 64, 1, 64, 1};
  diffBatchTrace(Direct, 0xC1, 200, 512);
  // Associativity that is not a multiple of any vector width.
  cache::CacheConfig Odd{"odd", 6 * 3 * 64, 3, 64, 1};
  diffBatchTrace(Odd, 0xC2, 200, 96);
  // Tiny cache under maximal eviction pressure.
  cache::CacheConfig Tiny{"tiny", 4 * 2 * 64, 2, 64, 1};
  diffBatchTrace(Tiny, 0xC3, 300, 64);
}

//===----------------------------------------------------------------------===//
// Stride-GCD folds: vector vs scalar vs std::gcd.
//===----------------------------------------------------------------------===//

namespace {

uint64_t stdGcdFold(const std::vector<uint64_t> &Vals) {
  uint64_t G = 0;
  for (uint64_t V : Vals)
    G = std::gcd(G, V);
  return G;
}

std::vector<uint64_t> randomStrides(Rng &Gen, size_t N) {
  // A common factor with noise: realistic Eq. 5 inputs where most
  // observations share the structure size but some are zero (repeated
  // sample addresses) or huge (cross-object gaps).
  uint64_t Factor = 1 + Gen.nextBelow(256);
  std::vector<uint64_t> Vals;
  for (size_t I = 0; I != N; ++I) {
    uint64_t V = Factor * (1 + Gen.nextBelow(1 << 20));
    if (Gen.nextBelow(16) == 0)
      V = 0;
    if (Gen.nextBelow(32) == 0)
      V = Gen.nextBelow(~0ull >> 8);
    Vals.push_back(V);
  }
  return Vals;
}

} // namespace

TEST(SimdGcdDifferential, ReduceMatchesScalarAndStdGcd) {
  Rng Gen(0xD00D);
  for (size_t N : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 16u, 33u, 1000u}) {
    for (int Trial = 0; Trial != 50; ++Trial) {
      std::vector<uint64_t> Vals = randomStrides(Gen, N);
      uint64_t Expected = stdGcdFold(Vals);
      uint64_t Vec = core::gcdReduce(Vals.data(), Vals.size());
      uint64_t Sca;
      {
        ScalarGuard Scalar;
        Sca = core::gcdReduce(Vals.data(), Vals.size());
      }
      ASSERT_EQ(Vec, Expected) << "N=" << N << " trial " << Trial;
      ASSERT_EQ(Sca, Expected) << "N=" << N << " trial " << Trial;
    }
  }
}

TEST(SimdGcdDifferential, AdjacentDiffsMatchesScalarAndStdGcd) {
  Rng Gen(0xF00F);
  for (size_t N : {0u, 1u, 2u, 3u, 5u, 8u, 9u, 17u, 64u, 500u}) {
    for (int Trial = 0; Trial != 50; ++Trial) {
      // Sorted sample positions with a planted stride plus jitter.
      uint64_t Stride = 1 + Gen.nextBelow(4096);
      uint64_t Scale = 1 + Gen.nextBelow(64);
      std::vector<uint64_t> Sorted;
      uint64_t Pos = Gen.nextBelow(1 << 30);
      for (size_t I = 0; I != N; ++I) {
        Pos += Stride * (Gen.nextBelow(8) + (Gen.nextBelow(4) == 0 ? 0 : 1));
        Sorted.push_back(Pos);
      }
      uint64_t Expected = 0;
      for (size_t I = 1; I < Sorted.size(); ++I)
        Expected = std::gcd(Expected, (Sorted[I] - Sorted[I - 1]) * Scale);
      uint64_t Vec = core::gcdAdjacentDiffs(Sorted.data(), Sorted.size(), Scale);
      uint64_t Sca;
      {
        ScalarGuard Scalar;
        Sca = core::gcdAdjacentDiffs(Sorted.data(), Sorted.size(), Scale);
      }
      ASSERT_EQ(Vec, Expected) << "N=" << N << " trial " << Trial;
      ASSERT_EQ(Sca, Expected) << "N=" << N << " trial " << Trial;
    }
  }
}

TEST(SimdGcdDifferential, BinaryGcdMatchesStdGcdOnEdgeValues) {
  const uint64_t Edge[] = {0,          1,          2,          3,
                           63,         64,         65,         (1ull << 32),
                           (1ull << 32) + 1,       ~0ull,      ~0ull - 1,
                           0x8000000000000000ull};
  for (uint64_t A : Edge)
    for (uint64_t B : Edge)
      EXPECT_EQ(core::binaryGcd(A, B), std::gcd(A, B)) << A << "," << B;
}

//===----------------------------------------------------------------------===//
// Dispatch policy plumbing.
//===----------------------------------------------------------------------===//

TEST(SimdDispatch, ForceScalarDemotesBothKernels) {
  simd::Level CacheBefore = cache::SetAssocCache::batchProbeLevel();
  simd::Level StrideBefore = core::strideKernelLevel();
  {
    ScalarGuard Scalar;
    EXPECT_TRUE(simd::scalarForced());
    EXPECT_EQ(cache::SetAssocCache::batchProbeLevel(), simd::Level::Scalar);
    EXPECT_EQ(core::strideKernelLevel(), simd::Level::Scalar);
  }
  EXPECT_FALSE(simd::scalarForced());
  // Un-forcing restores whatever the build and host support.
  EXPECT_EQ(cache::SetAssocCache::batchProbeLevel(), CacheBefore);
  EXPECT_EQ(core::strideKernelLevel(), StrideBefore);
}

TEST(SimdDispatch, HostFeatureQueriesAreCoherent) {
  // AVX2 hosts are SSE2 hosts; the names render for every tier.
  if (simd::hostAvx2()) {
    EXPECT_TRUE(simd::hostSse2());
  }
  for (simd::Level L :
       {simd::Level::Scalar, simd::Level::Sse2, simd::Level::Avx2}) {
    ASSERT_NE(simd::levelName(L), nullptr);
    EXPECT_FALSE(std::string(simd::levelName(L)).empty());
  }
  // The kernels never report a tier above what their TU compiled in.
  EXPECT_LE(static_cast<int>(cache::SetAssocCache::batchProbeLevel()),
            static_cast<int>(simd::Level::Avx2));
}
