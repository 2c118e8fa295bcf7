//===- tests/simd_test.cpp - SIMD vs scalar differential suite -*- C++ -*-===//
//
// The vectorized stride-GCD folds (core/StrideKernel) keep their
// portable scalar code as the checked reference: every fold must
// produce bit-identical results with the vector path on and forced off.
// These tests drive randomized inputs through both paths via the
// simd::forceScalar hook and diff them, plus a third leg against
// std::gcd, so a bug that hit both paths equally would still be caught.
//
// On hosts (or builds) without the vector tiers the two paths collapse
// to the same scalar code and the suite degenerates to oracle checks —
// still valid, just not differential.
//
//===----------------------------------------------------------------------===//

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
// Stride-GCD folds: vector vs scalar vs std::gcd.
//===----------------------------------------------------------------------===//

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
  // Both stride folds dispatch through strideKernelLevel(); forcing the
  // scalar reference demotes it and leaves their results unchanged.
  Rng Gen(0xBEEF);
  std::vector<uint64_t> Vals = randomStrides(Gen, 257);
  std::vector<uint64_t> Sorted = Vals;
  std::sort(Sorted.begin(), Sorted.end());
  uint64_t Reduce = core::gcdReduce(Vals.data(), Vals.size());
  uint64_t Diffs = core::gcdAdjacentDiffs(Sorted.data(), Sorted.size(), 3);
  simd::Level Before = core::strideKernelLevel();
  {
    ScalarGuard Scalar;
    EXPECT_TRUE(simd::scalarForced());
    EXPECT_EQ(core::strideKernelLevel(), simd::Level::Scalar);
    EXPECT_EQ(core::gcdReduce(Vals.data(), Vals.size()), Reduce);
    EXPECT_EQ(core::gcdAdjacentDiffs(Sorted.data(), Sorted.size(), 3), Diffs);
  }
  EXPECT_FALSE(simd::scalarForced());
  // Un-forcing restores whatever the build and host support.
  EXPECT_EQ(core::strideKernelLevel(), Before);
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
  // The kernel never reports a tier above what its TU compiled in.
  EXPECT_LE(static_cast<int>(core::strideKernelLevel()),
            static_cast<int>(simd::Level::Avx2));
}
