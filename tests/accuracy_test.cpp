//===- tests/accuracy_test.cpp - Eq. 4 accuracy model tests ----*- C++ -*-===//
//
// The Eq. 4 bound and its Monte Carlo check, plus the stride-GCD fold
// (core/StrideKernel) that Eq. 4 and the Eq. 5 size inference run on,
// checked against std::gcd.
//
//===----------------------------------------------------------------------===//

#include "core/AccuracyModel.h"
#include "core/StrideKernel.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

using namespace structslim;
using namespace structslim::core;

namespace {

/// The closed-form bound written out independently: the primes below
/// 10^5 from a plain sieve, p^-k summed in ascending order up to and
/// including the first term below 1e-18.
double referenceLowerBound(uint64_t K) {
  static const std::vector<uint64_t> Primes = [] {
    const uint64_t Limit = 100000;
    std::vector<bool> Composite(Limit + 1, false);
    std::vector<uint64_t> Out;
    for (uint64_t P = 2; P <= Limit; ++P) {
      if (Composite[P])
        continue;
      Out.push_back(P);
      for (uint64_t M = P * P; M <= Limit; M += P)
        Composite[M] = true;
    }
    return Out;
  }();
  double Loss = 0.0;
  for (uint64_t P : Primes) {
    double Term = std::pow(static_cast<double>(P), -static_cast<double>(K));
    Loss += Term;
    if (Term < 1e-18)
      break;
  }
  return 1.0 - Loss;
}

} // namespace

TEST(Accuracy, Eq4LowerBoundEqualsReferenceSumBitForBit) {
  // Covers both the tabulated range [2, 64) and the loop beyond it.
  for (uint64_t K = 2; K <= 100; ++K)
    EXPECT_EQ(eq4LowerBound(K), referenceLowerBound(K)) << "k = " << K;
}

// ctest runs every case in its own process, so these are the bound's
// first calls: four threads race to build its table and prime list.
// Labeled tsan (see tests/CMakeLists.txt).
TEST(Eq4Concurrent, FirstCallFromFourThreadsIsRaceFree) {
  constexpr unsigned Threads = 4;
  constexpr uint64_t KEnd = 80;
  std::vector<std::vector<double>> Seen(Threads,
                                        std::vector<double>(KEnd, 0.0));
  std::atomic<bool> Go{false};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      while (!Go.load())
        std::this_thread::yield();
      // Each thread starts at a different K and wraps around, so every
      // thread asks for tabulated and untabulated K alike.
      for (uint64_t I = 0; I != KEnd - 2; ++I) {
        uint64_t K = 2 + (I + T * 20) % (KEnd - 2);
        Seen[T][K] = eq4LowerBound(K);
      }
    });
  Go.store(true);
  for (std::thread &Th : Pool)
    Th.join();
  for (unsigned T = 0; T != Threads; ++T)
    for (uint64_t K = 2; K != KEnd; ++K)
      EXPECT_EQ(Seen[T][K], referenceLowerBound(K))
          << "thread " << T << ", k = " << K;
}

TEST(Accuracy, PaperClaimKTenExceeds99Percent) {
  // "if k is larger than 10, the accuracy can be higher than 99%."
  for (uint64_t N : {1000ull, 10000ull, 100000ull}) {
    EXPECT_GT(eq4Accuracy(N, 10), 0.99) << "n = " << N;
    EXPECT_GT(exactAccuracy(N, 10), 0.99) << "n = " << N;
  }
  EXPECT_GT(eq4LowerBound(10), 0.99);
}

TEST(Accuracy, MonotonicInK) {
  double Prev = 0.0;
  for (uint64_t K = 2; K <= 16; ++K) {
    double A = eq4Accuracy(10000, K);
    EXPECT_GE(A, Prev - 1e-12) << "k = " << K;
    Prev = A;
  }
}

TEST(Accuracy, SmallKIsInaccurate) {
  // With two samples the failure probability is substantial (~ sum of
  // 1/p over small primes' effect).
  EXPECT_LT(eq4Accuracy(10000, 2), 0.65);
  EXPECT_LT(exactAccuracy(10000, 2), 0.65);
}

TEST(Accuracy, BoundsOrdering) {
  // The closed-form bound understates the Eq. 4 value, which itself
  // overstates the residue-exact accuracy (Eq. 4 counts only the
  // multiples-of-p failure class).
  for (uint64_t K : {3ull, 5ull, 8ull, 12ull}) {
    double Bound = eq4LowerBound(K);
    double Paper = eq4Accuracy(100000, K);
    double Exact = exactAccuracy(100000, K);
    EXPECT_LE(Bound, Paper + 1e-9) << "k = " << K;
    EXPECT_LE(Exact, Paper + 1e-9) << "k = " << K;
  }
}

TEST(Accuracy, ExactHandlesTinyN) {
  // All C(n,k) mass enumerable by hand: n=4, k=2 -> subsets {0..3}
  // choose 2 = 6; same-residue-mod-2 pairs: {0,2},{1,3} -> 2; mod 3:
  // {0,3} -> 1. exact = 1 - 3/6 = 0.5.
  EXPECT_NEAR(exactAccuracy(4, 2), 0.5, 1e-9);
}

TEST(Accuracy, Eq4TinyN) {
  // Eq. 4 as printed: subtract C(2,2)/C(4,2) for p=2 (multiples {0,2})
  // and C(1,2)=0 for p=3: 1 - 1/6.
  EXPECT_NEAR(eq4Accuracy(4, 2), 1.0 - 1.0 / 6.0, 1e-9);
}

// Monte Carlo ground truth matches the residue-exact model across k,
// for unit and non-unit real strides (the GCD is stride-scale
// invariant).
struct AccuracyCase {
  uint64_t N;
  uint64_t K;
  uint64_t StrideR;
};

class AccuracyMonteCarlo : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(AccuracyMonteCarlo, MeasuredMatchesExactModel) {
  const AccuracyCase &C = GetParam();
  Rng R(0xACC + C.K * 131 + C.StrideR);
  double Measured = measureAccuracy(C.N, C.K, C.StrideR, 4000, R);
  double Model = exactAccuracy(C.N, C.K);
  // 4000 trials: allow ~3 sigma of binomial noise plus model slack for
  // the ignored inclusion-exclusion terms.
  double Sigma = std::sqrt(Model * (1 - Model) / 4000) * 3 + 0.01;
  EXPECT_NEAR(Measured, Model, Sigma)
      << "n=" << C.N << " k=" << C.K << " stride=" << C.StrideR;
}

// The models drop the inclusion-exclusion terms across primes, which
// only vanish for k >= 4; the sweep starts there (see the small-k
// breakdown test below).
INSTANTIATE_TEST_SUITE_P(
    Sweep, AccuracyMonteCarlo,
    ::testing::Values(AccuracyCase{1000, 4, 1}, AccuracyCase{1000, 6, 1},
                      AccuracyCase{1000, 8, 1}, AccuracyCase{1000, 10, 1},
                      AccuracyCase{1000, 12, 1}, AccuracyCase{5000, 5, 1},
                      AccuracyCase{5000, 10, 1}, AccuracyCase{1000, 4, 64},
                      AccuracyCase{1000, 8, 64}, AccuracyCase{1000, 6, 56},
                      AccuracyCase{1000, 10, 16}));

TEST(Accuracy, SmallKFormulaBreaksDown) {
  // With k = 2 the computed stride equals the single address
  // difference, so the true accuracy is ~2/n — while Eq. 4's
  // independence-style counting still reports ~0.5. The formula (and
  // the paper's claim) is only meaningful for larger k; this test
  // documents the gap.
  Rng R(77);
  double Measured = measureAccuracy(1000, 2, 1, 4000, R);
  EXPECT_LT(Measured, 0.02);
  EXPECT_GT(eq4Accuracy(1000, 2), 0.3);
}

TEST(Accuracy, StrideScaleInvariance) {
  // Recovering stride 64 from n positions is exactly as hard as
  // recovering stride 1: measured accuracies agree within noise.
  Rng R1(1), R2(1);
  double Unit = measureAccuracy(2000, 5, 1, 3000, R1);
  double Wide = measureAccuracy(2000, 5, 64, 3000, R2);
  EXPECT_NEAR(Unit, Wide, 0.04);
}

//===----------------------------------------------------------------------===//
// Stride-GCD fold against std::gcd.
//===----------------------------------------------------------------------===//

namespace {

uint64_t stdGcdFold(const std::vector<uint64_t> &Vals) {
  uint64_t G = 0;
  for (uint64_t V : Vals)
    G = std::gcd(G, V);
  return G;
}

/// Realistic Eq. 5 inputs: most observations share the structure size,
/// some are zero (repeated sample addresses) or huge (cross-object
/// gaps).
std::vector<uint64_t> randomStrides(Rng &Gen, size_t N) {
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

TEST(StrideKernel, BinaryGcdMatchesStdGcd) {
  const uint64_t Edge[] = {0,          1,          2,          3,
                           63,         64,         65,         (1ull << 32),
                           (1ull << 32) + 1,       ~0ull,      ~0ull - 1,
                           0x8000000000000000ull};
  for (uint64_t A : Edge)
    for (uint64_t B : Edge)
      EXPECT_EQ(binaryGcd(A, B), std::gcd(A, B)) << A << "," << B;
  Rng Gen(42);
  for (int I = 0; I != 5000; ++I) {
    uint64_t A = Gen.next() >> Gen.nextBelow(64);
    uint64_t B = Gen.next() >> Gen.nextBelow(64);
    EXPECT_EQ(binaryGcd(A, B), std::gcd(A, B)) << A << " " << B;
  }
}

TEST(StrideKernel, ReduceMatchesSequentialFold) {
  Rng Gen(7);
  for (int Trial = 0; Trial != 200; ++Trial) {
    size_t N = Gen.nextBelow(40);
    std::vector<uint64_t> V(N);
    for (uint64_t &X : V) {
      // Shared factor keeps the GCD interesting; occasional zeros and
      // ones exercise the identity and the all-lanes-1 early exit.
      uint64_t R = Gen.nextBelow(1000);
      X = Gen.nextBelow(10) == 0 ? R : R * 24;
    }
    EXPECT_EQ(gcdReduce(V.data(), V.size()), stdGcdFold(V));
  }
  // Every size from empty to 1000, so each lane count and tail length
  // is hit, on inputs with zeros and huge gaps.
  Rng Strides(0xD00D);
  for (size_t N = 0; N <= 1000; ++N) {
    std::vector<uint64_t> V = randomStrides(Strides, N);
    ASSERT_EQ(gcdReduce(V.data(), V.size()), stdGcdFold(V)) << "N=" << N;
  }
}

TEST(StrideKernel, AdjacentDiffsMatchReferenceLoop) {
  auto Reference = [](const std::vector<uint64_t> &Sorted, uint64_t Scale) {
    uint64_t Ref = 0;
    for (size_t I = 1; I < Sorted.size(); ++I)
      Ref = std::gcd(Ref, (Sorted[I] - Sorted[I - 1]) * Scale);
    return Ref;
  };
  Rng Gen(11);
  for (int Trial = 0; Trial != 200; ++Trial) {
    size_t N = Gen.nextBelow(30);
    std::vector<uint64_t> Sorted(N);
    uint64_t X = 0;
    for (uint64_t &S : Sorted)
      S = (X += Gen.nextBelow(100));
    uint64_t Scale = 1 + Gen.nextBelow(64);
    EXPECT_EQ(gcdAdjacentDiffs(Sorted.data(), N, Scale),
              Reference(Sorted, Scale));
  }
  // Every size from empty to 1000: sorted sample positions with a
  // planted stride, jitter and repeated positions (zero gaps).
  Rng Planted(0xF00F);
  for (size_t N = 0; N <= 1000; ++N) {
    uint64_t Stride = 1 + Planted.nextBelow(4096);
    uint64_t Scale = 1 + Planted.nextBelow(64);
    std::vector<uint64_t> Sorted;
    uint64_t Pos = Planted.nextBelow(1 << 30);
    for (size_t I = 0; I != N; ++I) {
      Pos += Stride * (Planted.nextBelow(8) +
                       (Planted.nextBelow(4) == 0 ? 0 : 1));
      Sorted.push_back(Pos);
    }
    ASSERT_EQ(gcdAdjacentDiffs(Sorted.data(), Sorted.size(), Scale),
              Reference(Sorted, Scale))
        << "N=" << N;
  }
}
