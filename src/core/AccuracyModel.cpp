//===- core/AccuracyModel.cpp ---------------------------------*- C++ -*-===//

#include "core/AccuracyModel.h"

#include "core/StrideKernel.h"
#include "support/MathUtil.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <numeric>
#include <vector>

using namespace structslim;
using namespace structslim::core;

double structslim::core::eq4Accuracy(uint64_t N, uint64_t K) {
  assert(K >= 2 && K <= N && "need at least two samples");
  double Loss = 0.0;
  for (uint64_t P : primesUpTo(N)) {
    double Term = binomialRatio(N, P, K);
    if (Term == 0.0 && P > N / K)
      break; // All further primes give n/p < k: no ways left.
    Loss += Term;
  }
  return 1.0 - Loss;
}

namespace {

/// The closed-form bound summed over the primes below 10^5 in ascending
/// order, stopping after the first term below 1e-18.
double sumLowerBound(uint64_t K) {
  static const std::vector<uint64_t> Primes = primesUpTo(100000);
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

double structslim::core::eq4LowerBound(uint64_t K) {
  assert(K >= 2 && "need at least two samples");
  // The analyzer asks once per sparse stream, almost always for a small
  // K, whose sum runs over thousands of primes: serve [2, 64) from a
  // table the same loop fills once. Static initialization is race-free.
  constexpr uint64_t TableEnd = 64;
  static const std::array<double, TableEnd> Table = [] {
    std::array<double, TableEnd> T{};
    for (uint64_t I = 2; I != TableEnd; ++I)
      T[I] = sumLowerBound(I);
    return T;
  }();
  return K < TableEnd ? Table[K] : sumLowerBound(K);
}

double structslim::core::exactAccuracy(uint64_t N, uint64_t K) {
  assert(K >= 2 && K <= N && "need at least two samples");
  double LogCnk = logBinomial(N, K);
  double Loss = 0.0;
  for (uint64_t P : primesUpTo(N)) {
    // Residue classes mod p have either ceil(n/p) or floor(n/p) members.
    uint64_t Big = (N + P - 1) / P; // ceil
    uint64_t Small = N / P;         // floor
    uint64_t NumBig = N % P;        // classes with ceil members
    uint64_t NumSmall = P - NumBig;
    double Term = 0.0;
    if (Big >= K && NumBig > 0)
      Term += NumBig * std::exp(logBinomial(Big, K) - LogCnk);
    if (Small >= K && NumSmall > 0)
      Term += NumSmall * std::exp(logBinomial(Small, K) - LogCnk);
    if (Term == 0.0 && Small < K && Big < K)
      break;
    Loss += Term;
  }
  return 1.0 - Loss;
}

double structslim::core::measureAccuracy(uint64_t N, uint64_t K,
                                         uint64_t StrideR, unsigned Trials,
                                         Rng &Rng) {
  assert(K >= 2 && K <= N && "need at least two samples");
  unsigned Correct = 0;
  std::vector<uint64_t> Positions;
  for (unsigned T = 0; T != Trials; ++T) {
    // Floyd's algorithm for K distinct values in [0, N).
    Positions.clear();
    // For small K relative to N, rejection sampling is simpler and the
    // collision probability is tiny.
    while (Positions.size() < K) {
      uint64_t X = Rng.nextBelow(N);
      if (std::find(Positions.begin(), Positions.end(), X) ==
          Positions.end())
        Positions.push_back(X);
    }
    // Samples arrive in temporal order: positions are visited in
    // increasing order by a forward loop.
    std::sort(Positions.begin(), Positions.end());
    uint64_t G =
        gcdAdjacentDiffs(Positions.data(), Positions.size(), StrideR);
    if (G == StrideR)
      ++Correct;
  }
  return static_cast<double>(Correct) / Trials;
}
