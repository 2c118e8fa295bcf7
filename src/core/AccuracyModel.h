//===- core/AccuracyModel.h - GCD stride-accuracy model --------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's formal accuracy analysis of the GCD algorithm (Eq. 4):
/// with k sampled unique addresses out of n strided addresses, the
/// probability that the computed stride equals the real stride. Three
/// variants are provided:
///  - eq4Accuracy: Eq. 4 exactly as printed (subtracting, for each
///    prime p, the C(n/p, k)/C(n, k) ways all samples land on
///    multiples of p);
///  - eq4UpperBoundLoss / lower bound: the closed-form bound the paper
///    derives (accuracy > 1 - sum over primes of p^-k);
///  - exactAccuracy: a tightened variant that counts every residue
///    class mod p, not just multiples of p (all-same-residue samples
///    also inflate the GCD);
///  - measureAccuracy: Monte Carlo ground truth on real GCDs.
///
/// The eq4_accuracy bench compares all of these against the paper's
/// claim that k >= 10 gives > 99% accuracy.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_CORE_ACCURACYMODEL_H
#define STRUCTSLIM_CORE_ACCURACYMODEL_H

#include "support/Random.h"

#include <cstdint>

namespace structslim {
namespace core {

/// Eq. 4 as printed: 1 - sum over primes p <= n of C(n/p, k) / C(n, k).
double eq4Accuracy(uint64_t N, uint64_t K);

/// The paper's closed-form lower bound: 1 - sum over primes of p^-k
/// (truncated when terms vanish numerically). Tabulated for K < 64 on
/// first use; safe to call from any thread.
double eq4LowerBound(uint64_t K);

/// Accuracy counting all residue classes: subtracts, for each prime p,
/// sum over residues r of C(|{x < n : x = r mod p}|, k) / C(n, k),
/// inclusion-exclusion ignored (second-order small).
double exactAccuracy(uint64_t N, uint64_t K);

/// Monte Carlo measurement: draws \p Trials experiments of K distinct
/// positions out of N with real stride \p StrideR, runs the adjacent-
/// difference GCD of Eqs. 2-3, and returns the fraction recovering
/// StrideR exactly.
double measureAccuracy(uint64_t N, uint64_t K, uint64_t StrideR,
                       unsigned Trials, Rng &Rng);

} // namespace core
} // namespace structslim

#endif // STRUCTSLIM_CORE_ACCURACYMODEL_H
