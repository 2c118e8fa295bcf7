//===- core/StrideKernel.h - Four-lane stride/GCD reduction ----*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stride-reduction kernel behind the analyzer's structure-size
/// inference (Eq. 5) and the Eq. 4 accuracy model: a GCD fold over many
/// stride observations. GCD is associative and commutative, so the fold
/// can be reassociated freely — the kernel runs four independent
/// accumulator lanes over the input (hiding the latency of each
/// data-dependent binary-GCD chain) and combines the lanes at the end,
/// returning exactly the value a sequential gcd64 fold produces.
///
/// The pairwise step is a branch-light binary GCD (ctz-driven shift
/// normalization instead of division), which on 64-bit strides is
/// several times faster than the division-based std::gcd chain.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_CORE_STRIDEKERNEL_H
#define STRUCTSLIM_CORE_STRIDEKERNEL_H

#include <cstddef>
#include <cstdint>

namespace structslim {
namespace core {

/// Binary GCD with the gcd(0, x) == x convention of support::gcd64.
/// Exposed for the kernels below and for property tests.
inline uint64_t binaryGcd(uint64_t A, uint64_t B) {
  if (A == 0)
    return B;
  if (B == 0)
    return A;
  unsigned Shift = __builtin_ctzll(A | B);
  A >>= __builtin_ctzll(A);
  do {
    B >>= __builtin_ctzll(B);
    // Subtract the smaller odd value from the larger; the difference
    // is even, so the next ctz strips at least one bit per round.
    uint64_t Lo = A < B ? A : B;
    uint64_t Hi = A < B ? B : A;
    A = Lo;
    B = Hi - Lo;
  } while (B);
  return A << Shift;
}

/// GCD over \p N values, identical to folding gcd64 left to right
/// (gcd's associativity makes the four-lane reassociation exact).
/// Returns 0 for an empty input.
uint64_t gcdReduce(const uint64_t *Vals, size_t N);

/// GCD over the adjacent differences of the sorted sequence \p Sorted,
/// each scaled by \p Scale — the Eq. 4/Eq. 5 shape: sampled positions
/// arrive ordered and only their gaps carry stride information.
/// Returns 0 when fewer than two values are given.
uint64_t gcdAdjacentDiffs(const uint64_t *Sorted, size_t N, uint64_t Scale);

} // namespace core
} // namespace structslim

#endif // STRUCTSLIM_CORE_STRIDEKERNEL_H
