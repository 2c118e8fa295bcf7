//===- core/StrideKernel.cpp ----------------------------------*- C++ -*-===//

#include "core/StrideKernel.h"

using namespace structslim;
using namespace structslim::core;

uint64_t structslim::core::gcdReduce(const uint64_t *Vals, size_t N) {
  // Four independent accumulators: each binaryGcd is a data-dependent
  // chain, so interleaving four of them keeps the core's ALUs busy
  // where a single rolling accumulator would stall on its own result.
  uint64_t L0 = 0, L1 = 0, L2 = 0, L3 = 0;
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    L0 = binaryGcd(L0, Vals[I]);
    L1 = binaryGcd(L1, Vals[I + 1]);
    L2 = binaryGcd(L2, Vals[I + 2]);
    L3 = binaryGcd(L3, Vals[I + 3]);
    // All-lanes-1 means the result is pinned to 1: nothing later can
    // change it, so the fold may stop (result still exact).
    if ((L0 & L1 & L2 & L3) == 1 && (L0 | L1 | L2 | L3) == 1)
      return 1;
  }
  for (; I != N; ++I)
    L0 = binaryGcd(L0, Vals[I]);
  return binaryGcd(binaryGcd(L0, L1), binaryGcd(L2, L3));
}

uint64_t structslim::core::gcdAdjacentDiffs(const uint64_t *Sorted, size_t N,
                                            uint64_t Scale) {
  if (N < 2)
    return 0;
  // Lane over the difference stream directly — materializing it first
  // would just traffic a scratch vector through the cache.
  uint64_t L0 = 0, L1 = 0, L2 = 0, L3 = 0;
  size_t I = 1;
  for (; I + 4 <= N; I += 4) {
    L0 = binaryGcd(L0, (Sorted[I] - Sorted[I - 1]) * Scale);
    L1 = binaryGcd(L1, (Sorted[I + 1] - Sorted[I]) * Scale);
    L2 = binaryGcd(L2, (Sorted[I + 2] - Sorted[I + 1]) * Scale);
    L3 = binaryGcd(L3, (Sorted[I + 3] - Sorted[I + 2]) * Scale);
  }
  for (; I != N; ++I)
    L0 = binaryGcd(L0, (Sorted[I] - Sorted[I - 1]) * Scale);
  return binaryGcd(binaryGcd(L0, L1), binaryGcd(L2, L3));
}
