//===- tests/threadpool_test.cpp - Work-stealing pool tests ----*- C++ -*-===//
//
// Basic contracts of support::ThreadPool, the pool behind the parallel
// merge. Labeled "tsan" so the ThreadSanitizer build runs them.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

using namespace structslim;

TEST(ThreadPool, ParallelForCoversRangeExactly) {
  support::ThreadPool Pool(3);
  std::vector<std::atomic<int>> Touched(1000);
  Pool.parallelFor(0, Touched.size(),
                   [&Touched](size_t I) { Touched[I].fetch_add(1); });
  for (size_t I = 0; I != Touched.size(); ++I)
    ASSERT_EQ(Touched[I].load(), 1) << I;
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvOverride) {
  // The pool never reports zero threads, env var or not.
  EXPECT_GE(support::ThreadPool::defaultThreadCount(), 1u);
}
