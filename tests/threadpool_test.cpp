//===- tests/threadpool_test.cpp - FIFO pool tests -------------*- C++ -*-===//
//
// Contracts of support::ThreadPool, the pool behind the shard loader's
// decode window, and of its STRUCTSLIM_THREADS parsing. Labeled "tsan"
// so the ThreadSanitizer build runs them.
//
//===----------------------------------------------------------------------===//

#include "ThreadsEnv.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

using namespace structslim;

TEST(ThreadPool, SubmitRunsEachTaskExactlyOnce) {
  std::vector<std::atomic<int>> Ran(1000);
  std::mutex M;
  std::condition_variable AllDone;
  size_t Finished = 0;
  support::ThreadPool Pool(3);
  for (size_t I = 0; I != Ran.size(); ++I)
    Pool.submit([&, I] {
      Ran[I].fetch_add(1);
      std::lock_guard<std::mutex> Lock(M);
      if (++Finished == Ran.size())
        AllDone.notify_one();
    });
  {
    std::unique_lock<std::mutex> Lock(M);
    AllDone.wait(Lock, [&] { return Finished == Ran.size(); });
  }
  for (size_t I = 0; I != Ran.size(); ++I)
    ASSERT_EQ(Ran[I].load(), 1) << I;
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> Ran{0};
  {
    support::ThreadPool Pool(1);
    // The only worker sleeps in the first task, so the destructor
    // starts while the other 50 are still queued.
    Pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      Ran.fetch_add(1);
    });
    for (int I = 0; I != 50; ++I)
      Pool.submit([&] { Ran.fetch_add(1); });
  }
  EXPECT_EQ(Ran.load(), 51);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvOverride) {
  unsigned Hw = std::thread::hardware_concurrency();
  unsigned Fallback = Hw == 0 ? 1 : Hw;
  struct Case {
    const char *Value;
    unsigned Want;
  } Cases[] = {
      {"2", 2},           {"4abc", Fallback}, {"-3", Fallback},
      {"0", Fallback},    {"", Fallback},     {"999", 256},
      {nullptr, Fallback},
  };
  for (const Case &C : Cases) {
    ThreadsEnv Env(C.Value);
    EXPECT_EQ(support::ThreadPool::defaultThreadCount(), C.Want)
        << "STRUCTSLIM_THREADS=" << (C.Value ? C.Value : "(unset)");
  }
}
