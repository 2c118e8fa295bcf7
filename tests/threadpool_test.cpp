//===- tests/threadpool_test.cpp - FIFO pool tests -------------*- C++ -*-===//
//
// Contracts of support::ThreadPool, the pool behind the shard loader's
// decode window, and of its worker count: STRUCTSLIM_THREADS parsing,
// the affinity-mask fallback, and the one-worker simulation placement
// that count selects. Labeled "tsan" so the ThreadSanitizer build runs
// them.
//
//===----------------------------------------------------------------------===//

#include "ThreadsEnv.h"
#include "support/ThreadPool.h"
#include "transform/FieldMap.h"
#include "workloads/Driver.h"
#include "workloads/Registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace structslim;

namespace {

/// CPUs in this process's affinity mask.
unsigned usableCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 0;
  return static_cast<unsigned>(CPU_COUNT(&Set));
}

} // namespace

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
  unsigned Fallback = usableCpus();
  ASSERT_GT(Fallback, 0u);
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

// Without STRUCTSLIM_THREADS the count is the affinity mask's, not the
// host's: a child pinned to one CPU (as under `taskset -c 0`) counts
// one worker, so a profiled run there simulates inline instead of
// starting a consumer thread that would time-share its only CPU.
TEST(ThreadPool, OneCpuAffinityMaskMeansOneWorkerAndInlineSimulation) {
  ThreadsEnv Unset(nullptr);
  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    cpu_set_t Mask;
    if (sched_getaffinity(0, sizeof(Mask), &Mask) != 0)
      ::_exit(3);
    cpu_set_t One;
    CPU_ZERO(&One);
    for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Mask)) {
        CPU_SET(Cpu, &One);
        break;
      }
    if (sched_setaffinity(0, sizeof(One), &One) != 0)
      ::_exit(3);
    if (support::ThreadPool::defaultThreadCount() != 1)
      ::_exit(4);
    auto W = workloads::makeTsp();
    workloads::DriverConfig Cfg;
    Cfg.Scale = 0.02;
    transform::FieldMap Map(W->hotLayout());
    workloads::WorkloadRun Run =
        workloads::runWorkload(*W, Map, Cfg, /*Attach=*/true);
    if (Run.Result.Instructions == 0 || Run.Result.PipelineRecords != 0 ||
        Run.Result.ConsumerBatches != 0)
      ::_exit(5);
    ::_exit(0);
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0)
      << "3: affinity calls failed; 4: defaultThreadCount() != 1; "
         "5: the pinned run published pipeline records";
}
