//===- support/ThreadPool.h - Work-stealing thread pool --------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reusable work-stealing thread pool shared by every parallel
/// component: MergeTree reduces profile pairs and decodes shards on
/// it, and the workload Driver sizes its merge from it.
///
/// Each worker owns a deque; it pops work from the back and steals from
/// the front of other workers' deques when its own runs dry.
///
/// The default worker count comes from the STRUCTSLIM_THREADS
/// environment variable when set, otherwise from
/// std::thread::hardware_concurrency().
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_SUPPORT_THREADPOOL_H
#define STRUCTSLIM_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace structslim {
namespace support {

class ThreadPool {
public:
  /// Creates a pool with \p Workers OS threads; 0 means
  /// defaultThreadCount().
  explicit ThreadPool(unsigned Workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned getWorkerCount() const;

  /// Calls Body(I) for every I in [Begin, End), distributing indices
  /// over the workers; blocks until all calls returned. The calling
  /// thread participates, so the pool works even with zero free
  /// workers.
  void parallelFor(size_t Begin, size_t End,
                   const std::function<void(size_t)> &Body);

  /// Enqueues one task and returns immediately. The caller owns
  /// completion tracking (the streaming merge loader counts its slots);
  /// the destructor still drains every queued task before joining.
  void submit(std::function<void()> Task);

  /// Process-wide shared pool, lazily created at defaultThreadCount().
  static ThreadPool &global();

  /// STRUCTSLIM_THREADS when set (clamped to [1, 256]), otherwise
  /// hardware_concurrency(), never 0.
  static unsigned defaultThreadCount();

private:
  struct Worker;
  struct TaskGroup;

  void workerLoop(size_t Index);
  bool trySteal(size_t Self, std::function<void()> &Out);
  void spawnLocked(unsigned Count);

  mutable std::mutex Mutex; ///< Guards Workers and all deques.
  std::condition_variable WorkAvailable;
  std::vector<std::unique_ptr<Worker>> Workers;
  size_t NextDeque = 0; ///< Round-robin submission cursor.
  bool ShuttingDown = false;
};

} // namespace support
} // namespace structslim

#endif // STRUCTSLIM_SUPPORT_THREADPOOL_H
