//===- support/ThreadPool.h - Persistent FIFO thread pool ------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent thread pool with one FIFO queue behind one mutex. Its
/// one client is MergeTree's shard loader, which keeps a bounded
/// window of shard decodes running ahead of the in-order fold.
///
/// The workers live as long as the pool: spawning threads per call
/// would add tens of microseconds to every load of a handful of
/// shards.
///
/// The default worker count comes from the STRUCTSLIM_THREADS
/// environment variable when set, otherwise from the number of CPUs
/// the process may run on. The same count decides whether a simulated
/// phase gets a consumer thread (runtime/ThreadedRuntime).
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_SUPPORT_THREADPOOL_H
#define STRUCTSLIM_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace structslim {
namespace support {

class ThreadPool {
public:
  /// Starts \p Workers (at least 1) OS threads.
  explicit ThreadPool(unsigned Workers);
  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues one task and returns immediately. Tasks start in
  /// submission order; the caller owns completion tracking.
  void submit(std::function<void()> Task);

  /// Process-wide shared pool, lazily created at defaultThreadCount().
  static ThreadPool &global();

  /// STRUCTSLIM_THREADS when it is a positive decimal number (clamped
  /// to 256), otherwise the CPUs in the process's affinity mask (so a
  /// `taskset -c 0` run counts 1), never 0.
  static unsigned defaultThreadCount();

private:
  void workerLoop();

  std::mutex Mutex; ///< Guards Queue and ShuttingDown.
  std::condition_variable WorkAvailable;
  std::deque<std::function<void()>> Queue;
  bool ShuttingDown = false;
  std::vector<std::thread> Threads;
};

} // namespace support
} // namespace structslim

#endif // STRUCTSLIM_SUPPORT_THREADPOOL_H
