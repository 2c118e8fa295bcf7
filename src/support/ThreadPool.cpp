//===- support/ThreadPool.cpp ---------------------------------*- C++ -*-===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

using namespace structslim;
using namespace structslim::support;

unsigned ThreadPool::defaultThreadCount() {
  if (const char *Env = std::getenv("STRUCTSLIM_THREADS")) {
    std::string_view Text(Env);
    // Digits only: "4abc", "-3" and "" fall back rather than parse a
    // prefix. An out-of-range value saturates at ULONG_MAX and clamps.
    if (!Text.empty() && std::all_of(Text.begin(), Text.end(), [](char C) {
          return C >= '0' && C <= '9';
        })) {
      unsigned long Value = std::strtoul(Env, nullptr, 10);
      if (Value > 0)
        return static_cast<unsigned>(std::min(Value, 256ul));
    }
  }
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw == 0 ? 1 : Hw;
}

ThreadPool &ThreadPool::global() {
  static ThreadPool Pool(defaultThreadCount());
  return Pool;
}

ThreadPool::ThreadPool(unsigned Workers) {
  for (unsigned I = 0; I != Workers; ++I)
    Threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    WorkAvailable.wait(Lock, [this] { return ShuttingDown || !Queue.empty(); });
    if (Queue.empty())
      return; // Shutting down with nothing left to drain.
    std::function<void()> Task = std::move(Queue.front());
    Queue.pop_front();
    Lock.unlock();
    Task();
    Lock.lock();
  }
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Task));
  }
  WorkAvailable.notify_one();
}
