//===- tests/ThreadsEnv.h - Scoped STRUCTSLIM_THREADS override --*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// support::ThreadPool::defaultThreadCount() reads STRUCTSLIM_THREADS on
// every call, so a test can flip the simulation placement (inline with
// one worker vs a dedicated consumer thread from two on) and the
// loader's default decode look-ahead at will on any host.
//
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_TESTS_THREADSENV_H
#define STRUCTSLIM_TESTS_THREADSENV_H

#include <cstdlib>
#include <string>

namespace structslim {

/// Sets STRUCTSLIM_THREADS to \p Value (nullptr unsets it) for the
/// object's lifetime, then restores the previous state.
class ThreadsEnv {
public:
  explicit ThreadsEnv(const char *Value) {
    const char *Old = std::getenv("STRUCTSLIM_THREADS");
    Had = Old != nullptr;
    Saved = Old ? Old : "";
    set(Value);
  }
  ~ThreadsEnv() { set(Had ? Saved.c_str() : nullptr); }

private:
  static void set(const char *Value) {
    if (Value)
      setenv("STRUCTSLIM_THREADS", Value, 1);
    else
      unsetenv("STRUCTSLIM_THREADS");
  }

  std::string Saved;
  bool Had = false;
};

} // namespace structslim

#endif // STRUCTSLIM_TESTS_THREADSENV_H
