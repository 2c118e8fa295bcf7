//===- profile/MergeTree.cpp ----------------------------------*- C++ -*-===//

#include "profile/MergeTree.h"

#include "profile/ProfileIO.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <utility>

using namespace structslim;
using namespace structslim::profile;

namespace {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Builds the canonical adjacent-pair tree (see MergeTree.h) as a
/// binary counter: a stack of merged subtrees with strictly decreasing
/// leaf counts, each a power of two.
class Accumulator {
public:
  /// Folds \p P in as the next leaf. Keys intern here, so the whole
  /// batch hashes each distinct key string once and every merge
  /// matches objects by u32 id through the epoch-tagged scratch.
  void push(Profile P) {
    P.internObjectKeys(Interner);
    Stack.push_back({std::move(P), 1});
    while (Stack.size() >= 2 &&
           Stack[Stack.size() - 2].Weight == Stack.back().Weight) {
      mergeTop();
      Stack.back().Weight *= 2;
    }
  }

  /// Subtrees currently resident — at most log2(leaves) + 1.
  size_t resident() const { return Stack.size(); }

  /// Right-folds the stack from the top, which matches the tree's
  /// odd-tail promotion. Empty profile when nothing was pushed.
  Profile take() {
    if (Stack.empty())
      return Profile();
    while (Stack.size() > 1)
      mergeTop();
    return std::move(Stack.back().P);
  }

private:
  struct Entry {
    Profile P;
    uint64_t Weight; ///< Leaf count.
  };

  void mergeTop() {
    Entry Top = std::move(Stack.back());
    Stack.pop_back();
    Stack.back().P.merge(Top.P, Scratch);
  }

  std::vector<Entry> Stack;
  MergeScratch Scratch;
  ObjectKeyInterner Interner;
};

struct Decoded {
  std::optional<Profile> P;
  std::string Error;
  double Seconds = 0;
};

Decoded decode(const std::string &Path) {
  auto Start = Clock::now();
  Decoded D;
  D.P = readProfileFile(Path, &D.Error);
  D.Seconds = secondsSince(Start);
  return D;
}

/// Hands out shard decodes strictly in file order. With a depth of 0
/// each shard decodes on the caller's thread when taken; otherwise up
/// to Depth decodes run ahead on the shared pool.
class DecodeWindow {
public:
  DecodeWindow(const std::vector<std::string> &Files, size_t Depth)
      : Files(Files) {
    while (Submitted < std::min(Depth, Files.size()))
      submitNext();
  }

  /// Submitted tasks reference this window; wait for every one of them.
  ~DecodeWindow() {
    for (std::future<Decoded> &F : Ahead)
      F.wait();
  }

  /// Shard \p I's decode; shards must be taken in order.
  Decoded take(size_t I) {
    if (Ahead.empty())
      return decode(Files[I]);
    Decoded D = Ahead.front().get();
    Ahead.pop_front();
    if (D.P)
      --ReadyProfiles;
    if (Submitted < Files.size())
      submitNext();
    return D;
  }

  /// Decoded profiles waiting behind the last one taken.
  size_t readyAhead() const { return ReadyProfiles.load(); }

private:
  void submitNext() {
    size_t I = Submitted++;
    auto Task = std::make_shared<std::packaged_task<Decoded()>>([this, I] {
      Decoded D = decode(Files[I]);
      if (D.P)
        ++ReadyProfiles;
      return D;
    });
    Ahead.push_back(Task->get_future());
    support::ThreadPool::global().submit([Task] { (*Task)(); });
  }

  const std::vector<std::string> &Files;
  /// Decodes submitted but not yet taken, in file order; always empty at
  /// depth 0.
  std::deque<std::future<Decoded>> Ahead;
  size_t Submitted = 0;
  std::atomic<size_t> ReadyProfiles{0};
};

} // namespace

Profile structslim::profile::mergeProfiles(std::vector<Profile> Profiles) {
  Accumulator Acc;
  for (Profile &P : Profiles)
    Acc.push(std::move(P));
  return Acc.take();
}

MergeLoadResult
structslim::profile::loadAndMergeProfiles(const std::vector<std::string> &Files,
                                          const MergeOptions &Opts) {
  support::FaultInjector &Injector = support::FaultInjector::instance();
  unsigned Jobs = Opts.WorkerThreads ? Opts.WorkerThreads
                                     : support::ThreadPool::defaultThreadCount();
  // Armed fault injection pins decode order (hit N must be file N);
  // one job or one file gains nothing from decoding ahead.
  bool Inline = Jobs <= 1 || Files.size() <= 1 || Injector.anyArmed();
  MergeLoadResult Result;
  Accumulator Acc;
  DecodeWindow Window(Files, Inline ? 0 : 2 * static_cast<size_t>(Jobs));

  for (size_t I = 0; I != Files.size(); ++I) {
    Decoded D = Window.take(I);
    Result.LoadSeconds += D.Seconds;
    size_t Resident = Window.readyAhead() + (D.P ? 1 : 0) + Acc.resident();
    Result.PeakResidentProfiles =
        std::max(Result.PeakResidentProfiles, Resident);
    if (D.P && Injector.shouldFail(support::FaultSite::MergeShardAlloc)) {
      D.P.reset();
      D.Error = "injected allocation failure buffering shard";
    }
    if (!D.P) {
      Result.Skipped.push_back({Files[I], D.Error});
      if (Opts.Strict) {
        // All-or-nothing: the aborting shard is the only one reported
        // (strict mode skipped none before it) and no partial merge is
        // exposed. The window waits for decodes still in flight.
        Result.StrictFailure = true;
        Result.Loaded.clear();
        return Result;
      }
      continue;
    }
    auto ReduceStart = Clock::now();
    Acc.push(std::move(*D.P));
    Result.ReduceSeconds += secondsSince(ReduceStart);
    Result.Loaded.push_back(Files[I]);
  }
  Result.Merged = Acc.take();
  return Result;
}
