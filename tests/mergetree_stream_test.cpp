//===- tests/mergetree_stream_test.cpp - Streaming-merge identity -*- C++ -*-===//
//
// The streaming shard-ingestion contract: for every shard count and
// job count, loadAndMergeProfiles must produce a result byte-identical
// to an in-memory mergeProfiles of the same shards — the reduction
// tree's shape is part of the output (Profile::merge is not
// associative), so serial loading, streaming accumulation, and
// parallel pair-merging all have to reproduce one canonical tree.
// Also covers the strict-mode all-or-nothing contract at every job
// count and the bounded-memory guarantee (peak resident decoded
// profiles stays O(jobs + log n)).
//
//===----------------------------------------------------------------------===//

#include "profile/MergeTree.h"
#include "profile/Profile.h"
#include "profile/ProfileIO.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace structslim;
using namespace structslim::profile;

namespace {

/// A shard with enough cross-shard overlap that merging is non-trivial:
/// shared objects, shared stream IPs, per-shard representative
/// addresses (exercising the GCD-sharpening that makes merge order
/// observable), and a few shard-private objects.
Profile makeShard(unsigned Shard) {
  Rng R(0xabc0 + Shard);
  Profile P;
  P.ThreadId = Shard;
  P.SamplePeriod = 10000;
  P.TotalSamples = 10 + Shard;
  P.TotalLatency = 1000 * (Shard + 1);
  P.Instructions = 50000 + 17 * Shard;
  P.MemoryAccesses = 9000 + Shard;
  P.Cycles = 100000 + 31 * Shard;
  for (unsigned Obj = 0; Obj != 6; ++Obj) {
    bool Shared = Obj < 4;
    std::string Key = Shared ? "obj" + std::to_string(Obj)
                             : "heap" + std::to_string(Shard) + "_" +
                                   std::to_string(Obj);
    uint32_t Idx = P.getOrCreateObject(Key);
    uint64_t Start = 0x10000ull * (Obj + 1);
    ObjectAgg &Agg = P.Objects[Idx];
    Agg.Name = Key;
    Agg.Start = Start;
    Agg.Size = 1 << 14;
    Agg.SampleCount = 4 + R.nextBelow(10);
    Agg.LatencySum = 100 + R.nextBelow(1000);
    for (unsigned S = 0; S != 5; ++S) {
      StreamRecord &Rec =
          P.getOrCreateStream(0x400000 + 0x100 * Obj + 8 * S, Idx);
      Rec.LoopId = static_cast<int32_t>(S % 3);
      Rec.Line = 10 + S;
      Rec.AccessSize = 8;
      Rec.SampleCount = 1 + R.nextBelow(20);
      Rec.LatencySum = 10 + R.nextBelow(500);
      Rec.UniqueAddrCount = 1 + R.nextBelow(8);
      Rec.StrideGcd = 8ull << (S % 3);
      Rec.ObjectStart = Start;
      Rec.RepAddr = Start + 24ull * (Shard + 1) + S;
      Rec.LastAddr = Rec.RepAddr + Rec.StrideGcd;
      Rec.LevelSamples[S % 4] = 1 + R.nextBelow(5);
      Rec.TlbMissSamples = R.nextBelow(3);
    }
  }
  P.Contexts.attribute(
      P.Contexts.intern({0x400000, 0x400100 + Shard % 3, 0x400200}),
      10 * (Shard + 1));
  P.Contexts.attribute(P.Contexts.intern({0x400000, 0x400400}), 5 + Shard);
  return P;
}

class MergeTreeStream : public ::testing::Test {
protected:
  std::string scratchDir() {
    std::string Dir =
        std::string("mergetree_tmp/") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
    return Dir;
  }

  /// Writes \p Count shards, returning the paths.
  std::vector<std::string> writeShards(const std::string &Dir,
                                       unsigned Count) {
    std::vector<std::string> Files;
    for (unsigned I = 0; I != Count; ++I) {
      std::string Path = Dir + "/thread" + std::to_string(I) + ".structslim";
      std::ofstream(Path, std::ios::binary) << profileToString(makeShard(I));
      Files.push_back(Path);
    }
    return Files;
  }
};

} // namespace

// The tentpole identity: streaming load+merge at every job count ==
// in-memory mergeProfiles at every thread count, for shard counts that
// cover every binary-counter shape (all n through 17, plus a
// power-of-two+1 neighborhood and a larger even spread).
TEST_F(MergeTreeStream, StreamingMatchesTreeForEveryShardAndJobCount) {
  std::string Dir = scratchDir();
  const unsigned Counts[] = {1, 2,  3,  4,  5,  6,  7,  8,  9, 10,
                             11, 12, 13, 14, 15, 16, 17, 33, 64};
  std::vector<std::string> AllFiles = writeShards(Dir, 64);
  for (unsigned N : Counts) {
    std::vector<std::string> Files(AllFiles.begin(), AllFiles.begin() + N);
    std::vector<Profile> Shards;
    for (unsigned I = 0; I != N; ++I)
      Shards.push_back(makeShard(I));
    std::string Expected =
        profileToString(mergeProfiles(std::move(Shards), 1));
    for (unsigned Jobs : {1u, 2u, 4u}) {
      MergeOptions Opts;
      Opts.WorkerThreads = Jobs;
      MergeLoadResult Load = loadAndMergeProfiles(Files, Opts);
      EXPECT_FALSE(Load.StrictFailure);
      ASSERT_EQ(Load.Loaded.size(), N) << "n=" << N << " jobs=" << Jobs;
      EXPECT_EQ(profileToString(Load.Merged), Expected)
          << "n=" << N << " jobs=" << Jobs;
    }
    // The in-memory tree is also job-count invariant.
    std::vector<Profile> Shards4;
    for (unsigned I = 0; I != N; ++I)
      Shards4.push_back(makeShard(I));
    EXPECT_EQ(profileToString(mergeProfiles(std::move(Shards4), 4)),
              Expected)
        << "n=" << N;
  }
}

TEST_F(MergeTreeStream, ShardOrderIsPartOfTheContract) {
  // Merging is order-sensitive by design (the canonical tree is over
  // the input order); the same files in the same order must give the
  // same bytes on repeated runs.
  std::string Dir = scratchDir();
  std::vector<std::string> Files = writeShards(Dir, 9);
  MergeOptions Opts;
  Opts.WorkerThreads = 4;
  std::string First = profileToString(loadAndMergeProfiles(Files, Opts).Merged);
  for (int Run = 0; Run != 3; ++Run)
    EXPECT_EQ(profileToString(loadAndMergeProfiles(Files, Opts).Merged),
              First);
}

// Strict mode is all-or-nothing at every job count: a corrupt shard in
// the middle of the list yields StrictFailure with exactly that shard
// reported, no Loaded paths, and an empty Merged profile — never a
// partially merged result (the bug this guards against: an early
// return that left already-loaded paths in the result).
TEST_F(MergeTreeStream, StrictAbortExposesNoPartialState) {
  std::string Dir = scratchDir();
  std::vector<std::string> Files = writeShards(Dir, 12);
  // Corrupt shard 7 by truncating it mid-payload.
  {
    std::ifstream In(Files[7], std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    In.close();
    std::ofstream(Files[7], std::ios::binary)
        << Bytes.substr(0, Bytes.size() / 2);
  }
  for (unsigned Jobs : {1u, 4u}) {
    MergeOptions Opts;
    Opts.Strict = true;
    Opts.WorkerThreads = Jobs;
    MergeLoadResult Load = loadAndMergeProfiles(Files, Opts);
    EXPECT_TRUE(Load.StrictFailure) << "jobs=" << Jobs;
    ASSERT_EQ(Load.Skipped.size(), 1u) << "jobs=" << Jobs;
    EXPECT_EQ(Load.Skipped[0].Path, Files[7]);
    EXPECT_FALSE(Load.Skipped[0].Message.empty());
    EXPECT_TRUE(Load.Loaded.empty()) << "jobs=" << Jobs;
    EXPECT_EQ(Load.Merged.TotalSamples, 0u);
    EXPECT_TRUE(Load.Merged.Objects.empty());
  }
}

// Non-strict skipping still matches the in-memory merge of survivors
// at every job count.
TEST_F(MergeTreeStream, SkippedShardsKeepIdentityAtEveryJobCount) {
  std::string Dir = scratchDir();
  std::vector<std::string> Files = writeShards(Dir, 10);
  std::ofstream(Files[4], std::ios::binary) << "garbage";
  std::vector<Profile> Survivors;
  for (unsigned I = 0; I != 10; ++I)
    if (I != 4)
      Survivors.push_back(makeShard(I));
  std::string Expected =
      profileToString(mergeProfiles(std::move(Survivors), 1));
  for (unsigned Jobs : {1u, 2u, 4u}) {
    MergeOptions Opts;
    Opts.WorkerThreads = Jobs;
    MergeLoadResult Load = loadAndMergeProfiles(Files, Opts);
    ASSERT_EQ(Load.Skipped.size(), 1u);
    EXPECT_EQ(Load.Skipped[0].Path, Files[4]);
    ASSERT_EQ(Load.Loaded.size(), 9u);
    EXPECT_EQ(profileToString(Load.Merged), Expected) << "jobs=" << Jobs;
  }
}

// The bounded-memory guarantee: the streaming loader never holds more
// than O(jobs + log n) decoded profiles, no matter how many shards are
// merged. (The pre-streaming loader held all n.)
TEST_F(MergeTreeStream, PeakResidentProfilesIsBounded) {
  std::string Dir = scratchDir();
  const unsigned N = 64;
  std::vector<std::string> Files = writeShards(Dir, N);
  for (unsigned Jobs : {1u, 2u, 4u}) {
    MergeOptions Opts;
    Opts.WorkerThreads = Jobs;
    MergeLoadResult Load = loadAndMergeProfiles(Files, Opts);
    ASSERT_EQ(Load.Loaded.size(), N);
    size_t LogN = static_cast<size_t>(std::ceil(std::log2(N))) + 1;
    EXPECT_LE(Load.PeakResidentProfiles, 2 * Jobs + LogN)
        << "jobs=" << Jobs;
    EXPECT_GE(Load.PeakResidentProfiles, 1u);
  }
}

// Timing observability: the load/reduce split is populated.
TEST_F(MergeTreeStream, TimingFieldsArePopulated) {
  std::string Dir = scratchDir();
  std::vector<std::string> Files = writeShards(Dir, 8);
  MergeOptions Opts;
  Opts.WorkerThreads = 2;
  MergeLoadResult Load = loadAndMergeProfiles(Files, Opts);
  EXPECT_GT(Load.LoadSeconds, 0.0);
  EXPECT_GT(Load.ReduceSeconds, 0.0);
}

// Empty input stays well-defined.
TEST_F(MergeTreeStream, EmptyInputYieldsEmptyProfile) {
  MergeLoadResult Load = loadAndMergeProfiles({});
  EXPECT_TRUE(Load.Loaded.empty());
  EXPECT_TRUE(Load.Skipped.empty());
  EXPECT_FALSE(Load.StrictFailure);
  EXPECT_EQ(Load.Merged.TotalSamples, 0u);
}

// The batched (interned) merge and the string-keyed merge are
// bit-identical — directly, not just via the loader.
TEST_F(MergeTreeStream, BatchedMergeMatchesStringMerge) {
  for (unsigned N : {2u, 3u, 5u, 8u}) {
    Profile StringMerged = makeShard(0);
    for (unsigned I = 1; I != N; ++I)
      StringMerged.merge(makeShard(I));

    ObjectKeyInterner Interner;
    MergeScratch Scratch;
    Profile Batched = makeShard(0);
    Batched.internObjectKeys(Interner);
    for (unsigned I = 1; I != N; ++I) {
      Profile Next = makeShard(I);
      Next.internObjectKeys(Interner);
      Batched.merge(Next, Scratch);
    }
    EXPECT_EQ(profileToString(Batched), profileToString(StringMerged))
        << "n=" << N;
  }
}

//===----------------------------------------------------------------------===//
// EpochAccumulator: incremental epochs over the same canonical tree.
//===----------------------------------------------------------------------===//

// Any epoch schedule over a file sequence — one shard at a time,
// batches, lopsided splits — must leave the accumulator bit-identical
// to a one-shot loadAndMergeProfiles over the concatenated sequence,
// at every job count. compact() after each epoch must equal the
// one-shot merge of the prefix consumed so far.
TEST_F(MergeTreeStream, EpochSchedulesMatchOneShotMerge) {
  std::string Dir = scratchDir();
  const unsigned N = 13;
  std::vector<std::string> Files = writeShards(Dir, N);
  const std::vector<std::vector<unsigned>> Schedules = {
      {13},                      // One epoch == plain one-shot.
      {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, // Fully incremental.
      {3, 3, 3, 3, 1},           // Uniform batches with a tail.
      {1, 12},                   // Lopsided early.
      {12, 1},                   // Lopsided late.
      {5, 0, 8},                 // An empty epoch in the middle.
  };
  for (unsigned Jobs : {1u, 2u, 4u}) {
    MergeOptions Opts;
    Opts.WorkerThreads = Jobs;
    for (const std::vector<unsigned> &Schedule : Schedules) {
      EpochAccumulator Acc(Opts);
      size_t Consumed = 0;
      for (unsigned Batch : Schedule) {
        std::vector<std::string> Epoch(Files.begin() + Consumed,
                                       Files.begin() + Consumed + Batch);
        MergeLoadResult Result = Acc.addShards(Epoch);
        EXPECT_FALSE(Result.StrictFailure);
        ASSERT_EQ(Result.Loaded.size(), Batch);
        Consumed += Batch;
        std::vector<std::string> Prefix(Files.begin(),
                                        Files.begin() + Consumed);
        EXPECT_EQ(profileToString(Acc.compact()),
                  profileToString(loadAndMergeProfiles(Prefix, Opts).Merged))
            << "jobs=" << Jobs << " consumed=" << Consumed;
        EXPECT_EQ(Acc.shardCount(), Consumed);
      }
      EXPECT_EQ(profileToString(Acc.take()),
                profileToString(loadAndMergeProfiles(Files, Opts).Merged))
          << "jobs=" << Jobs;
    }
  }
}

// compact() leaves the accumulator intact: repeated compaction returns
// the same bytes, and appending afterwards behaves as if compact() was
// never called.
TEST_F(MergeTreeStream, CompactIsNonDestructive) {
  std::string Dir = scratchDir();
  std::vector<std::string> Files = writeShards(Dir, 9);
  MergeOptions Opts;
  Opts.WorkerThreads = 2;
  EpochAccumulator Acc(Opts);
  Acc.addShards({Files.begin(), Files.begin() + 5});
  std::string First = profileToString(Acc.compact());
  EXPECT_EQ(profileToString(Acc.compact()), First);
  EXPECT_EQ(Acc.shardCount(), 5u);
  Acc.addShards({Files.begin() + 5, Files.end()});
  EXPECT_EQ(profileToString(Acc.take()),
            profileToString(loadAndMergeProfiles(Files, Opts).Merged));
}

// take() drains the accumulator: it resets to empty and can be reused
// for an unrelated shard sequence.
TEST_F(MergeTreeStream, TakeResetsTheAccumulatorForReuse) {
  std::string Dir = scratchDir();
  std::vector<std::string> Files = writeShards(Dir, 8);
  MergeOptions Opts;
  Opts.WorkerThreads = 1;
  EpochAccumulator Acc(Opts);
  Acc.addShards({Files.begin(), Files.begin() + 3});
  (void)Acc.take();
  EXPECT_EQ(Acc.shardCount(), 0u);
  EXPECT_EQ(Acc.residentProfiles(), 0u);
  std::vector<std::string> Second(Files.begin() + 3, Files.end());
  Acc.addShards(Second);
  EXPECT_EQ(profileToString(Acc.take()),
            profileToString(loadAndMergeProfiles(Second, Opts).Merged));
}

// The resident-subtree bound holds across epochs: never more than
// log2(shards) + 1 merged subtrees on the stack.
TEST_F(MergeTreeStream, EpochResidentProfilesStayLogarithmic) {
  std::string Dir = scratchDir();
  const unsigned N = 64;
  std::vector<std::string> Files = writeShards(Dir, N);
  EpochAccumulator Acc;
  for (unsigned I = 0; I != N; ++I) {
    Acc.addShards({Files[I]});
    size_t Bound =
        static_cast<size_t>(std::floor(std::log2(I + 1))) + 1;
    EXPECT_LE(Acc.residentProfiles(), Bound) << "after shard " << I;
  }
  EXPECT_EQ(Acc.shardCount(), N);
}

// Strict mode across epochs: a failing epoch restores the accumulator
// to its pre-call state — the earlier epochs' merge is unchanged, and
// retrying with the repaired shard list continues as if the failed
// call never happened. Exercised at both the serial and streaming job
// counts.
TEST_F(MergeTreeStream, StrictEpochFailureRestoresPriorState) {
  for (unsigned Jobs : {1u, 4u}) {
    std::string Dir = scratchDir();
    std::vector<std::string> Files = writeShards(Dir, 12);
    std::string Corrupt = Dir + "/corrupt.structslim";
    {
      std::ifstream In(Files[8], std::ios::binary);
      std::string Bytes((std::istreambuf_iterator<char>(In)),
                        std::istreambuf_iterator<char>());
      std::ofstream(Corrupt, std::ios::binary)
          << Bytes.substr(0, Bytes.size() / 2);
    }
    MergeOptions Opts;
    Opts.Strict = true;
    Opts.WorkerThreads = Jobs;
    EpochAccumulator Acc(Opts);
    MergeLoadResult First =
        Acc.addShards({Files.begin(), Files.begin() + 6});
    ASSERT_FALSE(First.StrictFailure);
    std::string BeforeFailure = profileToString(Acc.compact());
    size_t ShardsBefore = Acc.shardCount();

    // Epoch 2 aborts on the corrupt shard in the middle.
    std::vector<std::string> BadEpoch = {Files[6], Corrupt, Files[7]};
    MergeLoadResult Failed = Acc.addShards(BadEpoch);
    EXPECT_TRUE(Failed.StrictFailure) << "jobs=" << Jobs;
    ASSERT_EQ(Failed.Skipped.size(), 1u);
    EXPECT_EQ(Failed.Skipped[0].Path, Corrupt);
    EXPECT_FALSE(Failed.Skipped[0].Message.empty());
    EXPECT_TRUE(Failed.Loaded.empty());
    EXPECT_EQ(Acc.shardCount(), ShardsBefore);
    EXPECT_EQ(profileToString(Acc.compact()), BeforeFailure)
        << "jobs=" << Jobs;

    // A repaired epoch continues to the one-shot answer.
    MergeLoadResult Retry =
        Acc.addShards({Files.begin() + 6, Files.end()});
    ASSERT_FALSE(Retry.StrictFailure);
    EXPECT_EQ(profileToString(Acc.take()),
              profileToString(loadAndMergeProfiles(Files, Opts).Merged))
        << "jobs=" << Jobs;
  }
}
