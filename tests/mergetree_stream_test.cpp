//===- tests/mergetree_stream_test.cpp - Streaming-merge identity -*- C++ -*-===//
//
// The reduction-tree contract: for every shard count, mergeProfiles and
// loadAndMergeProfiles at every job count must produce bytes identical
// to a level-by-level reference reduction over the string-keyed
// Profile::merge — the tree's shape is part of the output
// (Profile::merge is not associative), so the accumulator both entry
// points fold through has to reproduce the canonical adjacent-pair
// tree. Also covers the strict-mode all-or-nothing contract, skipping,
// empty input and the bounded-memory guarantee (peak resident decoded
// profiles stays O(jobs + log n)) at every job count.
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
    // obj3 is the tree-shape probe: shards with Shard % 5 in {1, 4}
    // see another instance of it, and each stream's RepAddr offset is a
    // shard-dependent power of two, so which shards pair up decides
    // which differences sharpen its strides.
    bool Probe = Obj == 3;
    uint64_t Start = 0x10000ull * (Obj + 1) +
                     (Probe && Shard % 5 % 3 == 1 ? 0x800000 : 0);
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
      Rec.StrideGcd = Probe ? 8ull << 8 : 8ull << (S % 3);
      Rec.ObjectStart = Start;
      Rec.RepAddr = Probe ? Start + (8ull << (Shard * 5 + S) % 7)
                          : Start + 24ull * (Shard + 1) + S;
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

/// The oracle for the canonical tree: adjacent pairs reduced level by
/// level with an odd tail promoted unmerged, over the string-keyed
/// merge.
Profile referenceTree(std::vector<Profile> Level) {
  if (Level.empty())
    return Profile();
  while (Level.size() > 1) {
    std::vector<Profile> Next;
    for (size_t I = 0; I + 1 < Level.size(); I += 2) {
      Level[I].merge(Level[I + 1]);
      Next.push_back(std::move(Level[I]));
    }
    if (Level.size() % 2)
      Next.push_back(std::move(Level.back()));
    Level = std::move(Next);
  }
  return std::move(Level.front());
}

std::vector<Profile> makeShards(unsigned Count) {
  std::vector<Profile> Shards;
  for (unsigned I = 0; I != Count; ++I)
    Shards.push_back(makeShard(I));
  return Shards;
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

// mergeProfiles and the loader at every job count == the reference
// tree, for shard counts that cover every binary-counter shape (all n
// through 17, plus a power-of-two+1 neighborhood and a larger even
// spread).
TEST_F(MergeTreeStream, StreamingMatchesTreeForEveryShardAndJobCount) {
  std::string Dir = scratchDir();
  const unsigned Counts[] = {1, 2,  3,  4,  5,  6,  7,  8,  9, 10,
                             11, 12, 13, 14, 15, 16, 17, 33, 64};
  std::vector<std::string> AllFiles = writeShards(Dir, 64);
  for (unsigned N : Counts) {
    std::vector<std::string> Files(AllFiles.begin(), AllFiles.begin() + N);
    std::string Expected = profileToString(referenceTree(makeShards(N)));
    EXPECT_EQ(profileToString(mergeProfiles(makeShards(N))), Expected)
        << "n=" << N;
    for (unsigned Jobs : {1u, 2u, 4u}) {
      MergeOptions Opts;
      Opts.WorkerThreads = Jobs;
      MergeLoadResult Load = loadAndMergeProfiles(Files, Opts);
      EXPECT_FALSE(Load.StrictFailure);
      ASSERT_EQ(Load.Loaded.size(), N) << "n=" << N << " jobs=" << Jobs;
      EXPECT_EQ(profileToString(Load.Merged), Expected)
          << "n=" << N << " jobs=" << Jobs;
    }
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
  for (unsigned Jobs : {1u, 2u, 4u}) {
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

// Non-strict skipping still matches the reference tree over the
// survivors at every job count.
TEST_F(MergeTreeStream, SkippedShardsKeepIdentityAtEveryJobCount) {
  std::string Dir = scratchDir();
  std::vector<std::string> Files = writeShards(Dir, 10);
  std::ofstream(Files[4], std::ios::binary) << "garbage";
  std::vector<Profile> Survivors;
  for (unsigned I = 0; I != 10; ++I)
    if (I != 4)
      Survivors.push_back(makeShard(I));
  std::string Expected = profileToString(referenceTree(std::move(Survivors)));
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
  EXPECT_EQ(mergeProfiles({}).TotalSamples, 0u);
  for (unsigned Jobs : {1u, 2u, 4u}) {
    MergeOptions Opts;
    Opts.WorkerThreads = Jobs;
    MergeLoadResult Load = loadAndMergeProfiles({}, Opts);
    EXPECT_TRUE(Load.Loaded.empty());
    EXPECT_TRUE(Load.Skipped.empty());
    EXPECT_FALSE(Load.StrictFailure);
    EXPECT_EQ(Load.Merged.TotalSamples, 0u);
  }
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
