//===- tests/faultinjection_test.cpp - Injected-fault pipeline -*- C++ -*-===//
//
// Drives the support::FaultInjector hooks through the profile
// pipeline: torn writes and failed opens at the ProfileIO file
// boundary, allocation failures in the merge loader, and the
// degradation contract — a bad shard is skipped with a structured
// report, the surviving shards merge to exactly the same profile as an
// in-memory merge of the survivors, and strict mode aborts naming the
// failing path.
//
// Carries the "sanitize" ctest label (see profileio_fuzz_test.cpp).
//
//===----------------------------------------------------------------------===//

#include "profile/MergeTree.h"
#include "profile/Profile.h"
#include "profile/ProfileIO.h"
#include "runtime/ThreadedRuntime.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace structslim;
using namespace structslim::profile;
using support::FaultAction;
using support::FaultInjector;
using support::FaultSite;

namespace {

/// Every test starts and ends with a disarmed injector — the singleton
/// is process-wide state.
class FaultInjection : public ::testing::Test {
protected:
  void SetUp() override { FaultInjector::instance().reset(); }
  void TearDown() override { FaultInjector::instance().reset(); }

  /// A per-test scratch directory under the test working directory.
  std::string scratchDir() {
    std::string Dir =
        std::string("faultinj_tmp/") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
    return Dir;
  }
};

/// A small but non-trivial profile for thread \p Tid.
Profile makeShard(uint32_t Tid) {
  Profile P;
  P.ThreadId = Tid;
  P.SamplePeriod = 10000;
  P.TotalSamples = 5 + Tid;
  P.TotalLatency = 100 * (Tid + 1);
  uint32_t Obj = P.getOrCreateObject("zone@401000");
  P.Objects[Obj].Name = "zone";
  P.Objects[Obj].Start = 0x1000;
  P.Objects[Obj].Size = 4096;
  P.Objects[Obj].SampleCount = 5 + Tid;
  P.Objects[Obj].LatencySum = 100 * (Tid + 1);
  StreamRecord &S = P.getOrCreateStream(0x400100, Obj);
  S.AccessSize = 8;
  S.SampleCount = 5 + Tid;
  S.LatencySum = 100 * (Tid + 1);
  S.UniqueAddrCount = 3;
  S.StrideGcd = 64;
  S.RepAddr = 0x1000 + 64 * Tid;
  S.LastAddr = S.RepAddr;
  S.ObjectStart = 0x1000;
  S.LevelSamples = {3, 1, 1, 0};
  P.Contexts.attribute(P.Contexts.intern({0x400010, 0x400100}),
                       10 * (Tid + 1));
  return P;
}

/// Dumps \p Count shards to \p Dir and returns their paths in thread
/// order (faults armed by the caller apply during the dump).
std::vector<std::string> dumpShards(const std::string &Dir, unsigned Count) {
  std::vector<Profile> Profiles;
  for (unsigned T = 0; T != Count; ++T)
    Profiles.push_back(makeShard(T));
  return runtime::dumpProfiles(Profiles, Dir);
}

/// The expected merge of the shard subset that excludes \p DropTid.
std::string expectedMergeWithout(unsigned Count, unsigned DropTid) {
  std::vector<Profile> Survivors;
  for (unsigned T = 0; T != Count; ++T)
    if (T != DropTid)
      Survivors.push_back(makeShard(T));
  return profileToString(mergeProfiles(std::move(Survivors)));
}

} // namespace

TEST_F(FaultInjection, ArmedHitIndexIsExact) {
  FaultInjector &Inj = FaultInjector::instance();
  Inj.arm(FaultSite::ProfileOpenRead, FaultAction::Fail, 2);
  EXPECT_FALSE(Inj.shouldFail(FaultSite::ProfileOpenRead));
  EXPECT_FALSE(Inj.shouldFail(FaultSite::ProfileOpenRead));
  EXPECT_TRUE(Inj.shouldFail(FaultSite::ProfileOpenRead));
  EXPECT_FALSE(Inj.shouldFail(FaultSite::ProfileOpenRead));
  EXPECT_EQ(Inj.hitCount(FaultSite::ProfileOpenRead), 4u);
  // Sites count independently.
  EXPECT_EQ(Inj.hitCount(FaultSite::ProfileOpenWrite), 0u);
}

TEST_F(FaultInjection, TruncateAndFlipMutations) {
  FaultInjector &Inj = FaultInjector::instance();
  Inj.arm(FaultSite::ProfileWrite, FaultAction::TruncateTail, 0, 10);
  Inj.arm(FaultSite::ProfileWrite, FaultAction::FlipByte, 1, 5);
  std::string A(20, 'a');
  EXPECT_TRUE(Inj.mutate(FaultSite::ProfileWrite, A));
  EXPECT_EQ(A.size(), 10u);
  std::string B(20, 'b');
  EXPECT_TRUE(Inj.mutate(FaultSite::ProfileWrite, B));
  EXPECT_EQ(B.size(), 20u);
  EXPECT_EQ(B[5], static_cast<char>('b' ^ 0xFF));
  std::string C(20, 'c');
  EXPECT_FALSE(Inj.mutate(FaultSite::ProfileWrite, C));
  EXPECT_EQ(C, std::string(20, 'c'));
}

TEST_F(FaultInjection, ChaosModeIsReproducible) {
  FaultInjector &Inj = FaultInjector::instance();
  auto Draw = [&] {
    std::vector<bool> Seq;
    for (int I = 0; I != 64; ++I)
      Seq.push_back(Inj.shouldFail(FaultSite::ProfileOpenRead));
    return Seq;
  };
  Inj.reset();
  Inj.armChaos(42);
  std::vector<bool> First = Draw();
  Inj.reset();
  Inj.armChaos(42);
  EXPECT_EQ(Draw(), First);
  // Some hits fault, some pass — chaos is neither all-on nor all-off.
  EXPECT_NE(std::count(First.begin(), First.end(), true), 0);
  EXPECT_NE(std::count(First.begin(), First.end(), false), 0);
}

TEST_F(FaultInjection, InjectedOpenFailureFailsTheWrite) {
  FaultInjector::instance().arm(FaultSite::ProfileOpenWrite,
                                FaultAction::Fail, 0);
  std::string Error;
  EXPECT_FALSE(
      writeProfileFile(makeShard(0), scratchDir() + "/t.structslim", &Error));
  EXPECT_NE(Error.find("injected open failure"), std::string::npos);
}

TEST_F(FaultInjection, TornWriteIsDetectedOnRead) {
  std::string Path = scratchDir() + "/torn.structslim";
  std::string Full = profileToString(makeShard(0));
  // Tear the write inside the payload, past the v3 header but short of
  // the end marker — the failure mode the unversioned format could not
  // detect.
  ASSERT_GT(Full.size(), 40u);
  size_t Cut = Full.size() - 20;
  FaultInjector::instance().arm(FaultSite::ProfileWrite,
                                FaultAction::TruncateTail, 0, Cut);
  ASSERT_TRUE(writeProfileFile(makeShard(0), Path));
  ASSERT_EQ(std::filesystem::file_size(Path), Cut);

  std::string Error;
  auto Read = readProfileFile(Path, &Error);
  EXPECT_FALSE(Read.has_value());
  EXPECT_NE(Error.find("missing end marker"), std::string::npos);
}

TEST_F(FaultInjection, MergeSkipsTornShardAndMergesSurvivors) {
  std::string Dir = scratchDir();
  // Shard 3's dump is torn mid-write (keep 60 bytes).
  FaultInjector::instance().arm(FaultSite::ProfileWrite,
                                FaultAction::TruncateTail, 3, 60);
  std::vector<std::string> Files = dumpShards(Dir, 8);
  ASSERT_EQ(Files.size(), 8u);

  MergeOptions Opts;
  Opts.WorkerThreads = 1;
  MergeLoadResult Load = loadAndMergeProfiles(Files, Opts);
  EXPECT_FALSE(Load.StrictFailure);
  ASSERT_EQ(Load.Skipped.size(), 1u);
  EXPECT_EQ(Load.Skipped[0].Path, Files[3]);
  EXPECT_FALSE(Load.Skipped[0].Message.empty());
  ASSERT_EQ(Load.Loaded.size(), 7u);
  // The partial merge is exactly the merge of the surviving shards.
  EXPECT_EQ(profileToString(Load.Merged), expectedMergeWithout(8, 3));
}

TEST_F(FaultInjection, MergeSkipsUnopenableShard) {
  std::string Dir = scratchDir();
  std::vector<std::string> Files = dumpShards(Dir, 8);
  ASSERT_EQ(Files.size(), 8u);
  FaultInjector::instance().arm(FaultSite::ProfileOpenRead,
                                FaultAction::Fail, 5);

  MergeOptions Opts;
  Opts.WorkerThreads = 1;
  MergeLoadResult Load = loadAndMergeProfiles(Files, Opts);
  ASSERT_EQ(Load.Skipped.size(), 1u);
  EXPECT_EQ(Load.Skipped[0].Path, Files[5]);
  EXPECT_NE(Load.Skipped[0].Message.find("injected open failure"),
            std::string::npos);
  EXPECT_EQ(profileToString(Load.Merged), expectedMergeWithout(8, 5));
}

TEST_F(FaultInjection, MergeSkipsShardOnAllocationFailure) {
  std::string Dir = scratchDir();
  std::vector<std::string> Files = dumpShards(Dir, 8);
  FaultInjector::instance().arm(FaultSite::MergeShardAlloc,
                                FaultAction::Fail, 0);

  MergeOptions Opts;
  Opts.WorkerThreads = 1;
  MergeLoadResult Load = loadAndMergeProfiles(Files, Opts);
  ASSERT_EQ(Load.Skipped.size(), 1u);
  EXPECT_EQ(Load.Skipped[0].Path, Files[0]);
  EXPECT_NE(Load.Skipped[0].Message.find("allocation failure"),
            std::string::npos);
  EXPECT_EQ(profileToString(Load.Merged), expectedMergeWithout(8, 0));
}

TEST_F(FaultInjection, StrictModeAbortsNamingTheFailingPath) {
  std::string Dir = scratchDir();
  // Corrupt shard 2 with a torn write this time.
  FaultInjector::instance().arm(FaultSite::ProfileWrite,
                                FaultAction::TruncateTail, 2, 40);
  std::vector<std::string> Files = dumpShards(Dir, 8);

  MergeOptions Opts;
  Opts.Strict = true;
  Opts.WorkerThreads = 1;
  MergeLoadResult Load = loadAndMergeProfiles(Files, Opts);
  EXPECT_TRUE(Load.StrictFailure);
  ASSERT_EQ(Load.Skipped.size(), 1u);
  EXPECT_EQ(Load.Skipped[0].Path, Files[2]);
  EXPECT_FALSE(Load.Skipped[0].Message.empty());
  // Nothing was merged: strict means all-or-nothing.
  EXPECT_EQ(Load.Merged.TotalSamples, 0u);
}

TEST_F(FaultInjection, DumpReportsInjectedOpenFailures) {
  std::string Dir = scratchDir();
  FaultInjector::instance().arm(FaultSite::ProfileOpenWrite,
                                FaultAction::Fail, 1);
  std::vector<Profile> Profiles;
  for (unsigned T = 0; T != 3; ++T)
    Profiles.push_back(makeShard(T));
  std::vector<std::string> Failures;
  std::vector<std::string> Written =
      runtime::dumpProfiles(Profiles, Dir, "", &Failures);
  EXPECT_EQ(Written.size(), 2u);
  ASSERT_EQ(Failures.size(), 1u);
  EXPECT_NE(Failures[0].find("thread1.structslim"), std::string::npos);
  EXPECT_NE(Failures[0].find("injected open failure"), std::string::npos);
}

TEST_F(FaultInjection, FlippedByteShardIsRejectedNotMisread) {
  std::string Dir = scratchDir();
  std::string Blob = profileToString(makeShard(0));
  // Flip a byte in the middle of the v3 payload during the dump; the
  // loader must reject the shard (checksum mismatch — never a silent
  // misread).
  size_t Pos = Blob.size() / 2;
  FaultInjector::instance().arm(FaultSite::ProfileWrite,
                                FaultAction::FlipByte, 0, Pos);
  std::string Path = Dir + "/flipped.structslim";
  ASSERT_TRUE(writeProfileFile(makeShard(0), Path));

  MergeLoadResult Load = loadAndMergeProfiles({Path});
  EXPECT_EQ(Load.Loaded.size(), 0u);
  ASSERT_EQ(Load.Skipped.size(), 1u);
  EXPECT_FALSE(Load.Skipped[0].Message.empty());
}

TEST_F(FaultInjection, PayloadByteSubstitutionFailsTheV3Checksum) {
  // Overwrite one payload byte with a different value (framing intact,
  // lengths unchanged): the kind of damage that can still decode as a
  // well-formed record. The section CRC must catch it.
  std::string Blob = profileToString(makeShard(0));
  size_t Pos = Blob.size() - 24; // Inside the last payload section.
  Blob[Pos] = static_cast<char>(Blob[Pos] + 1);

  std::string Path = scratchDir() + "/substituted_v3.structslim";
  std::ofstream(Path, std::ios::binary) << Blob;
  std::string Error;
  auto Read = readProfileFile(Path, &Error);
  EXPECT_FALSE(Read.has_value());
  EXPECT_NE(Error.find("checksum mismatch"), std::string::npos);
}
