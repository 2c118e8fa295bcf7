//===- tests/multiprocess_test.cpp - Cross-process merging -----*- C++ -*-===//
//
// Paper Sec. 4.4 covers programs with "multiple threads or/and
// processes": profiles from different processes merge by data-object
// identity (symbol name / allocation call path), and all analyses run
// on the aggregate. These tests run several independent instances of a
// parallel workload (each its own address space and sampling phase)
// and verify the merged analysis.
//
//===----------------------------------------------------------------------===//

#include "core/Advice.h"
#include "profile/MergeTree.h"
#include "profile/ProfileIO.h"
#include "support/FaultInjection.h"
#include "workloads/Driver.h"
#include "workloads/Registry.h"

#include <gtest/gtest.h>

#include <filesystem>

using namespace structslim;
using namespace structslim::workloads;

namespace {

DriverConfig testConfig() {
  DriverConfig Cfg;
  Cfg.Scale = 0.1;
  Cfg.Run.Sampling.Period = 2000;
  return Cfg;
}

} // namespace

TEST(MultiProcess, SamplesAggregateAcrossProcesses) {
  auto W = makeClomp();
  transform::FieldMap Map(W->hotLayout());
  MultiProcessResult R = runProcesses(*W, Map, testConfig(), 3);
  ASSERT_EQ(R.Processes.size(), 3u);
  uint64_t Sum = 0;
  for (const auto &P : R.Processes)
    Sum += P.Samples;
  EXPECT_EQ(R.Merged.TotalSamples, Sum);
  EXPECT_GT(Sum, 0u);
}

TEST(MultiProcess, ObjectsAlignByAllocationSite) {
  auto W = makeClomp();
  transform::FieldMap Map(W->hotLayout());
  MultiProcessResult R = runProcesses(*W, Map, testConfig(), 2);
  // Every process allocated its own zone array, but the allocation
  // site is the same instruction: one aggregate object.
  const profile::ObjectAgg *Zone = nullptr;
  for (const profile::ObjectAgg &O : R.Merged.Objects)
    if (O.Name == "_Zone") {
      EXPECT_EQ(Zone, nullptr) << "duplicate _Zone aggregates";
      Zone = &O;
    }
  ASSERT_NE(Zone, nullptr);
}

TEST(MultiProcess, IndependentSamplingPhases) {
  // Different processes must not sample the identical access index
  // sequence (their PMUs jitter independently); totals then differ
  // slightly even though execution is identical.
  auto W = makeLibquantum();
  transform::FieldMap Map(W->hotLayout());
  MultiProcessResult R = runProcesses(*W, Map, testConfig(), 2);
  ASSERT_EQ(R.Processes.size(), 2u);
  EXPECT_EQ(R.Processes[0].MemoryAccesses, R.Processes[1].MemoryAccesses);
  // Sample positions differ; identical totals would be a 1-in-large
  // coincidence, but latencies are what distinguish reliably.
  EXPECT_GT(R.Processes[0].Samples, 0u);
  EXPECT_GT(R.Processes[1].Samples, 0u);
}

// The advice does not depend on how many worker profiles merge: 1, 3
// and 4 processes of four CLOMP workers each give 4, 12 and 16 worker
// profiles, 16 being the paper machine's core count.
TEST(MultiProcess, MergedAnalysisMatchesPaperAdvice) {
  auto W = makeClomp();
  transform::FieldMap Map(W->hotLayout());
  ir::StructLayout Layout = W->hotLayout();
  for (unsigned Processes : {1u, 3u, 4u}) {
    SCOPED_TRACE(std::to_string(Processes) + " processes");
    MultiProcessResult R = runProcesses(*W, Map, testConfig(), Processes);
    ASSERT_EQ(R.Processes.size(), Processes);
    core::StructSlimAnalyzer Analyzer(*R.CodeMap);
    Analyzer.registerLayout(W->hotObjectName(), Layout);
    core::AnalysisResult Analysis = Analyzer.analyze(R.Merged);
    const core::ObjectAnalysis *Hot = Analysis.findObject("_Zone");
    ASSERT_NE(Hot, nullptr);
    EXPECT_EQ(Hot->StructSize, 32u);
    core::SplitPlan Plan = core::makeSplitPlan(*Hot, &Layout);
    ASSERT_TRUE(Plan.isSplit());
    // Fig. 11: {value, nextZone} is the hot cluster.
    EXPECT_EQ(Plan.ClusterOffsets[0], (std::vector<uint32_t>{16, 24}));
  }
}

namespace {

/// Runs \p NumProcesses independent CLOMP instances (each its own
/// Machine and sampling phase, as runProcesses does) and returns every
/// per-thread profile as one flat shard set — the files a production
/// job's threads would each dump without synchronization. Thread ids
/// are renumbered globally so dump names cannot collide.
std::vector<profile::Profile> runShards(unsigned NumProcesses) {
  auto W = makeClomp();
  transform::FieldMap Map(W->hotLayout());
  DriverConfig Cfg = testConfig();
  std::vector<profile::Profile> Shards;
  for (unsigned Rank = 0; Rank != NumProcesses; ++Rank) {
    runtime::RunConfig RunCfg = Cfg.Run;
    RunCfg.Sampling.Seed = Cfg.Run.Sampling.Seed + 7919 * (Rank + 1);
    runtime::ThreadedRuntime Runtime(RunCfg);
    BuiltWorkload Built = W->build(Runtime.machine(), Map, Cfg.Scale);
    analysis::CodeMap CodeMap(*Built.Program);
    for (const auto &Phase : Built.Phases)
      Runtime.runPhase(*Built.Program, &CodeMap, Phase);
    runtime::RunResult R = Runtime.finish();
    for (profile::Profile &P : R.Profiles)
      Shards.push_back(std::move(P));
  }
  for (size_t I = 0; I != Shards.size(); ++I)
    Shards[I].ThreadId = static_cast<uint32_t>(I);
  return Shards;
}

std::string freshDir(const std::string &Name) {
  std::string Dir = "multiproc_tmp/" + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

} // namespace

TEST(MultiProcess, DumpLoadMergeEqualsInMemoryMerge) {
  support::FaultInjector::instance().reset();
  std::vector<profile::Profile> Shards = runShards(2);
  ASSERT_GE(Shards.size(), 8u); // 2 processes x >= 4 worker threads.

  std::string Expected =
      profile::profileToString(profile::mergeProfiles(Shards));
  std::vector<std::string> Files =
      runtime::dumpProfiles(Shards, freshDir("roundtrip"));
  ASSERT_EQ(Files.size(), Shards.size());

  profile::MergeOptions Opts;
  Opts.WorkerThreads = 1;
  profile::MergeLoadResult Load = profile::loadAndMergeProfiles(Files, Opts);
  EXPECT_TRUE(Load.Skipped.empty());
  EXPECT_EQ(profile::profileToString(Load.Merged), Expected);
}

TEST(MultiProcess, CorruptShardYieldsWarnedPartialMerge) {
  // The acceptance scenario: one shard of an 8-thread job is torn
  // mid-write; the merge must skip it with a structured report and the
  // merged latencies must equal the merge of the surviving shards.
  support::FaultInjector &Inj = support::FaultInjector::instance();
  Inj.reset();
  std::vector<profile::Profile> Shards = runShards(2);
  ASSERT_GE(Shards.size(), 8u);
  Shards.resize(8);

  const unsigned Torn = 4;
  std::vector<profile::Profile> Survivors;
  for (size_t I = 0; I != Shards.size(); ++I)
    if (I != Torn)
      Survivors.push_back(Shards[I]);
  std::string Expected =
      profile::profileToString(profile::mergeProfiles(Survivors));

  Inj.arm(support::FaultSite::ProfileWrite,
          support::FaultAction::TruncateTail, Torn, 100);
  std::vector<std::string> Files =
      runtime::dumpProfiles(Shards, freshDir("corrupt"));
  Inj.reset();
  ASSERT_EQ(Files.size(), 8u);

  profile::MergeOptions Opts;
  Opts.WorkerThreads = 1;
  profile::MergeLoadResult Load = profile::loadAndMergeProfiles(Files, Opts);
  ASSERT_EQ(Load.Skipped.size(), 1u);
  EXPECT_EQ(Load.Skipped[0].Path, Files[Torn]);
  EXPECT_FALSE(Load.Skipped[0].Message.empty());
  EXPECT_EQ(Load.Loaded.size(), 7u);
  EXPECT_EQ(profile::profileToString(Load.Merged), Expected);

  // Strict mode turns the same input into a hard failure that names
  // the failing shard.
  Opts.Strict = true;
  profile::MergeLoadResult StrictLoad =
      profile::loadAndMergeProfiles(Files, Opts);
  EXPECT_TRUE(StrictLoad.StrictFailure);
  ASSERT_EQ(StrictLoad.Skipped.size(), 1u);
  EXPECT_EQ(StrictLoad.Skipped[0].Path, Files[Torn]);
}

TEST(MultiProcess, SingleProcessEqualsRunWorkload) {
  auto W = makeMser();
  transform::FieldMap Map(W->hotLayout());
  DriverConfig Cfg = testConfig();
  MultiProcessResult Multi = runProcesses(*W, Map, Cfg, 1);
  DriverConfig Same = Cfg;
  Same.Run.Sampling.Seed = Cfg.Run.Sampling.Seed + 7919;
  WorkloadRun Single = runWorkload(*W, Map, Same, true);
  EXPECT_EQ(Multi.Merged.TotalSamples, Single.Merged.TotalSamples);
  EXPECT_EQ(Multi.Merged.TotalLatency, Single.Merged.TotalLatency);
}
