//===- tests/cct_test.cpp - Calling-context-tree tests ---------*- C++ -*-===//

#include "analysis/CodeMap.h"
#include "core/Report.h"
#include "ir/ProgramBuilder.h"
#include "profile/Cct.h"
#include "profile/MergeTree.h"
#include "profile/ProfileIO.h"
#include "runtime/ThreadedRuntime.h"
#include "support/VarInt.h"

#include "V3Blob.h"

#include <gtest/gtest.h>

using namespace structslim;
using namespace structslim::profile;
using structslim::ir::Reg;

TEST(Cct, InternDeduplicatesPaths) {
  CallContextTree T;
  uint32_t A = T.intern({10, 20, 30});
  uint32_t B = T.intern({10, 20, 30});
  uint32_t C = T.intern({10, 20, 31});
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  // Root + 10 + 20 + 30 + 31.
  EXPECT_EQ(T.size(), 5u);
}

TEST(Cct, PathRoundTrip) {
  CallContextTree T;
  std::vector<uint64_t> Path = {0x400001, 0x400010, 0x400123};
  uint32_t Leaf = T.intern(Path);
  EXPECT_EQ(T.path(Leaf), Path);
  EXPECT_TRUE(T.path(CallContextTree::Root).empty());
}

TEST(Cct, EmptyPathIsRoot) {
  CallContextTree T;
  EXPECT_EQ(T.intern({}), CallContextTree::Root);
}

TEST(Cct, AttributeAndSubtreeLatency) {
  CallContextTree T;
  uint32_t AB = T.intern({1, 2});
  uint32_t AC = T.intern({1, 3});
  uint32_t A = T.intern({1});
  T.attribute(AB, 100);
  T.attribute(AC, 50);
  T.attribute(A, 7);
  EXPECT_EQ(T.node(AB).LatencySum, 100u);
  EXPECT_EQ(T.node(AB).SampleCount, 1u);
  EXPECT_EQ(T.subtreeLatency(A), 157u);
  EXPECT_EQ(T.subtreeLatency(AB), 100u);
  EXPECT_EQ(T.subtreeLatency(CallContextTree::Root), 157u);
}

TEST(Cct, HottestOrdersByExclusiveLatency) {
  CallContextTree T;
  uint32_t Hot = T.intern({1, 2});
  uint32_t Warm = T.intern({1, 3});
  T.intern({1, 4}); // Never attributed: excluded.
  T.attribute(Hot, 500);
  T.attribute(Warm, 100);
  auto Top = T.hottest(10);
  ASSERT_EQ(Top.size(), 2u);
  EXPECT_EQ(Top[0], Hot);
  EXPECT_EQ(Top[1], Warm);
  EXPECT_EQ(T.hottest(1).size(), 1u);
}

TEST(Cct, MergeAlignsPathsByIp) {
  CallContextTree A, B;
  A.attribute(A.intern({1, 2}), 10);
  B.attribute(B.intern({1, 2}), 5);
  B.attribute(B.intern({9}), 7);
  A.merge(B);
  EXPECT_EQ(A.node(A.intern({1, 2})).LatencySum, 15u);
  EXPECT_EQ(A.node(A.intern({1, 2})).SampleCount, 2u);
  EXPECT_EQ(A.node(A.intern({9})).LatencySum, 7u);
  EXPECT_EQ(A.subtreeLatency(CallContextTree::Root), 22u);
}

TEST(Cct, SerializationRoundTripViaProfile) {
  Profile P;
  P.Contexts.attribute(P.Contexts.intern({11, 22}), 40);
  P.Contexts.attribute(P.Contexts.intern({11, 33}), 4);
  auto Back = profileFromString(profileToString(P));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Contexts.size(), P.Contexts.size());
  uint32_t Leaf = Back->Contexts.intern({11, 22});
  EXPECT_EQ(Back->Contexts.node(Leaf).LatencySum, 40u);
  EXPECT_EQ(Back->Contexts.subtreeLatency(CallContextTree::Root), 44u);
}

TEST(Cct, BadParentRejectedOnLoad) {
  // One node whose parent id (99) names no earlier node, re-sealed so
  // the section CRC passes and the parent check itself must reject it.
  V3Blob Blob = V3Blob::split(profileToString(Profile()));
  std::string &Cct = Blob.Payloads[V3Blob::Cct];
  support::appendSVarint(Cct, 99); // Parent delta from 0.
  support::appendSVarint(Cct, 5);  // IP delta from 0.
  support::appendVarint(Cct, 1);   // Latency.
  support::appendVarint(Cct, 1);   // Samples.
  Blob.Records[V3Blob::Cct] = 1;
  std::string Error;
  EXPECT_FALSE(profileFromString(Blob.seal(), &Error).has_value());
  EXPECT_NE(Error.find("unknown parent"), std::string::npos);
}

// End-to-end: samples taken inside a callee carry the caller's call
// site in their context.
TEST(CctIntegration, NestedCallsProduceNestedContexts) {
  ir::Program P;
  ir::Function &Worker = P.addFunction("hotwork", 1);
  {
    ir::ProgramBuilder B(P, Worker);
    Reg Base = 0;
    B.setLine(100);
    B.forLoopI(0, 50000, 1, [&](Reg I) {
      B.setLine(101);
      Reg Idx = B.andI(I, 4095);
      B.accumulate(Base, B.load(Base, Idx, 8, 0, 8));
      B.setLine(100);
    });
    B.ret();
  }
  ir::Function &Main = P.addFunction("main", 0);
  P.setEntry(Main.Id);
  uint64_t CallIp;
  {
    ir::ProgramBuilder B(P, Main);
    B.setLine(10);
    Reg Bytes = B.constI(64 * 4096);
    Reg Arr = B.alloc(Bytes, "arr");
    B.call(Worker, {Arr});
    CallIp = Main.Blocks[0]->Instrs.back().Ip;
    B.ret();
  }

  runtime::RunConfig Cfg;
  Cfg.Sampling.Period = 500;
  runtime::ThreadedRuntime RT(Cfg);
  analysis::CodeMap Map(P);
  RT.runPhase(P, &Map, {runtime::ThreadSpec{Main.Id, {}}});
  runtime::RunResult R = RT.finish();
  ASSERT_EQ(R.Profiles.size(), 1u);
  const CallContextTree &Cct = R.Profiles[0].Contexts;
  ASSERT_GT(Cct.size(), 1u);

  auto Top = Cct.hottest(1);
  ASSERT_EQ(Top.size(), 1u);
  std::vector<uint64_t> Path = Cct.path(Top[0]);
  // The hottest context is main's call site -> the load inside hotwork.
  ASSERT_EQ(Path.size(), 2u);
  EXPECT_EQ(Path[0], CallIp);
  const analysis::CodeSite &Leaf = Map.lookup(Path[1]);
  ASSERT_TRUE(Leaf.Valid);
  EXPECT_EQ(Map.getFunctionName(Leaf.FuncId), "hotwork");
  EXPECT_EQ(Leaf.Line, 101u);

  // The rendered report resolves names.
  std::string Report = core::renderHotContexts(R.Profiles[0], &Map, 5);
  EXPECT_NE(Report.find("main:L10 > hotwork:L101"), std::string::npos);
}

TEST(CctIntegration, MergePreservesTotals) {
  // Reduction-tree merging keeps CCT latency totals.
  std::vector<Profile> Profiles;
  for (uint32_t T = 0; T != 4; ++T) {
    Profile P;
    P.Contexts.attribute(P.Contexts.intern({1, 2}), 10 * (T + 1));
    Profiles.push_back(std::move(P));
  }
  Profile Merged = mergeProfiles(std::move(Profiles));
  EXPECT_EQ(Merged.Contexts.subtreeLatency(CallContextTree::Root), 100u);
}
