//===- tests/analyzer_test.cpp - Offline analyzer tests --------*- C++ -*-===//
//
// Hand-built profiles with exactly known contents verify each analysis
// of paper Sec. 4: the hot-data filter (Eq. 1), structure-size
// inference (Eq. 5), field-offset identification (Eq. 6) and the
// latency-based affinity (Eq. 7) with its clustering.
//
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "ir/Program.h"
#include "ir/ProgramBuilder.h"

#include <gtest/gtest.h>

using namespace structslim;
using namespace structslim::core;
using structslim::profile::Profile;
using structslim::profile::StreamRecord;

namespace {

/// An empty program: the CodeMap is only consulted for loop names; the
/// hand-built profiles use loop id -1 region names or synthetic ids.
class AnalyzerTest : public ::testing::Test {
protected:
  AnalyzerTest() {
    ir::Function &F = P.addFunction("main", 0);
    ir::ProgramBuilder B(P, F);
    B.setLine(100);
    B.forLoopI(0, 2, 1, [&](ir::Reg) { B.setLine(101); B.work(0); });
    B.setLine(200);
    B.forLoopI(0, 2, 1, [&](ir::Reg) { B.setLine(201); B.work(0); });
    B.ret();
    Map = std::make_unique<analysis::CodeMap>(P);
  }

  /// Adds a stream to \p Prof.
  StreamRecord &addStream(Profile &Prof, const std::string &Object,
                          uint64_t Ip, int32_t LoopId, uint64_t Latency,
                          uint64_t Stride, uint64_t RepAddr,
                          uint64_t UniqueAddrs = 16, uint8_t AccessSize = 8,
                          uint64_t ObjectStart = 0x10000) {
    uint32_t Idx = Prof.getOrCreateObject(Object);
    profile::ObjectAgg &Agg = Prof.Objects[Idx];
    if (Agg.Name.empty()) {
      Agg.Name = Object;
      Agg.Start = ObjectStart;
      Agg.Size = 1 << 20;
    }
    Agg.SampleCount += 1;
    Agg.LatencySum += Latency;
    Prof.TotalSamples += 1;
    Prof.TotalLatency += Latency;
    StreamRecord &S = Prof.getOrCreateStream(Ip, Idx);
    S.LoopId = LoopId;
    S.Line = 0;
    S.AccessSize = AccessSize;
    S.SampleCount += 1;
    S.LatencySum += Latency;
    S.UniqueAddrCount = UniqueAddrs;
    S.StrideGcd = Stride;
    S.RepAddr = RepAddr;
    S.ObjectStart = ObjectStart;
    return S;
  }

  ir::Program P;
  std::unique_ptr<analysis::CodeMap> Map;
};

} // namespace

TEST_F(AnalyzerTest, HotDataRankingAndShares) {
  Profile Prof;
  addStream(Prof, "hot", 1, 0, 800, 64, 0x10000);
  addStream(Prof, "warm", 2, 0, 150, 64, 0x10000);
  addStream(Prof, "cold", 3, 0, 50, 64, 0x10000);
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  ASSERT_EQ(R.Objects.size(), 3u);
  EXPECT_EQ(R.Objects[0].Name, "hot");
  EXPECT_NEAR(R.Objects[0].HotShare, 0.8, 1e-9);
  EXPECT_EQ(R.Objects[1].Name, "warm");
  EXPECT_NEAR(R.Objects[1].HotShare, 0.15, 1e-9);
  EXPECT_EQ(R.Objects[2].Name, "cold");
}

TEST_F(AnalyzerTest, TopObjectsCapApplies) {
  Profile Prof;
  for (int I = 0; I != 6; ++I)
    addStream(Prof, "obj" + std::to_string(I), 10 + I, 0,
              1000 - 100 * I, 64, 0x10000);
  AnalysisConfig Cfg;
  Cfg.TopObjects = 3; // The paper's "top three suffice".
  StructSlimAnalyzer Analyzer(*Map, Cfg);
  AnalysisResult R = Analyzer.analyze(Prof);
  EXPECT_EQ(R.Objects.size(), 3u);
  EXPECT_EQ(R.Objects[0].Name, "obj0");
}

TEST_F(AnalyzerTest, MinShareFilters) {
  Profile Prof;
  addStream(Prof, "big", 1, 0, 9950, 64, 0x10000);
  addStream(Prof, "tiny", 2, 0, 50, 64, 0x10000); // 0.5% < 1%.
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  ASSERT_EQ(R.Objects.size(), 1u);
  EXPECT_EQ(R.Objects[0].Name, "big");
}

TEST_F(AnalyzerTest, StructSizeFromGcdOfStreams) {
  // Streams with strides 128 and 192: struct size gcd = 64 (Eq. 5).
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 100, 128, 0x10000);
  addStream(Prof, "arr", 2, 0, 100, 192, 0x10008);
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  ASSERT_EQ(R.Objects.size(), 1u);
  EXPECT_EQ(R.Objects[0].StructSize, 64u);
}

TEST_F(AnalyzerTest, UnitStrideStreamsExcludedFromSize) {
  // A unit-stride stream (stride == access size) must not drag the
  // inferred struct size down to the element size.
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 100, 64, 0x10000);
  addStream(Prof, "arr", 2, 0, 100, 8, 0x10008, 8, 8); // Unit stride.
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  EXPECT_EQ(R.Objects[0].StructSize, 64u);
}

TEST_F(AnalyzerTest, LowSampleStreamsExcludedFromSize) {
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 100, 64, 0x10000, /*UniqueAddrs=*/8);
  // This stream's gcd (96) is unreliable: only 1 unique address.
  addStream(Prof, "arr", 2, 0, 100, 96, 0x10008, /*UniqueAddrs=*/1);
  AnalysisConfig Cfg;
  Cfg.MinUniqueAddrs = 2;
  StructSlimAnalyzer Analyzer(*Map, Cfg);
  AnalysisResult R = Analyzer.analyze(Prof);
  EXPECT_EQ(R.Objects[0].StructSize, 64u);
}

TEST_F(AnalyzerTest, NoStridedStreamMeansNoStructure) {
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 100, 8, 0x10000); // Unit stride only.
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  EXPECT_EQ(R.Objects[0].StructSize, 0u);
  // Everything collapses to one logical field at offset 0.
  ASSERT_EQ(R.Objects[0].Fields.size(), 1u);
  EXPECT_EQ(R.Objects[0].Fields[0].Offset, 0u);
  EXPECT_FALSE(R.Objects[0].splitRecommended());
}

TEST_F(AnalyzerTest, FieldOffsetsModuloSize) {
  // Eq. 6: offset = (rep - start) mod size. Element 3's field at +8:
  // rep = start + 3*64 + 8.
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 100, 64, 0x10000 + 3 * 64 + 8);
  addStream(Prof, "arr", 2, 0, 100, 64, 0x10000 + 7 * 64 + 24);
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  ASSERT_EQ(R.Objects[0].Fields.size(), 2u);
  EXPECT_EQ(R.Objects[0].Fields[0].Offset, 8u);
  EXPECT_EQ(R.Objects[0].Fields[1].Offset, 24u);
}

TEST_F(AnalyzerTest, FieldNamesFromRegisteredLayout) {
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 100, 16, 0x10000);
  addStream(Prof, "arr", 2, 0, 100, 16, 0x10008);
  ir::StructLayout L("arr");
  L.addField("head", 8);
  L.addField("tail", 8);
  L.finalize();
  StructSlimAnalyzer Analyzer(*Map);
  Analyzer.registerLayout("arr", L);
  AnalysisResult R = Analyzer.analyze(Prof);
  EXPECT_EQ(R.Objects[0].Fields[0].Name, "head");
  EXPECT_EQ(R.Objects[0].Fields[1].Name, "tail");
}

TEST_F(AnalyzerTest, FieldNamesFallBackToOffsets) {
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 100, 16, 0x10008);
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  EXPECT_EQ(R.Objects[0].Fields[0].Name, "off8");
}

TEST_F(AnalyzerTest, AffinityEquation7Exact) {
  // Loop 0: fields A(0) and B(8), latencies 30 and 10.
  // Loop 1: field A alone, latency 60.
  // A_ab = (30 + 10) / ((30 + 60) + 10) = 0.4.
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 30, 64, 0x10000);
  addStream(Prof, "arr", 2, 0, 10, 64, 0x10008);
  addStream(Prof, "arr", 3, 1, 60, 64, 0x10000 + 128);
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  const ObjectAnalysis &O = R.Objects[0];
  ASSERT_EQ(O.Fields.size(), 2u);
  EXPECT_NEAR(O.Affinity[0][1], 0.4, 1e-9);
  EXPECT_NEAR(O.Affinity[1][0], 0.4, 1e-9);
  EXPECT_NEAR(O.Affinity[0][0], 1.0, 1e-9);
}

TEST_F(AnalyzerTest, AffinityOneWhenAlwaysTogether) {
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 30, 64, 0x10000);
  addStream(Prof, "arr", 2, 0, 10, 64, 0x10008);
  addStream(Prof, "arr", 3, 1, 20, 64, 0x10000 + 128);
  addStream(Prof, "arr", 4, 1, 5, 64, 0x10008 + 128);
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  EXPECT_NEAR(R.Objects[0].Affinity[0][1], 1.0, 1e-9);
}

TEST_F(AnalyzerTest, AffinityZeroWhenDisjoint) {
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 30, 64, 0x10000);
  addStream(Prof, "arr", 2, 1, 10, 64, 0x10008);
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  EXPECT_EQ(R.Objects[0].Affinity[0][1], 0.0);
  // Two singleton clusters -> split recommended.
  EXPECT_EQ(R.Objects[0].Clusters.size(), 2u);
  EXPECT_TRUE(R.Objects[0].splitRecommended());
}

TEST_F(AnalyzerTest, ClusteringRespectsThreshold) {
  // A-B affinity 0.4: below the default 0.5 threshold -> separate;
  // with threshold 0.3 -> together.
  auto BuildProfile = [&] {
    Profile Prof;
    addStream(Prof, "arr", 1, 0, 30, 64, 0x10000);
    addStream(Prof, "arr", 2, 0, 10, 64, 0x10008);
    addStream(Prof, "arr", 3, 1, 60, 64, 0x10000 + 128);
    return Prof;
  };
  {
    StructSlimAnalyzer Analyzer(*Map);
    AnalysisResult R = Analyzer.analyze(BuildProfile());
    EXPECT_EQ(R.Objects[0].Clusters.size(), 2u);
  }
  {
    AnalysisConfig Cfg;
    Cfg.AffinityThreshold = 0.3;
    StructSlimAnalyzer Analyzer(*Map, Cfg);
    AnalysisResult R = Analyzer.analyze(BuildProfile());
    EXPECT_EQ(R.Objects[0].Clusters.size(), 1u);
    EXPECT_FALSE(R.Objects[0].splitRecommended());
  }
}

TEST_F(AnalyzerTest, ClustersOrderedByHeat) {
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 10, 64, 0x10000);  // Cool field A.
  addStream(Prof, "arr", 2, 1, 500, 64, 0x10008); // Hot field B.
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  const ObjectAnalysis &O = R.Objects[0];
  ASSERT_EQ(O.Clusters.size(), 2u);
  // The hot field's cluster comes first.
  EXPECT_EQ(O.Fields[O.Clusters[0][0]].Offset, 8u);
}

TEST_F(AnalyzerTest, LoopsSortedByLatencyWithNames) {
  Profile Prof;
  // Use real loop ids from the CodeMap (two loops at lines 100-101 and
  // 200-201).
  ASSERT_EQ(Map->loops().size(), 2u);
  addStream(Prof, "arr", 1, 0, 10, 64, 0x10000);
  addStream(Prof, "arr", 2, 1, 90, 64, 0x10008);
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  const ObjectAnalysis &O = R.Objects[0];
  ASSERT_EQ(O.Loops.size(), 2u);
  EXPECT_GT(O.Loops[0].LatencySum, O.Loops[1].LatencySum);
  EXPECT_NEAR(O.Loops[0].LatencyShare, 0.9, 1e-9);
  EXPECT_EQ(O.Loops[0].LoopName, Map->getLoop(1).name());
  ASSERT_EQ(O.Loops[0].Offsets.size(), 1u);
  EXPECT_EQ(O.Loops[0].Offsets[0], 8u);
}

TEST_F(AnalyzerTest, SizeConfidenceFollowsEq4) {
  // A stream with 12 unique addresses: the Eq. 4 bound says > 99.9%.
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 100, 64, 0x10000, /*UniqueAddrs=*/12);
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  EXPECT_GT(R.Objects[0].SizeConfidence, 0.999);
  EXPECT_FALSE(R.Objects[0].LowConfidenceSize);

  // With only 2 unique addresses the confidence is weak (~0.54); a
  // config that admits such sparse streams gets the size flagged
  // low-confidence instead of silently exact.
  AnalysisConfig Sparse;
  Sparse.MinUniqueAddrs = 2;
  StructSlimAnalyzer SparseAnalyzer(*Map, Sparse);
  Profile SparseProf;
  addStream(SparseProf, "arr", 1, 0, 100, 64, 0x10000, /*UniqueAddrs=*/2);
  AnalysisResult R2 = SparseAnalyzer.analyze(SparseProf);
  EXPECT_EQ(R2.Objects[0].StructSize, 64u);
  EXPECT_LT(R2.Objects[0].SizeConfidence, 0.6);
  EXPECT_GT(R2.Objects[0].SizeConfidence, 0.0);
  EXPECT_TRUE(R2.Objects[0].LowConfidenceSize);
  EXPECT_EQ(R2.Stats.LowConfidenceSizes, 1u);

  // No strided stream: no size, no confidence, nothing to flag.
  Profile Unit;
  addStream(Unit, "arr", 1, 0, 100, 8, 0x10000);
  AnalysisResult R3 = Analyzer.analyze(Unit);
  EXPECT_EQ(R3.Objects[0].SizeConfidence, 0.0);
  EXPECT_FALSE(R3.Objects[0].LowConfidenceSize);
}

TEST_F(AnalyzerTest, DefaultMinUniqueAddrsMatchesPaperBar) {
  // The default config follows the paper's Eq. 4 working threshold: 10
  // unique addresses for > 99% stride accuracy. A 9-unique stream must
  // not contribute to size inference by default.
  AnalysisConfig Cfg;
  EXPECT_EQ(Cfg.MinUniqueAddrs, 10u);

  Profile Prof;
  addStream(Prof, "arr", 1, 0, 100, 96, 0x10000, /*UniqueAddrs=*/9);
  addStream(Prof, "arr", 2, 0, 100, 64, 0x10008, /*UniqueAddrs=*/10);
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  // Only the 10-unique stream participates: size 64, not gcd(96,64)=32.
  EXPECT_EQ(R.Objects[0].StructSize, 64u);
}

TEST_F(AnalyzerTest, HierarchicalClusteringBreaksChains) {
  // Chain: A-B affine via loop 0, B-C affine via loop 1, A-C never
  // together. Threshold clustering (the paper's) fuses all three;
  // average linkage keeps A and C apart.
  auto BuildProfile = [&] {
    Profile Prof;
    addStream(Prof, "arr", 1, 0, 50, 64, 0x10000);      // A in loop 0.
    addStream(Prof, "arr", 2, 0, 50, 64, 0x10008);      // B in loop 0.
    addStream(Prof, "arr", 3, 1, 50, 64, 0x10008 + 64); // B in loop 1.
    addStream(Prof, "arr", 4, 1, 50, 64, 0x10010);      // C in loop 1.
    return Prof;
  };
  {
    StructSlimAnalyzer Analyzer(*Map); // Threshold default.
    AnalysisResult R = Analyzer.analyze(BuildProfile());
    EXPECT_EQ(R.Objects[0].Clusters.size(), 1u);
  }
  {
    AnalysisConfig Cfg;
    Cfg.Clustering = ClusteringMethod::Hierarchical;
    StructSlimAnalyzer Analyzer(*Map, Cfg);
    AnalysisResult R = Analyzer.analyze(BuildProfile());
    // {A,B} (or {B,C}) merges first; the third field stays out because
    // its average affinity to the pair is diluted by the zero edge.
    EXPECT_EQ(R.Objects[0].Clusters.size(), 2u);
  }
}

TEST_F(AnalyzerTest, HierarchicalMatchesThresholdOnCleanStructure) {
  // Two perfectly-affine pairs, no cross edges: both methods agree.
  auto BuildProfile = [&] {
    Profile Prof;
    addStream(Prof, "arr", 1, 0, 50, 64, 0x10000);
    addStream(Prof, "arr", 2, 0, 50, 64, 0x10008);
    addStream(Prof, "arr", 3, 1, 70, 64, 0x10010);
    addStream(Prof, "arr", 4, 1, 70, 64, 0x10018);
    return Prof;
  };
  for (auto Method : {ClusteringMethod::Threshold,
                      ClusteringMethod::Hierarchical}) {
    AnalysisConfig Cfg;
    Cfg.Clustering = Method;
    StructSlimAnalyzer Analyzer(*Map, Cfg);
    AnalysisResult R = Analyzer.analyze(BuildProfile());
    ASSERT_EQ(R.Objects[0].Clusters.size(), 2u);
    EXPECT_EQ(R.Objects[0].Clusters[0].size(), 2u);
    EXPECT_EQ(R.Objects[0].Clusters[1].size(), 2u);
  }
}

TEST_F(AnalyzerTest, FieldLevelSamplesAggregate) {
  Profile Prof;
  StreamRecord &S1 = addStream(Prof, "arr", 1, 0, 100, 64, 0x10000);
  S1.LevelSamples = {5, 3, 2, 1};
  StreamRecord &S2 = addStream(Prof, "arr", 2, 1, 50, 64, 0x10000 + 128);
  S2.LevelSamples = {1, 0, 0, 4}; // Same field (offset 0), other loop.
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  ASSERT_EQ(R.Objects[0].Fields.size(), 1u);
  const FieldStat &F = R.Objects[0].Fields[0];
  EXPECT_EQ(F.LevelSamples[0], 6u);
  EXPECT_EQ(F.LevelSamples[1], 3u);
  EXPECT_EQ(F.LevelSamples[3], 5u);
}

TEST_F(AnalyzerTest, EmptyProfile) {
  Profile Prof;
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  EXPECT_TRUE(R.Objects.empty());
  EXPECT_EQ(R.TotalLatency, 0u);
}

TEST_F(AnalyzerTest, RepAddrBeforeObjectStartIsSkippedNotGarbage) {
  // Regression: a merged stream whose representative address precedes
  // its object base used to underflow the unsigned Eq. 6 modulo into a
  // garbage field offset. Such streams are skipped and counted.
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 100, 64, 0x10000);     // Valid, offset 0.
  addStream(Prof, "arr", 2, 0, 100, 64, 0x10008);     // Valid, offset 8.
  // Inconsistent: RepAddr 0x8000 < ObjectStart 0x10000.
  addStream(Prof, "arr", 3, 1, 50, 64, /*RepAddr=*/0x8000);
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  ASSERT_EQ(R.Objects.size(), 1u);
  const ObjectAnalysis &O = R.Objects[0];
  // Only the two valid offsets appear — no garbage field near 2^32.
  ASSERT_EQ(O.Fields.size(), 2u);
  EXPECT_EQ(O.Fields[0].Offset, 0u);
  EXPECT_EQ(O.Fields[1].Offset, 8u);
  // The skipped stream contributes to no loop either.
  ASSERT_EQ(O.Loops.size(), 1u);
  EXPECT_EQ(O.Loops[0].LoopId, 0);
  // It is counted, per object and in the aggregate stats.
  EXPECT_EQ(O.SkippedStreams, 1u);
  EXPECT_EQ(R.Stats.SkippedInconsistentStreams, 1u);
}

TEST_F(AnalyzerTest, StatsCountersPopulated) {
  Profile Prof;
  addStream(Prof, "hot", 1, 0, 800, 64, 0x10000);
  addStream(Prof, "hot", 2, 1, 150, 64, 0x10008);
  addStream(Prof, "tiny", 3, 0, 5, 64, 0x10000); // < 1% share: filtered.
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  ASSERT_EQ(R.Objects.size(), 1u);
  EXPECT_EQ(R.Stats.ObjectsConsidered, 2u);
  EXPECT_EQ(R.Stats.ObjectsAnalyzed, 1u);
  EXPECT_EQ(R.Stats.StreamsAnalyzed, 2u);
  EXPECT_EQ(R.Stats.SkippedInconsistentStreams, 0u);
  EXPECT_EQ(R.Stats.LowConfidenceSizes, 0u);
}

TEST_F(AnalyzerTest, SingleFieldObjectIsOneCluster) {
  // 1-field edge case: both clustering methods yield one singleton
  // cluster and no split recommendation.
  for (auto Method :
       {ClusteringMethod::Threshold, ClusteringMethod::Hierarchical}) {
    Profile Prof;
    addStream(Prof, "arr", 1, 0, 100, 64, 0x10000);
    AnalysisConfig Cfg;
    Cfg.Clustering = Method;
    StructSlimAnalyzer Analyzer(*Map, Cfg);
    AnalysisResult R = Analyzer.analyze(Prof);
    ASSERT_EQ(R.Objects[0].Fields.size(), 1u);
    ASSERT_EQ(R.Objects[0].Clusters.size(), 1u);
    EXPECT_EQ(R.Objects[0].Clusters[0],
              (std::vector<uint32_t>{0}));
    EXPECT_FALSE(R.Objects[0].splitRecommended());
  }
}

TEST_F(AnalyzerTest, ZeroFieldObjectHasNoClusters) {
  // 0-field edge case: an object can carry latency with every stream
  // skipped as inconsistent — fields, affinity and clusters all stay
  // empty and no split is recommended.
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 100, 64, /*RepAddr=*/0x8000); // Underflow.
  for (auto Method :
       {ClusteringMethod::Threshold, ClusteringMethod::Hierarchical}) {
    AnalysisConfig Cfg;
    Cfg.Clustering = Method;
    StructSlimAnalyzer Analyzer(*Map, Cfg);
    AnalysisResult R = Analyzer.analyze(Prof);
    ASSERT_EQ(R.Objects.size(), 1u);
    EXPECT_TRUE(R.Objects[0].Fields.empty());
    EXPECT_TRUE(R.Objects[0].Affinity.empty());
    EXPECT_TRUE(R.Objects[0].Clusters.empty());
    EXPECT_FALSE(R.Objects[0].splitRecommended());
    EXPECT_EQ(R.Objects[0].SkippedStreams, 1u);
  }
}

TEST_F(AnalyzerTest, AllZeroAffinitySplitsEveryField) {
  // Three fields, each alone in its own loop: the affinity matrix is
  // the identity, and both methods emit three singleton clusters.
  for (auto Method :
       {ClusteringMethod::Threshold, ClusteringMethod::Hierarchical}) {
    Profile Prof;
    addStream(Prof, "arr", 1, 0, 100, 64, 0x10000);
    addStream(Prof, "arr", 2, 1, 90, 64, 0x10008);
    addStream(Prof, "arr", 3, 7, 80, 64, 0x10010);
    AnalysisConfig Cfg;
    Cfg.Clustering = Method;
    StructSlimAnalyzer Analyzer(*Map, Cfg);
    AnalysisResult R = Analyzer.analyze(Prof);
    const ObjectAnalysis &O = R.Objects[0];
    ASSERT_EQ(O.Fields.size(), 3u);
    for (size_t I = 0; I != 3; ++I)
      for (size_t J = 0; J != 3; ++J)
        EXPECT_EQ(O.Affinity[I][J], I == J ? 1.0 : 0.0);
    EXPECT_EQ(O.Clusters.size(), 3u);
    EXPECT_TRUE(O.splitRecommended());
  }
}

// --- Sparse-stream confidence accounting (Eq. 4 discount) ------------

TEST_F(AnalyzerTest, SparseStridedStreamDiscountsSizeConfidence) {
  // Baseline: one trustworthy strided stream, nothing sparse.
  Profile Base;
  addStream(Base, "arr", 1, 0, 100, 128, 0x10000, /*UniqueAddrs=*/16);
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult RBase = Analyzer.analyze(Base);
  ASSERT_EQ(RBase.Objects.size(), 1u);
  double BaseConf = RBase.Objects[0].SizeConfidence;
  ASSERT_GT(BaseConf, 0.99);

  // Same stream plus a sparse strided stream (4 < MinUniqueAddrs):
  // excluded from the Eq. 5 GCD, but its unheard stride evidence must
  // discount the object's confidence multiplicatively — the old
  // behavior (confidence as if the stream never existed) over-trusted
  // sparse objects.
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 100, 128, 0x10000, /*UniqueAddrs=*/16);
  addStream(Prof, "arr", 2, 0, 100, 192, 0x10008, /*UniqueAddrs=*/4);
  AnalysisResult R = Analyzer.analyze(Prof);
  ASSERT_EQ(R.Objects.size(), 1u);
  const ObjectAnalysis &O = R.Objects[0];
  EXPECT_EQ(O.StructSize, 128u); // Sparse stream stays out of the GCD.
  EXPECT_EQ(O.SparseStreams, 1u);
  EXPECT_LT(O.SizeConfidence, BaseConf);
  EXPECT_GT(O.SizeConfidence, 0.0);
  EXPECT_TRUE(O.LowConfidenceSize);
  EXPECT_EQ(R.Stats.SparseStreams, 1u);
}

TEST_F(AnalyzerTest, SparseUnitStrideStreamDoesNotDiscount) {
  // A sparse stream with no stride evidence (unit stride) could never
  // have contradicted the inferred size; it must not cost confidence.
  Profile Prof;
  addStream(Prof, "arr", 1, 0, 100, 128, 0x10000, /*UniqueAddrs=*/16);
  addStream(Prof, "arr", 2, 0, 100, 8, 0x10008, /*UniqueAddrs=*/4,
            /*AccessSize=*/8);
  StructSlimAnalyzer Analyzer(*Map);
  AnalysisResult R = Analyzer.analyze(Prof);
  ASSERT_EQ(R.Objects.size(), 1u);
  EXPECT_EQ(R.Objects[0].SparseStreams, 0u);
  EXPECT_GT(R.Objects[0].SizeConfidence, 0.99);
  EXPECT_FALSE(R.Objects[0].LowConfidenceSize);
}

