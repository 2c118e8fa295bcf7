//===- tests/profile_test.cpp - Profile model / IO / merge -----*- C++ -*-===//

#include "profile/MergeTree.h"
#include "profile/Profile.h"
#include "profile/ProfileIO.h"
#include "support/Random.h"

#include "V3Blob.h"

#include <gtest/gtest.h>

using namespace structslim;
using namespace structslim::profile;

namespace {

/// A profile with one object and one stream, parameterized enough to
/// exercise merge rules.
Profile makeSimple(uint32_t Thread, uint64_t Latency, uint64_t Gcd,
                   uint64_t Rep, uint64_t ObjectStart = 0x1000) {
  Profile P;
  P.ThreadId = Thread;
  P.SamplePeriod = 10000;
  P.TotalSamples = 5;
  P.TotalLatency = Latency;
  uint32_t Obj = P.getOrCreateObject("arr");
  P.Objects[Obj].Name = "arr";
  P.Objects[Obj].Start = ObjectStart;
  P.Objects[Obj].Size = 640;
  P.Objects[Obj].SampleCount = 5;
  P.Objects[Obj].LatencySum = Latency;
  StreamRecord &S = P.getOrCreateStream(0x400100, Obj);
  S.LoopId = 2;
  S.Line = 10;
  S.AccessSize = 8;
  S.SampleCount = 5;
  S.LatencySum = Latency;
  S.UniqueAddrCount = 4;
  S.StrideGcd = Gcd;
  S.RepAddr = Rep;
  S.LastAddr = Rep;
  S.ObjectStart = ObjectStart;
  S.LevelSamples = {3, 1, 1, 0};
  return P;
}

} // namespace

TEST(Profile, GetOrCreateObjectIsIdempotent) {
  Profile P;
  uint32_t A = P.getOrCreateObject("x");
  uint32_t B = P.getOrCreateObject("y");
  EXPECT_NE(A, B);
  EXPECT_EQ(P.getOrCreateObject("x"), A);
  EXPECT_EQ(P.Objects.size(), 2u);
}

TEST(Profile, GetOrCreateStreamKeyedByIpAndObject) {
  Profile P;
  uint32_t O1 = P.getOrCreateObject("a");
  uint32_t O2 = P.getOrCreateObject("b");
  StreamRecord &S1 = P.getOrCreateStream(100, O1);
  S1.SampleCount = 1;
  StreamRecord &S2 = P.getOrCreateStream(100, O2);
  S2.SampleCount = 2;
  StreamRecord &S3 = P.getOrCreateStream(200, O1);
  S3.SampleCount = 3;
  EXPECT_EQ(P.Streams.size(), 3u);
  EXPECT_EQ(P.getOrCreateStream(100, O1).SampleCount, 1u);
  EXPECT_EQ(P.getOrCreateStream(100, O2).SampleCount, 2u);
}

TEST(Profile, FindObject) {
  Profile P;
  P.getOrCreateObject("k");
  EXPECT_NE(P.findObject("k"), nullptr);
  EXPECT_EQ(P.findObject("missing"), nullptr);
}

TEST(ProfileMerge, MetadataAdds) {
  Profile A = makeSimple(0, 100, 64, 0x1040);
  Profile B = makeSimple(1, 50, 64, 0x1080);
  A.merge(B);
  EXPECT_EQ(A.TotalSamples, 10u);
  EXPECT_EQ(A.TotalLatency, 150u);
  ASSERT_EQ(A.Objects.size(), 1u);
  EXPECT_EQ(A.Objects[0].SampleCount, 10u);
  EXPECT_EQ(A.Objects[0].LatencySum, 150u);
}

TEST(ProfileMerge, StreamsCombineByGcd) {
  // Thread A saw stride gcd 128, thread B 192; gcd(128,192) = 64, and
  // the representative-address difference sharpens it further.
  Profile A = makeSimple(0, 100, 128, 0x1000);
  Profile B = makeSimple(1, 50, 192, 0x1040);
  A.merge(B);
  ASSERT_EQ(A.Streams.size(), 1u);
  // gcd(128, 192) = 64; |0x1000 - 0x1040| = 64; stays 64.
  EXPECT_EQ(A.Streams[0].StrideGcd, 64u);
  EXPECT_EQ(A.Streams[0].SampleCount, 10u);
  EXPECT_EQ(A.Streams[0].LevelSamples[0], 6u);
}

TEST(ProfileMerge, RepDiffSharpensGcd) {
  // Both profiles report gcd 0 (one unique address each), but their
  // representative addresses differ by 64: the merged stream learns
  // stride 64, as Sec. 4.4's cross-profile aggregation intends.
  Profile A = makeSimple(0, 10, 0, 0x1000);
  Profile B = makeSimple(1, 10, 0, 0x1040);
  A.merge(B);
  EXPECT_EQ(A.Streams[0].StrideGcd, 64u);
}

TEST(ProfileMerge, DifferentInstancesDoNotMixAddresses) {
  // Same allocation site but different object instances (different
  // start addresses): rep-address differences are meaningless and must
  // not contaminate the gcd.
  Profile A = makeSimple(0, 10, 128, 0x1010, /*ObjectStart=*/0x1000);
  Profile B = makeSimple(1, 10, 128, 0x2013, /*ObjectStart=*/0x2000);
  A.merge(B);
  EXPECT_EQ(A.Streams[0].StrideGcd, 128u);
}

TEST(ProfileMerge, DisjointStreamsConcatenate) {
  Profile A = makeSimple(0, 100, 64, 0x1040);
  Profile B;
  B.TotalSamples = 1;
  B.TotalLatency = 4;
  uint32_t Obj = B.getOrCreateObject("other");
  B.Objects[Obj].Name = "other";
  StreamRecord &S = B.getOrCreateStream(0x400200, Obj);
  S.SampleCount = 1;
  S.LatencySum = 4;
  A.merge(B);
  EXPECT_EQ(A.Objects.size(), 2u);
  EXPECT_EQ(A.Streams.size(), 2u);
  // Object indices were remapped into A's table.
  const StreamRecord &Merged = A.Streams[1];
  EXPECT_EQ(A.Objects[Merged.ObjectIndex].Key, "other");
}

TEST(ProfileMerge, EmptyIntoEmpty) {
  Profile A, B;
  A.merge(B);
  EXPECT_EQ(A.TotalSamples, 0u);
  EXPECT_TRUE(A.Objects.empty());
}

// --- Serialization -----------------------------------------------------------

TEST(ProfileIO, RoundTrip) {
  Profile P = makeSimple(3, 123, 64, 0x1040);
  P.Instructions = 1000;
  P.MemoryAccesses = 500;
  P.Cycles = 9999;
  P.UnattributedLatency = 7;
  std::string Text = profileToString(P);
  std::string Error;
  auto Back = profileFromString(Text, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->ThreadId, 3u);
  EXPECT_EQ(Back->SamplePeriod, 10000u);
  EXPECT_EQ(Back->TotalLatency, 123u);
  EXPECT_EQ(Back->UnattributedLatency, 7u);
  EXPECT_EQ(Back->Cycles, 9999u);
  ASSERT_EQ(Back->Objects.size(), 1u);
  EXPECT_EQ(Back->Objects[0].Key, "arr");
  ASSERT_EQ(Back->Streams.size(), 1u);
  EXPECT_EQ(Back->Streams[0].StrideGcd, 64u);
  EXPECT_EQ(Back->Streams[0].LevelSamples[0], 3u);
  // Indices re-established: the stream can be found again.
  EXPECT_EQ(Back->getOrCreateStream(0x400100, 0).SampleCount, 5u);
}

TEST(ProfileIO, RoundTripThenMergeEqualsDirectMerge) {
  Profile A = makeSimple(0, 100, 128, 0x1000);
  Profile B = makeSimple(1, 50, 192, 0x1040);
  Profile Direct = makeSimple(0, 100, 128, 0x1000);
  Direct.merge(B);

  auto A2 = profileFromString(profileToString(A));
  auto B2 = profileFromString(profileToString(B));
  ASSERT_TRUE(A2 && B2);
  A2->merge(*B2);
  EXPECT_EQ(profileToString(*A2), profileToString(Direct));
}

TEST(ProfileIO, RejectsMissingMagic) {
  std::string Error;
  EXPECT_FALSE(profileFromString("garbage\n", &Error).has_value());
  EXPECT_NE(Error.find("magic"), std::string::npos);
}

// The checks below sit behind the CRCs: a blob is edited and then
// re-sealed (V3Blob) so the decoder gets past the integrity gate and
// the semantic check itself must reject it.

TEST(ProfileIO, RejectsDanglingStream) {
  V3Blob Blob = V3Blob::split(profileToString(makeSimple(0, 10, 8, 0x1000)));
  Blob.Payloads[V3Blob::Object].clear(); // The stream's object is gone.
  Blob.Records[V3Blob::Object] = 0;
  std::string Error;
  EXPECT_FALSE(profileFromString(Blob.seal(), &Error).has_value());
  EXPECT_NE(Error.find("unknown object"), std::string::npos);
}

TEST(ProfileIO, RejectsMissingMeta) {
  V3Blob Blob = V3Blob::split(profileToString(makeSimple(0, 10, 8, 0x1000)));
  Blob.Payloads[V3Blob::Meta].clear();
  Blob.Records[V3Blob::Meta] = 0;
  std::string Error;
  EXPECT_FALSE(profileFromString(Blob.seal(), &Error).has_value());
  EXPECT_NE(Error.find("no meta"), std::string::npos);
}

TEST(ProfileIO, RejectsUnknownString) {
  V3Blob Blob = V3Blob::split(profileToString(makeSimple(0, 10, 8, 0x1000)));
  Blob.Payloads[V3Blob::Strtab].clear(); // The object's key and name.
  Blob.Records[V3Blob::Strtab] = 0;
  std::string Error;
  EXPECT_FALSE(profileFromString(Blob.seal(), &Error).has_value());
  EXPECT_NE(Error.find("unknown string"), std::string::npos);
}

TEST(ProfileIO, RejectsLegacyTextVersions) {
  // The retired text formats are refused by version, not misparsed.
  std::string V1 = "structslim-profile v1\nmeta 0 1 0 0 0 0 0 0\n";
  std::string V2 = "structslim-profile v2\nmeta 0 1 0 0 0 0 0 0\nend v2\n";
  std::string Error;
  EXPECT_FALSE(profileFromString(V1, &Error).has_value());
  EXPECT_NE(Error.find("unsupported profile format version '1'"),
            std::string::npos);
  EXPECT_FALSE(profileFromString(V2, &Error).has_value());
  EXPECT_NE(Error.find("unsupported profile format version '2'"),
            std::string::npos);
}

// --- Reduction tree -----------------------------------------------------------

TEST(MergeTree, EmptyInput) {
  Profile P = mergeProfiles({});
  EXPECT_EQ(P.TotalSamples, 0u);
}

TEST(MergeTree, SingleProfilePassesThrough) {
  std::vector<Profile> In;
  In.push_back(makeSimple(0, 100, 64, 0x1040));
  Profile Out = mergeProfiles(std::move(In));
  EXPECT_EQ(Out.TotalLatency, 100u);
}

TEST(MergeTree, TotalsIndependentOfCount) {
  for (size_t Count : {2u, 3u, 4u, 5u, 8u, 13u}) {
    std::vector<Profile> In;
    uint64_t WantLatency = 0;
    for (size_t I = 0; I != Count; ++I) {
      In.push_back(makeSimple(static_cast<uint32_t>(I), 10 * (I + 1), 64,
                              0x1000 + 64 * I));
      WantLatency += 10 * (I + 1);
    }
    Profile Out = mergeProfiles(std::move(In));
    EXPECT_EQ(Out.TotalLatency, WantLatency) << Count << " profiles";
    EXPECT_EQ(Out.TotalSamples, 5 * Count);
    ASSERT_EQ(Out.Streams.size(), 1u);
    EXPECT_EQ(Out.Streams[0].StrideGcd, 64u);
  }
}
