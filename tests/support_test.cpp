//===- tests/support_test.cpp - support library tests ----------*- C++ -*-===//

#include "support/DotWriter.h"
#include "support/FlatHash.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/MathUtil.h"
#include "support/Random.h"
#include "support/ReadFile.h"
#include "support/Stats.h"
#include "support/VarInt.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>

using namespace structslim;

// --- Format -------------------------------------------------------------

TEST(Format, Double) {
  EXPECT_EQ(formatDouble(1.2345, 2), "1.23");
  EXPECT_EQ(formatDouble(1.0, 0), "1");
  EXPECT_EQ(formatDouble(-0.5, 1), "-0.5");
}

TEST(Format, Percent) {
  EXPECT_EQ(formatPercent(0.733, 1), "73.3%");
  EXPECT_EQ(formatPercent(0.0), "0.0%");
  EXPECT_EQ(formatPercent(1.0), "100.0%");
}

TEST(Format, Times) { EXPECT_EQ(formatTimes(1.37), "1.37x"); }

TEST(Format, Hex) {
  EXPECT_EQ(formatHex(0), "0x0");
  EXPECT_EQ(formatHex(0x400000), "0x400000");
  EXPECT_EQ(formatHex(0xdeadbeef), "0xdeadbeef");
}

TEST(Format, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

// --- MathUtil ------------------------------------------------------------

TEST(MathUtil, Gcd) {
  EXPECT_EQ(gcd64(0, 0), 0u);
  EXPECT_EQ(gcd64(0, 7), 7u);
  EXPECT_EQ(gcd64(48, 32), 16u);
  EXPECT_EQ(gcd64(56, 63), 7u);
}

TEST(MathUtil, Primes) {
  EXPECT_TRUE(primesUpTo(1).empty());
  EXPECT_EQ(primesUpTo(2), (std::vector<uint64_t>{2}));
  EXPECT_EQ(primesUpTo(20),
            (std::vector<uint64_t>{2, 3, 5, 7, 11, 13, 17, 19}));
  // pi(1000) = 168.
  EXPECT_EQ(primesUpTo(1000).size(), 168u);
}

TEST(MathUtil, LogBinomial) {
  EXPECT_NEAR(std::exp(logBinomial(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(logBinomial(10, 0)), 1.0, 1e-9);
  EXPECT_TRUE(std::isinf(logBinomial(3, 5)));
}

TEST(MathUtil, BinomialRatio) {
  // C(5,2)/C(10,2) = 10/45.
  EXPECT_NEAR(binomialRatio(10, 2, 2), 10.0 / 45.0, 1e-9);
  // n/d < k -> 0.
  EXPECT_EQ(binomialRatio(10, 5, 3), 0.0);
}

// --- Stats ----------------------------------------------------------------

TEST(Stats, Mean) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_NEAR(mean({1, 2, 3}), 2.0, 1e-12);
}

TEST(Stats, Geomean) {
  EXPECT_EQ(geomean({}), 0.0);
  EXPECT_NEAR(geomean({2, 8}), 4.0, 1e-9);
  EXPECT_NEAR(geomean({1.37, 1.09, 1.09, 1.03, 1.25, 1.12, 1.33}), 1.18,
              0.01); // The paper's Table 3 average.
}

TEST(Stats, Stddev) {
  EXPECT_EQ(stddev({1.0}), 0.0);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 0.01);
}

// --- Rng -------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, SeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2);
}

TEST(Rng, BelowBound) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 10ull, 1000ull})
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
}

TEST(Rng, RangeInclusive) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 200; ++I) {
    uint64_t V = R.nextInRange(5, 8);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 8u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 4u); // All values reachable.
}

// --- TablePrinter -----------------------------------------------------------

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T;
  T.setHeader({"Name", "Value"});
  T.addRow({"x", "1"});
  T.addRow({"longer", "22"});
  std::string Out = T.toString();
  EXPECT_NE(Out.find("| Name   | Value |"), std::string::npos);
  EXPECT_NE(Out.find("| longer | 22    |"), std::string::npos);
}

TEST(TablePrinter, PadsShortRows) {
  TablePrinter T;
  T.setHeader({"A", "B", "C"});
  T.addRow({"1"});
  std::string Out = T.toString();
  EXPECT_NE(Out.find("| 1 |   |   |"), std::string::npos);
}

// --- DotWriter ----------------------------------------------------------------

TEST(DotWriter, EmitsNodesEdgesClusters) {
  DotWriter W("g");
  W.addNode("a", "A", 0);
  W.addNode("b", "B", 0);
  W.addNode("c", "C");
  W.addEdge("a", "b", 0.86);
  std::string Out = W.toString();
  EXPECT_NE(Out.find("graph \"g\""), std::string::npos);
  EXPECT_NE(Out.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(Out.find("\"a\" -- \"b\" [label=\"0.86\"]"), std::string::npos);
  EXPECT_NE(Out.find("\"c\" [label=\"C\"]"), std::string::npos);
}

// --- Error -----------------------------------------------------------------

TEST(ErrorDeath, FatalAborts) {
  EXPECT_DEATH(fatalError("boom"), "structslim fatal error: boom");
}

TEST(ErrorDeath, UnreachableAborts) {
  EXPECT_DEATH(unreachable("nope"), "structslim unreachable: nope");
}

// --- VarInt -------------------------------------------------------------

TEST(VarInt, RoundTripsBoundaryValues) {
  const uint64_t Values[] = {0,      1,        127,        128,
                             16383,  16384,    0xffffffff, 1ull << 62,
                             ~0ull,  0x80,     0x3fff,     0x4000};
  std::string Buf;
  for (uint64_t V : Values)
    support::appendVarint(Buf, V);
  support::VarintReader R(Buf.data(), Buf.data() + Buf.size());
  for (uint64_t V : Values)
    EXPECT_EQ(R.readVarint(), V);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(VarInt, ZigzagRoundTripsSignedExtremes) {
  const int64_t Values[] = {0,  -1, 1,  -2, 2, INT64_MAX, INT64_MIN,
                            -4096, 4096};
  for (int64_t V : Values)
    EXPECT_EQ(support::zigzagDecode(support::zigzagEncode(V)), V);
  std::string Buf;
  for (int64_t V : Values)
    support::appendSVarint(Buf, V);
  support::VarintReader R(Buf.data(), Buf.data() + Buf.size());
  for (int64_t V : Values)
    EXPECT_EQ(R.readSVarint(), V);
  EXPECT_TRUE(R.ok());
}

TEST(VarInt, TruncatedReadLatchesError) {
  std::string Buf;
  support::appendVarint(Buf, 1u << 20); // Multi-byte encoding.
  for (size_t Cut = 0; Cut != Buf.size(); ++Cut) {
    support::VarintReader R(Buf.data(), Buf.data() + Cut);
    R.readVarint();
    EXPECT_FALSE(R.ok()) << "cut=" << Cut;
    // Error state latches: later reads stay failed.
    EXPECT_EQ(R.readVarint(), 0u);
    EXPECT_FALSE(R.ok());
  }
}

TEST(VarInt, NonTerminatingSequenceRejected) {
  std::string Buf(11, static_cast<char>(0x80)); // 11 continuation bytes.
  support::VarintReader R(Buf.data(), Buf.data() + Buf.size());
  R.readVarint();
  EXPECT_FALSE(R.ok());
}

TEST(VarInt, ReadBytesBoundsChecked) {
  std::string Buf = "abcdef";
  support::VarintReader R(Buf.data(), Buf.data() + Buf.size());
  const char *P = R.readBytes(4);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(std::string(P, 4), "abcd");
  EXPECT_EQ(R.readBytes(3), nullptr); // Only 2 left.
  EXPECT_FALSE(R.ok());
}

// --- FlatHash -----------------------------------------------------------

TEST(FlatHash, PairMapInsertFindGrow) {
  support::FlatPairMap Map;
  // Enough keys to force several growth steps.
  for (uint32_t I = 0; I != 1000; ++I) {
    bool Inserted = false;
    uint32_t V = Map.getOrInsert(0x400000 + I, I % 7, I, Inserted);
    EXPECT_TRUE(Inserted);
    EXPECT_EQ(V, I);
  }
  EXPECT_EQ(Map.size(), 1000u);
  for (uint32_t I = 0; I != 1000; ++I) {
    EXPECT_EQ(Map.find(0x400000 + I, I % 7), I);
    bool Inserted = true;
    EXPECT_EQ(Map.getOrInsert(0x400000 + I, I % 7, 9999, Inserted), I);
    EXPECT_FALSE(Inserted);
  }
  EXPECT_EQ(Map.find(0x500000, 0), support::FlatPairMap::Npos);
  Map.clear();
  EXPECT_EQ(Map.size(), 0u);
  EXPECT_EQ(Map.find(0x400000, 0), support::FlatPairMap::Npos);
}

TEST(FlatHash, PairMapDistinguishesBothKeyHalves) {
  support::FlatPairMap Map;
  bool Inserted = false;
  Map.getOrInsert(1, 1, 11, Inserted);
  Map.getOrInsert(1, 2, 12, Inserted);
  Map.getOrInsert(2, 1, 21, Inserted);
  EXPECT_EQ(Map.find(1, 1), 11u);
  EXPECT_EQ(Map.find(1, 2), 12u);
  EXPECT_EQ(Map.find(2, 1), 21u);
  EXPECT_EQ(Map.find(2, 2), support::FlatPairMap::Npos);
}

TEST(FlatHash, U64SetHandlesZeroAndDuplicates) {
  support::FlatU64Set Set;
  EXPECT_TRUE(Set.insert(0)); // Zero needs its own slot logic.
  EXPECT_FALSE(Set.insert(0));
  for (uint64_t V = 1; V != 500; ++V)
    EXPECT_TRUE(Set.insert(V * 0x10001));
  for (uint64_t V = 1; V != 500; ++V)
    EXPECT_FALSE(Set.insert(V * 0x10001));
  EXPECT_EQ(Set.size(), 500u);
  Set.clear();
  EXPECT_EQ(Set.size(), 0u);
  EXPECT_TRUE(Set.insert(0));
  EXPECT_TRUE(Set.insert(42));
}

// --- ReadFile -----------------------------------------------------------

namespace {

std::string readFileScratch(const std::string &Name) {
  return ::testing::TempDir() + "readfile_" + Name;
}

void writeScratch(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Contents.data(), static_cast<std::streamsize>(Contents.size()));
  ASSERT_TRUE(Out.good());
}

} // namespace

TEST(ReadFile, RoundTripsExactBytes) {
  std::string Contents("structslim\0binary\xff payload\n", 27);
  Contents += std::string(10000, 'x'); // Spill past one page.
  std::string Path = readFileScratch("roundtrip.bin");
  writeScratch(Path, Contents);
  std::string Error;
  auto Bytes = support::readFile(Path, &Error);
  ASSERT_TRUE(Bytes.has_value()) << Error;
  EXPECT_EQ(*Bytes, Contents);
}

TEST(ReadFile, MissingFileIsAnError) {
  std::string Error;
  auto Bytes = support::readFile(readFileScratch("does_not_exist"), &Error);
  EXPECT_FALSE(Bytes.has_value());
  EXPECT_EQ(Error, "cannot open file");
}

TEST(ReadFile, DirectoryIsAnError) {
  // open() accepts a directory; reading it must not pass for an empty
  // file.
  std::string Error;
  EXPECT_FALSE(support::readFile(::testing::TempDir(), &Error).has_value());
  EXPECT_EQ(Error, "is a directory");
}

TEST(ReadFile, EmptyFileYieldsEmptyBytes) {
  std::string Path = readFileScratch("empty.bin");
  writeScratch(Path, "");
  std::string Error;
  auto Bytes = support::readFile(Path, &Error);
  ASSERT_TRUE(Bytes.has_value()) << Error;
  EXPECT_TRUE(Bytes->empty());
}
