//===- tests/simmemory_test.cpp - Paged memory tests -----------*- C++ -*-===//

#include "mem/SimMemory.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <map>

using namespace structslim;
using namespace structslim::mem;

TEST(SimMemory, ZeroByDefault) {
  SimMemory M;
  EXPECT_EQ(M.read(0, 8), 0u);
  EXPECT_EQ(M.read(0xdeadbeef, 4), 0u);
  EXPECT_EQ(M.getNumPages(), 0u); // Reads do not materialize pages.
}

TEST(SimMemory, RoundTripAllSizes) {
  SimMemory M;
  for (unsigned Size : {1u, 2u, 4u, 8u}) {
    uint64_t Value = 0x1122334455667788ull;
    uint64_t Mask = Size == 8 ? ~0ull : (1ull << (Size * 8)) - 1;
    M.write(100, Size, Value);
    EXPECT_EQ(M.read(100, Size), Value & Mask) << "size " << Size;
  }
}

TEST(SimMemory, LittleEndian) {
  SimMemory M;
  M.write(0, 8, 0x0807060504030201ull);
  for (uint64_t B = 0; B != 8; ++B)
    EXPECT_EQ(M.read(B, 1), B + 1);
}

TEST(SimMemory, PartialOverwrite) {
  SimMemory M;
  M.write(0, 8, ~0ull);
  M.write(2, 2, 0);
  EXPECT_EQ(M.read(0, 8), 0xffffffff0000ffffull);
}

TEST(SimMemory, PageBoundaryStraddle) {
  SimMemory M;
  uint64_t Addr = SimMemory::PageSize - 3;
  M.write(Addr, 8, 0xa1b2c3d4e5f60718ull);
  EXPECT_EQ(M.read(Addr, 8), 0xa1b2c3d4e5f60718ull);
  EXPECT_EQ(M.getNumPages(), 2u);
  // Bytes land on both sides: 18-07-f6 before the boundary, e5 after.
  EXPECT_EQ(M.read(Addr, 1), 0x18u);
  EXPECT_EQ(M.read(SimMemory::PageSize - 1, 1), 0xf6u);
  EXPECT_EQ(M.read(SimMemory::PageSize, 1), 0xe5u);
}

TEST(SimMemory, StraddleReadFromPartiallyMaterializedPages) {
  SimMemory M;
  // Only the second page exists.
  M.write(SimMemory::PageSize, 1, 0xee);
  uint64_t Addr = SimMemory::PageSize - 4;
  EXPECT_EQ(M.read(Addr, 8), 0xeeull << 32);
}

TEST(SimMemory, DistantAddressesIndependent) {
  SimMemory M;
  M.write(0x10, 8, 1);
  M.write(0x7f0000000000ull, 8, 2);
  M.write(0x600000000000ull, 8, 3);
  EXPECT_EQ(M.read(0x10, 8), 1u);
  EXPECT_EQ(M.read(0x7f0000000000ull, 8), 2u);
  EXPECT_EQ(M.read(0x600000000000ull, 8), 3u);
  EXPECT_EQ(M.getNumPages(), 3u);
}

// Property: random writes/reads agree with a byte-map reference model.
class SimMemoryRandom : public ::testing::TestWithParam<int> {};

TEST_P(SimMemoryRandom, MatchesReferenceModel) {
  Rng R(500 + GetParam());
  SimMemory M;
  std::map<uint64_t, uint8_t> Ref;
  // Confine to a couple of pages so operations collide often.
  uint64_t Base = R.nextBelow(1ull << 40);
  for (int Op = 0; Op != 2000; ++Op) {
    uint64_t Addr = Base + R.nextBelow(3 * SimMemory::PageSize);
    unsigned Size = 1u << R.nextBelow(4);
    if (R.nextBelow(2) == 0) {
      uint64_t Value = R.next();
      M.write(Addr, Size, Value);
      for (unsigned B = 0; B != Size; ++B)
        Ref[Addr + B] = static_cast<uint8_t>(Value >> (8 * B));
    } else {
      uint64_t Expect = 0;
      for (unsigned B = 0; B != Size; ++B) {
        auto It = Ref.find(Addr + B);
        uint64_t Byte = It == Ref.end() ? 0 : It->second;
        Expect |= Byte << (8 * B);
      }
      ASSERT_EQ(M.read(Addr, Size), Expect)
          << "addr " << Addr << " size " << Size;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SimMemoryRandom, ::testing::Range(0, 10));

// --- PageAccessCache ---------------------------------------------------------

TEST(PageAccessCache, AbsentPageReadIsNotCached) {
  SimMemory M;
  PageAccessCache C(M);
  // Reading an absent page returns zero and must not cache anything.
  EXPECT_EQ(C.read(0x1000, 8), 0u);
  // Materialize the page behind the cache's back.
  M.write(0x1000, 8, 0xdeadbeef);
  // The cache must see the new page, not a stale "absent" conclusion.
  EXPECT_EQ(C.read(0x1000, 8), 0xdeadbeefu);
}

TEST(PageAccessCache, WriteCreatedPageStaysCachedAcrossResync) {
  SimMemory M;
  PageAccessCache C(M);
  // The first cached write creates the page and caches it; later
  // cached and direct reads see the same bytes.
  C.write(0x2000, 8, 42);
  EXPECT_EQ(C.read(0x2000, 8), 42u);
  EXPECT_EQ(M.read(0x2000, 8), 42u);
}

TEST(PageAccessCache, StraddlingAccessesFallBackToSimMemory) {
  SimMemory M;
  PageAccessCache C(M);
  uint64_t Boundary = 5 * SimMemory::PageSize;
  C.write(Boundary - 4, 8, 0x1122334455667788ull);
  EXPECT_EQ(C.read(Boundary - 4, 8), 0x1122334455667788ull);
  EXPECT_EQ(M.read(Boundary - 4, 8), 0x1122334455667788ull);
  // Bytes landed on both sides of the boundary.
  EXPECT_EQ(M.read(Boundary - 4, 4), 0x55667788u);
  EXPECT_EQ(M.read(Boundary, 4), 0x11223344u);
}

// Property: a PageAccessCache over a SimMemory agrees byte for byte
// with direct SimMemory access, under random mixes of cached reads,
// cached writes, direct writes (shared page pointers), page creation,
// and page-straddling accesses. Direct-mapped
// conflicts are provoked by spanning more pages than cache entries.
class PageAccessCacheRandom : public ::testing::TestWithParam<int> {};

TEST_P(PageAccessCacheRandom, MatchesDirectSimMemory) {
  Rng R(7000 + GetParam());
  SimMemory M, Direct;
  PageAccessCache C(M);
  // 96 pages > 64 entries: index conflicts guaranteed.
  uint64_t Span = 96 * SimMemory::PageSize;
  uint64_t Base = (R.nextBelow(1ull << 40)) & ~(SimMemory::PageSize - 1);
  for (int Op = 0; Op != 4000; ++Op) {
    uint64_t Addr = Base + R.nextBelow(Span);
    if (R.nextBelow(8) == 0) // bias toward page-boundary straddles
      Addr = (Addr & ~(SimMemory::PageSize - 1)) + SimMemory::PageSize -
             (1 + R.nextBelow(7));
    unsigned Size = 1u << R.nextBelow(4);
    switch (R.nextBelow(4)) {
    case 0: { // cached write
      uint64_t V = R.next();
      C.write(Addr, Size, V);
      Direct.write(Addr, Size, V);
      break;
    }
    case 1: { // direct write into the same SimMemory (shared pointers)
      uint64_t V = R.next();
      M.write(Addr, Size, V);
      Direct.write(Addr, Size, V);
      break;
    }
    default:
      ASSERT_EQ(C.read(Addr, Size), Direct.read(Addr, Size))
          << "op " << Op << " addr " << Addr << " size " << Size;
    }
  }
  // Full sweep: every materialized byte agrees.
  for (uint64_t Page = 0; Page != 96; ++Page)
    for (uint64_t Off = 0; Off < SimMemory::PageSize; Off += 8) {
      uint64_t Addr = Base + Page * SimMemory::PageSize + Off;
      ASSERT_EQ(C.read(Addr, 8), Direct.read(Addr, 8)) << "addr " << Addr;
    }
}

INSTANTIATE_TEST_SUITE_P(Random, PageAccessCacheRandom,
                         ::testing::Range(0, 8));
