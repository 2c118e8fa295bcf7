//===- tests/spsc_ring_test.cpp - SPSC ring and access queue ---*- C++ -*-===//
//
// Unit and property tests for the decoupled pipeline's transport: the
// lock-free SPSC ring (batch publish, wraparound, capacity bounds) and
// the AccessQueue record encoding (run collapse, straddles, atomic
// sampled groups, backpressure).
//
//===----------------------------------------------------------------------===//

#include "runtime/AccessQueue.h"
#include "support/Random.h"
#include "support/SpscRing.h"

#include <gtest/gtest.h>

#include <vector>

using namespace structslim;
using support::SpscRing;

namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1024).capacity(), 1024u);
  EXPECT_EQ(SpscRing<int>(1025).capacity(), 2048u);
}

TEST(SpscRing, StagedSlotsInvisibleUntilPublish) {
  SpscRing<int> R(8);
  for (int I = 0; I != 3; ++I) {
    int *S = R.push();
    ASSERT_NE(S, nullptr);
    *S = I;
  }
  EXPECT_EQ(R.available(), 0u) << "unpublished slots must stay invisible";
  EXPECT_EQ(R.unpublished(), 3u);
  R.publish();
  EXPECT_EQ(R.unpublished(), 0u);
  ASSERT_EQ(R.available(), 3u);
  for (int I = 0; I != 3; ++I)
    EXPECT_EQ(R.at(I), I);
  R.pop(3);
  EXPECT_EQ(R.available(), 0u);
  EXPECT_TRUE(R.drained());
}

TEST(SpscRing, CapacityOneAlternates) {
  SpscRing<int> R(1);
  for (int I = 0; I != 10; ++I) {
    int *S = R.push();
    ASSERT_NE(S, nullptr);
    *S = I;
    EXPECT_EQ(R.push(), nullptr) << "full ring must refuse a second slot";
    R.publish();
    ASSERT_EQ(R.available(), 1u);
    EXPECT_EQ(R.at(0), I);
    R.pop(1);
  }
}

TEST(SpscRing, RefusesPushWhenFullUntilPop) {
  SpscRing<int> R(4);
  for (int I = 0; I != 4; ++I)
    ASSERT_NE(R.push(), nullptr);
  EXPECT_EQ(R.push(), nullptr);
  R.publish();
  R.pop(1);
  EXPECT_NE(R.push(), nullptr) << "freed capacity must become pushable";
}

TEST(SpscRing, WraparoundPreservesOrder) {
  SpscRing<uint64_t> R(4);
  uint64_t Next = 0, Expect = 0;
  // 3-at-a-time through a 4-slot ring crosses the wrap boundary on
  // every lap at a different phase.
  for (int Round = 0; Round != 100; ++Round) {
    for (int I = 0; I != 3; ++I)
      *R.push() = Next++;
    R.publish();
    ASSERT_EQ(R.available(), 3u);
    for (int I = 0; I != 3; ++I)
      EXPECT_EQ(R.at(I), Expect++);
    R.pop(3);
  }
}

TEST(SpscRingProperty, RandomBatchesRoundTrip) {
  Rng Gen(0x5eed5eed);
  SpscRing<uint64_t> R(64);
  uint64_t Produced = 0, Consumed = 0;
  size_t InFlight = 0; // Published, not yet popped.
  size_t Staged = 0;
  while (Consumed < 20000) {
    // Random producer burst within free space.
    size_t Free = R.capacity() - InFlight - Staged;
    size_t Burst = Gen.nextBelow(Free + 1);
    for (size_t I = 0; I != Burst; ++I)
      *R.push() = Produced++;
    Staged += Burst;
    if (Gen.nextBelow(2)) {
      R.publish();
      InFlight += Staged;
      Staged = 0;
    }
    ASSERT_EQ(R.available(), InFlight);
    size_t Take = Gen.nextBelow(InFlight + 1);
    for (size_t I = 0; I != Take; ++I)
      ASSERT_EQ(R.at(I), Consumed + I);
    R.pop(Take);
    Consumed += Take;
    InFlight -= Take;
  }
}

//===----------------------------------------------------------------------===//
// AccessQueue encoding.
//===----------------------------------------------------------------------===//

const std::vector<uint64_t> NoPath;

TEST(AccessQueue, CollapsesSameLineRuns) {
  runtime::AccessQueue Q(1024, /*LineShift=*/6, /*CollapseRuns=*/true);
  // Eight 8-byte accesses walking one 64-byte line.
  for (uint64_t Off = 0; Off != 64; Off += 8)
    Q.noteAccess(0, 0x400, 0x10000 + Off, 8, false, false, NoPath);
  Q.close();
  ASSERT_EQ(Q.available(), 1u);
  const runtime::AccessRec &R = Q.at(0);
  EXPECT_EQ(R.Kind, runtime::RecRun);
  EXPECT_EQ(R.A, 0x10000u >> 6);
  EXPECT_EQ(R.Count, 8u);
}

TEST(AccessQueue, RunClosesAtMaxLength) {
  // A same-line stream one longer than a record may carry splits into
  // a full run and a run of one; the counts sum to the stream length.
  runtime::AccessQueue Q(1024, 6, true);
  const uint64_t Stream = runtime::AccessQueue::MaxRunLength + 1ull;
  for (uint64_t I = 0; I != Stream; ++I)
    Q.noteAccess(0, 0x400, 0x10008, 8, false, false, NoPath);
  Q.close();
  ASSERT_EQ(Q.available(), 2u);
  EXPECT_EQ(Q.at(0).Kind, runtime::RecRun);
  EXPECT_EQ(Q.at(1).Kind, runtime::RecRun);
  EXPECT_EQ(Q.at(0).A, 0x10008u >> 6);
  EXPECT_EQ(Q.at(1).A, 0x10008u >> 6);
  EXPECT_EQ(Q.at(0).Count, runtime::AccessQueue::MaxRunLength);
  EXPECT_EQ(Q.at(1).Count, 1u);
  EXPECT_EQ(uint64_t(Q.at(0).Count) + Q.at(1).Count, Stream);
}

TEST(AccessQueue, RunBreaksOnLineThreadAndStraddle) {
  runtime::AccessQueue Q(1024, 6, true);
  Q.noteAccess(0, 0x400, 0x10000, 8, false, false, NoPath); // run A, tid 0
  Q.noteAccess(1, 0x400, 0x10008, 8, false, false, NoPath); // tid 1: new run
  Q.noteAccess(0, 0x400, 0x10040, 8, false, false, NoPath); // new line
  Q.noteAccess(0, 0x404, 0x1003c, 8, true, false, NoPath);  // straddle: exact
  Q.noteAccess(0, 0x400, 0x10000, 8, false, false, NoPath); // after exact: new
  Q.close();
  ASSERT_EQ(Q.available(), 5u);
  EXPECT_EQ(Q.at(0).Kind, runtime::RecRun);
  EXPECT_EQ(Q.at(1).Kind, runtime::RecRun);
  EXPECT_EQ(Q.at(1).Tid, 1u);
  EXPECT_EQ(Q.at(2).Kind, runtime::RecRun);
  EXPECT_EQ(Q.at(3).Kind, runtime::RecExact);
  EXPECT_TRUE(Q.at(3).Flags & 1) << "write bit must survive";
  EXPECT_EQ(Q.at(4).Kind, runtime::RecRun)
      << "an exact record must terminate the open run";
}

TEST(AccessQueue, ExactOnlyWhenCollapseDisabled) {
  runtime::AccessQueue Q(1024, 6, /*CollapseRuns=*/false);
  Q.noteAccess(0, 0x400, 0x10000, 8, false, false, NoPath);
  Q.noteAccess(0, 0x400, 0x10008, 8, false, false, NoPath);
  Q.close();
  ASSERT_EQ(Q.available(), 2u);
  EXPECT_EQ(Q.at(0).Kind, runtime::RecExact);
  EXPECT_EQ(Q.at(1).Kind, runtime::RecExact);
}

TEST(AccessQueue, SampledGroupCarriesPathWords) {
  runtime::AccessQueue Q(1024, 6, true);
  std::vector<uint64_t> Path = {0x111, 0x222, 0x333};
  Q.noteAccess(2, 0x500, 0x20010, 4, true, /*Sampled=*/true, Path);
  Q.close();
  ASSERT_EQ(Q.available(), 3u); // Sampled + ceil(3/2) path records.
  const runtime::AccessRec &S = Q.at(0);
  EXPECT_EQ(S.Kind, runtime::RecSampled);
  EXPECT_EQ(S.A, 0x20010u);
  EXPECT_EQ(S.B, 0x500u);
  EXPECT_EQ(S.Count, 3u);
  EXPECT_EQ(S.Tid, 2u);
  EXPECT_EQ(Q.at(1).Kind, runtime::RecPath);
  EXPECT_EQ(Q.at(1).A, 0x111u);
  EXPECT_EQ(Q.at(1).B, 0x222u);
  EXPECT_EQ(Q.at(2).A, 0x333u);
  EXPECT_EQ(Q.at(2).B, 0u);
}

/// Drain hook that copies out every published record — the single-core
/// consumer shape, used here to exercise backpressure deterministically.
struct CopyingHook : runtime::AccessDrainHook {
  runtime::AccessQueue *Q = nullptr;
  std::vector<runtime::AccessRec> Got;
  void drainInline() override {
    size_t N = Q->available();
    for (size_t I = 0; I != N; ++I)
      Got.push_back(Q->at(I));
    Q->pop(N);
  }
};

TEST(AccessQueue, BackpressureDrainsInlineWithoutLossOrTearing) {
  runtime::AccessQueue Q(1024, 6, true);
  CopyingHook Hook;
  Hook.Q = &Q;
  Q.setDrainHook(&Hook);
  // Distinct lines defeat collapsing, so this overfills the ring
  // several times; every 16th access is sampled with a path, whose
  // group must never be observed torn.
  std::vector<uint64_t> Path = {1, 2, 3, 4, 5};
  const size_t N = 5000;
  for (size_t I = 0; I != N; ++I) {
    bool Sampled = I % 16 == 0;
    Q.noteAccess(0, 0x400 + I, (0x10000 + 64 * I), 8, false, Sampled,
                 Sampled ? Path : NoPath);
  }
  Q.sync();
  EXPECT_GT(Q.producerStalls(), 0u) << "test must actually overfill";
  // Replay the received stream: every record accounted for, in order,
  // and every Sampled record followed by exactly its path records.
  size_t Accesses = 0;
  for (size_t I = 0; I != Hook.Got.size(); ++I) {
    const runtime::AccessRec &R = Hook.Got[I];
    if (R.Kind == runtime::RecRun) {
      Accesses += R.Count;
    } else if (R.Kind == runtime::RecSampled) {
      ++Accesses;
      size_t PathRecs = (R.Count + 1) / 2;
      ASSERT_LE(I + PathRecs, Hook.Got.size()) << "torn sampled group";
      for (size_t P = 1; P <= PathRecs; ++P)
        ASSERT_EQ(Hook.Got[I + P].Kind, runtime::RecPath);
      EXPECT_EQ(Hook.Got[I + 1].A, 1u);
      I += PathRecs;
    } else {
      FAIL() << "unexpected kind " << unsigned(R.Kind);
    }
  }
  EXPECT_EQ(Accesses, N);
}

} // namespace
