//===- tests/pmu_test.cpp - Address-sampling PMU tests ---------*- C++ -*-===//

#include "pmu/AddressSampling.h"

#include <gtest/gtest.h>

#include <vector>

using namespace structslim;
using namespace structslim::pmu;

namespace {

class Collector : public SampleSink {
public:
  std::vector<AddressSample> Samples;
  void onSample(const AddressSample &S) override { Samples.push_back(S); }
};

cache::AccessResult l1Hit() { return {4, cache::MemLevel::L1}; }

} // namespace

TEST(Pmu, ExactPeriodWithoutJitter) {
  SamplingConfig Cfg;
  Cfg.Period = 100;
  Cfg.RandomizePeriod = false;
  PmuModel Pmu(Cfg, 0);
  Collector Sink;
  Pmu.setSink(&Sink);
  for (uint64_t I = 0; I != 1000; ++I)
    Pmu.onAccess(0x400000 + I, 0x1000 + I, 8, false, l1Hit());
  EXPECT_EQ(Sink.Samples.size(), 10u);
  EXPECT_EQ(Pmu.getSamplesDelivered(), 10u);
  // Every 100th access, starting at the 100th (index 99).
  EXPECT_EQ(Sink.Samples[0].Ip, 0x400000u + 99);
  EXPECT_EQ(Sink.Samples[1].Ip, 0x400000u + 199);
}

TEST(Pmu, JitteredPeriodStaysWithinBounds) {
  SamplingConfig Cfg;
  Cfg.Period = 1000;
  Cfg.RandomizePeriod = true;
  PmuModel Pmu(Cfg, 0);
  Collector Sink;
  Pmu.setSink(&Sink);
  uint64_t Count = 200000;
  for (uint64_t I = 0; I != Count; ++I)
    Pmu.onAccess(I, I, 8, false, l1Hit());
  // +/-25% jitter: between Count/1250 and Count/750 samples.
  EXPECT_GE(Sink.Samples.size(), Count / 1250);
  EXPECT_LE(Sink.Samples.size(), Count / 750);
  // Gaps between samples obey the randomized window.
  for (size_t I = 1; I < Sink.Samples.size(); ++I) {
    uint64_t Gap = Sink.Samples[I].Ip - Sink.Samples[I - 1].Ip;
    EXPECT_GE(Gap, 750u);
    EXPECT_LE(Gap, 1250u);
  }
}

TEST(Pmu, PebsLoadLatencySkipsStores) {
  SamplingConfig Cfg;
  Cfg.Period = 10;
  Cfg.RandomizePeriod = false;
  Cfg.Flavor = PmuFlavor::PebsLoadLatency;
  PmuModel Pmu(Cfg, 0);
  Collector Sink;
  Pmu.setSink(&Sink);
  // Alternate loads and stores: only loads advance the counter.
  for (uint64_t I = 0; I != 100; ++I)
    Pmu.onAccess(I, I, 8, /*IsWrite=*/I % 2 == 1, l1Hit());
  EXPECT_EQ(Sink.Samples.size(), 5u);
  for (const AddressSample &S : Sink.Samples)
    EXPECT_FALSE(S.IsWrite);
}

TEST(Pmu, IbsSamplesStoresToo) {
  SamplingConfig Cfg;
  Cfg.Period = 10;
  Cfg.RandomizePeriod = false;
  Cfg.Flavor = PmuFlavor::IbsOp;
  PmuModel Pmu(Cfg, 0);
  Collector Sink;
  Pmu.setSink(&Sink);
  for (uint64_t I = 0; I != 100; ++I)
    Pmu.onAccess(I, I, 8, /*IsWrite=*/I % 2 == 1, l1Hit());
  EXPECT_EQ(Sink.Samples.size(), 10u);
  bool SawWrite = false;
  for (const AddressSample &S : Sink.Samples)
    SawWrite |= S.IsWrite;
  EXPECT_TRUE(SawWrite);
}

TEST(Pmu, SampleCarriesFullRecord) {
  SamplingConfig Cfg;
  Cfg.Period = 1;
  Cfg.RandomizePeriod = false;
  PmuModel Pmu(Cfg, /*ThreadId=*/3);
  Collector Sink;
  Pmu.setSink(&Sink);
  cache::AccessResult R{40, cache::MemLevel::L3};
  Pmu.onAccess(0x401234, 0xbeef, 4, false, R);
  ASSERT_EQ(Sink.Samples.size(), 1u);
  const AddressSample &S = Sink.Samples[0];
  EXPECT_EQ(S.ThreadId, 3u);
  EXPECT_EQ(S.Ip, 0x401234u);
  EXPECT_EQ(S.EffAddr, 0xbeefu);
  EXPECT_EQ(S.Latency, 40u);
  EXPECT_EQ(S.AccessSize, 4u);
  EXPECT_EQ(S.Served, cache::MemLevel::L3);
}

TEST(Pmu, DetachedPmuDeliversNothing) {
  SamplingConfig Cfg;
  Cfg.Period = 1;
  Cfg.RandomizePeriod = false;
  PmuModel Pmu(Cfg, 0);
  for (uint64_t I = 0; I != 100; ++I)
    Pmu.onAccess(I, I, 8, false, l1Hit());
  EXPECT_EQ(Pmu.getSamplesDelivered(), 0u);
}

// A zero period has no meaning ("never sample" is a detached sink;
// "every access" is period 1) — construction must abort loudly instead
// of underflowing the countdown.
TEST(PmuDeath, ZeroPeriodAborts) {
  SamplingConfig Cfg;
  Cfg.Period = 0;
  EXPECT_DEATH(PmuModel(Cfg, 0), "period must be >= 1");
}

// Periods 1-3 are below the jitter granularity (a +/-25% window would
// round to zero and stall the countdown): they sample exactly, even
// with RandomizePeriod left on.
TEST(Pmu, TinyPeriodsSampleExactlyDespiteJitter) {
  for (uint64_t Period : {1u, 2u, 3u}) {
    SamplingConfig Cfg;
    Cfg.Period = Period;
    Cfg.RandomizePeriod = true;
    PmuModel Pmu(Cfg, 0);
    Collector Sink;
    Pmu.setSink(&Sink);
    for (uint64_t I = 0; I != 600; ++I)
      Pmu.onAccess(I, I, 8, false, l1Hit());
    ASSERT_EQ(Sink.Samples.size(), 600 / Period) << "period " << Period;
    for (size_t I = 1; I < Sink.Samples.size(); ++I)
      EXPECT_EQ(Sink.Samples[I].Ip - Sink.Samples[I - 1].Ip, Period);
  }
}

// The disarm contract: a sample selected while armed but delivered
// after setSink(nullptr) is dropped and counted, never dereferenced
// into the null sink. This is the parallel engine's window between
// tick (access time) and deliverDeferred (round barrier).
TEST(Pmu, DisarmDropsDeferredPendingSample) {
  SamplingConfig Cfg;
  Cfg.Period = 1;
  Cfg.RandomizePeriod = false;
  PmuModel Pmu(Cfg, 0);
  Collector Sink;
  Pmu.setSink(&Sink);
  ASSERT_TRUE(Pmu.tick(false)); // Selected while armed.
  Pmu.setSink(nullptr);         // Profiler detaches before the barrier.
  AddressSample S;
  S.Ip = 0x400000;
  Pmu.deliverDeferred(S, nullptr, 0);
  EXPECT_TRUE(Sink.Samples.empty());
  EXPECT_EQ(Pmu.getSamplesDelivered(), 0u);
  EXPECT_EQ(Pmu.getSamplesDroppedDisarmed(), 1u);
  // Re-arming delivers again; the dropped sample stays dropped.
  Pmu.setSink(&Sink);
  Pmu.deliverDeferred(S, nullptr, 0);
  EXPECT_EQ(Sink.Samples.size(), 1u);
  EXPECT_EQ(Pmu.getSamplesDelivered(), 1u);
  EXPECT_EQ(Pmu.getSamplesDroppedDisarmed(), 1u);
}

TEST(Pmu, DifferentThreadsJitterIndependently) {
  SamplingConfig Cfg;
  Cfg.Period = 1000;
  PmuModel A(Cfg, 0), B(Cfg, 1);
  Collector SinkA, SinkB;
  A.setSink(&SinkA);
  B.setSink(&SinkB);
  for (uint64_t I = 0; I != 10000; ++I) {
    A.onAccess(I, I, 8, false, l1Hit());
    B.onAccess(I, I, 8, false, l1Hit());
  }
  ASSERT_FALSE(SinkA.Samples.empty());
  ASSERT_FALSE(SinkB.Samples.empty());
  // Same seed but different thread ids: first sample points differ.
  EXPECT_NE(SinkA.Samples[0].Ip, SinkB.Samples[0].Ip);
}
