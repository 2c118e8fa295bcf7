//===- pmu/AddressSampling.cpp --------------------------------*- C++ -*-===//

#include "pmu/AddressSampling.h"

#include "support/Error.h"

using namespace structslim;
using namespace structslim::pmu;

SampleSink::~SampleSink() = default;

PmuModel::PmuModel(const SamplingConfig &Config, uint32_t ThreadId)
    : Config(Config), ThreadId(ThreadId),
      Jitter(Config.Seed * 0x9e3779b97f4a7c15ULL + ThreadId + 1),
      SkipStores(Config.Flavor == PmuFlavor::PebsLoadLatency) {
  if (Config.Period == 0)
    fatalError("pmu: sampling period must be >= 1 (got 0; detach the "
               "sink to disable sampling)");
  Countdown = nextCountdown();
}

uint64_t PmuModel::nextCountdown() {
  // Periods 1-3 (and RandomizePeriod off) sample exactly every
  // Period-th eligible access: Quarter would be 0, so jitter could not
  // widen the window anyway, and an exact countdown keeps the
  // pre-decrement in tick() from ever underflowing (Countdown >= 1
  // always holds on entry).
  uint64_t Period = Config.Period;
  if (!Config.RandomizePeriod || Period < 4)
    return Period;
  // +/- 25% jitter around the period, as hardware randomization does,
  // so strided code cannot alias with the sampling period.
  uint64_t Quarter = Period / 4;
  return Period - Quarter + Jitter.nextBelow(2 * Quarter + 1);
}

void PmuModel::deliver(uint64_t Ip, uint64_t EffAddr, uint8_t AccessSize,
                       bool IsWrite, const cache::AccessResult &Result) {
  if (!Sink) {
    // Disarmed between tick() and delivery (decoupled pipelines resolve
    // the sample after selection) — drop, per the setSink() contract.
    ++SamplesDroppedDisarmed;
    return;
  }
  AddressSample Sample;
  Sample.ThreadId = ThreadId;
  Sample.Ip = Ip;
  Sample.EffAddr = EffAddr;
  Sample.AccessSize = AccessSize;
  Sample.Latency = Result.Latency;
  Sample.Served = Result.Served;
  Sample.IsWrite = IsWrite;
  Sample.TlbMiss = Result.TlbMiss;
  ++SamplesDelivered;
  Sink->onSample(Sample);
}
