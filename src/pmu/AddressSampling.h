//===- pmu/AddressSampling.h - PEBS-LL/IBS address sampling ----*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Models the performance-monitoring-unit address sampling StructSlim
/// is built on (paper Sec. 2, Table 1). The PMU periodically selects a
/// memory access and records the three pieces of information the paper
/// enumerates: (1) the instruction pointer, (2) the effective address,
/// and (3) the memory events it caused — here, the serving cache level
/// and the access latency (the PEBS-LL / IBS capability; plain PEBS and
/// MRK lack latency, which is why StructSlim requires PEBS-LL or IBS).
///
/// Two flavors are modeled:
///  - PebsLoadLatency: samples loads only, like Intel PEBS-LL;
///  - IbsOp:           samples loads and stores, like AMD IBS.
///
/// Real PEBS randomizes the distance between samples; the model applies
/// the same jitter so periodic access patterns cannot alias with the
/// sampling period.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_PMU_ADDRESSSAMPLING_H
#define STRUCTSLIM_PMU_ADDRESSSAMPLING_H

#include "cache/Hierarchy.h"
#include "support/Random.h"

#include <cstdint>

namespace structslim {
namespace pmu {

/// One address sample as delivered by the PMU interrupt handler.
struct AddressSample {
  uint32_t ThreadId = 0;
  uint64_t Ip = 0;
  uint64_t EffAddr = 0;
  uint32_t Latency = 0;
  uint8_t AccessSize = 0; ///< Bytes touched by the sampled instruction.
  cache::MemLevel Served = cache::MemLevel::L1;
  bool IsWrite = false;
  bool TlbMiss = false; ///< Reported by PEBS/IBS alongside cache events.
};

/// Which sampling hardware to model.
enum class PmuFlavor : uint8_t {
  PebsLoadLatency, ///< Intel PEBS with load latency: loads only.
  IbsOp,           ///< AMD instruction-based sampling: loads + stores.
};

/// Sampling parameters. The paper samples one in 10,000 accesses.
///
/// Period must be >= 1 (PmuModel construction aborts on 0: a zero
/// period has no sensible meaning — "never sample" is setSink(nullptr)
/// and "sample every access" is Period 1). Periods 1-3 sample exactly
/// every Period-th eligible access with no jitter; from 4 up the
/// PEBS-style +/- 25% randomization applies (RandomizePeriod permitting).
struct SamplingConfig {
  uint64_t Period = 10000;
  PmuFlavor Flavor = PmuFlavor::PebsLoadLatency;
  bool RandomizePeriod = true;
  uint64_t Seed = 0x5eed;
};

/// Receives samples from the PMU "interrupt handler".
class SampleSink {
public:
  virtual ~SampleSink();
  virtual void onSample(const AddressSample &Sample) = 0;

  /// Sample delivery with an explicitly captured call path (call-site
  /// IPs, outermost first, excluding the sampled instruction). Used by
  /// the decoupled simulation pipeline, which resolves samples when its
  /// consumer drains the access queue, after the interrupted thread's
  /// live stack has already moved on.
  /// Default: ignore the path and deliver through onSample().
  virtual void onSampleAt(const AddressSample &Sample, const uint64_t *Path,
                          size_t PathLen) {
    (void)Path;
    (void)PathLen;
    onSample(Sample);
  }
};

/// The per-core PMU. The runtime calls onAccess() for every memory
/// access a core performs; the PMU delivers every N-th one (with
/// jitter) to the sink.
class PmuModel {
public:
  PmuModel(const SamplingConfig &Config, uint32_t ThreadId);

  /// Arms the PMU with \p Sink; a null sink disables sampling (the
  /// "profiler detached" configuration used to measure overhead).
  ///
  /// Disarm contract: a sample selected by tick() while armed but whose
  /// delivery (deliver()/deliverDeferred()) happens after a
  /// setSink(nullptr) is dropped — not delivered, not counted in
  /// getSamplesDelivered(); getSamplesDroppedDisarmed() counts it. The
  /// decoupled pipeline can hit this path: ticks happen at access time,
  /// delivery when the consumer drains the queue, and the profiler can
  /// detach in between.
  void setSink(SampleSink *Sink) { this->Sink = Sink; }

  /// Observes one memory access; delivers a sample when the period
  /// counter expires. Hot path: one decrement + branch when not
  /// sampling (the flavor's store-monitoring decision is precomputed
  /// at construction, not re-derived per access).
  void onAccess(uint64_t Ip, uint64_t EffAddr, uint8_t AccessSize,
                bool IsWrite, const cache::AccessResult &Result) {
    if (!tick(IsWrite))
      return;
    deliver(Ip, EffAddr, AccessSize, IsWrite, Result);
  }

  /// Advances the period counter for one access and reports whether it
  /// selects this access for sampling (consuming one jitter draw when
  /// it does). The selection never depends on the access outcome, so
  /// the decoupled pipeline can tick at access time and deliver the
  /// completed sample later via deliverDeferred().
  bool tick(bool IsWrite) {
    if (!Sink || (SkipStores && IsWrite))
      return false;
    if (--Countdown != 0)
      return false;
    Countdown = nextCountdown();
    return true;
  }

  /// Delivers a sample whose payload (latency, serving level) was
  /// resolved after the tick() that selected it. Dropped (and counted
  /// in getSamplesDroppedDisarmed()) if the PMU was disarmed between
  /// selection and delivery — see setSink().
  void deliverDeferred(AddressSample Sample, const uint64_t *Path,
                       size_t PathLen) {
    if (!Sink) {
      ++SamplesDroppedDisarmed;
      return;
    }
    Sample.ThreadId = ThreadId;
    ++SamplesDelivered;
    Sink->onSampleAt(Sample, Path, PathLen);
  }

  uint64_t getSamplesDelivered() const { return SamplesDelivered; }
  uint64_t getSamplesDroppedDisarmed() const {
    return SamplesDroppedDisarmed;
  }
  const SamplingConfig &getConfig() const { return Config; }
  uint32_t getThreadId() const { return ThreadId; }

private:
  void deliver(uint64_t Ip, uint64_t EffAddr, uint8_t AccessSize,
               bool IsWrite, const cache::AccessResult &Result);
  uint64_t nextCountdown();

  SamplingConfig Config;
  uint32_t ThreadId;
  SampleSink *Sink = nullptr;
  Rng Jitter;
  uint64_t Countdown;
  uint64_t SamplesDelivered = 0;
  uint64_t SamplesDroppedDisarmed = 0;
  bool SkipStores; ///< Precomputed: PEBS-LL monitors loads only.
};

} // namespace pmu
} // namespace structslim

#endif // STRUCTSLIM_PMU_ADDRESSSAMPLING_H
