//===- runtime/SimPipeline.h - Decoupled simulation consumer ---*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The consumer side of the decoupled sample pipeline: drains the
/// AccessQueue the execution engine produces into and drives the cache
/// hierarchies and PMU sample delivery off the execution hot path,
/// bit-identically to the inline engine (DESIGN.md Sec. 12 carries the
/// full argument).
///
/// Two consumption modes:
///  - *threaded* (multi-core hosts): a dedicated consumer thread
///    overlaps simulation with execution;
///  - *inline drain* (single-core hosts): no consumer thread — the
///    producer drains the ring itself whenever it fills and at sync
///    points, keeping the run-length-collapsed replay without context
///    switches.
///
/// Replay is one in-order pass: ring order is the serial schedule, so
/// each record goes through the same MemoryHierarchy::access() the
/// inline engine calls, in the same order. A run record is one access
/// plus Count-1 L1 hits on the line it just touched.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_RUNTIME_SIMPIPELINE_H
#define STRUCTSLIM_RUNTIME_SIMPIPELINE_H

#include "cache/Hierarchy.h"
#include "pmu/AddressSampling.h"
#include "runtime/AccessQueue.h"

#include <cstdint>
#include <thread>
#include <vector>

namespace structslim {
namespace runtime {

/// Drains one AccessQueue for one phase.
class SimPipeline : public AccessDrainHook {
public:
  /// One logical thread's simulation targets. \p Pmu may be null
  /// (profiler detached — no Sampled records are produced then).
  struct Lane {
    cache::MemoryHierarchy *Hierarchy = nullptr;
    pmu::PmuModel *Pmu = nullptr;
  };

  /// \p Threaded selects the dedicated consumer thread; otherwise the
  /// pipeline registers itself as the queue's inline-drain hook.
  SimPipeline(AccessQueue &Q, std::vector<Lane> Lanes, bool Threaded);
  ~SimPipeline();

  /// Starts consumption (spawns the consumer thread in threaded mode).
  void start();

  /// Closes the queue and completes all pending simulation. Counters
  /// and cycle totals are valid after this returns.
  void finish();

  /// AccessDrainHook: producer-side inline drain (single-core mode).
  void drainInline() override { drainOnce(); }

  /// Deferred simulation cycles accrued by logical thread \p Tid.
  uint64_t cyclesFor(size_t Tid) const { return Cycles[Tid]; }

  uint64_t queueDepthMax() const { return QueueDepthMaxV; }
  uint64_t consumerBatches() const { return ConsumerBatchesV; }
  /// Host seconds spent replaying records (either placement).
  double consumerBusySeconds() const { return BusySeconds; }

private:
  void consumerLoop();
  bool drainOnce();
  void replay(size_t N);
  void deliverSample(const AccessRec &R, size_t RecIdx, unsigned Latency,
                     cache::MemLevel Served, bool TlbMiss);

  AccessQueue &Q;
  std::vector<Lane> Lanes;
  bool Threaded;
  unsigned LineShift;
  unsigned L1Latency;
  std::thread Consumer;

  std::vector<uint64_t> Cycles; ///< Per logical thread.
  uint64_t QueueDepthMaxV = 0;
  uint64_t ConsumerBatchesV = 0;
  double BusySeconds = 0;

  std::vector<uint64_t> PathScratch; ///< Reused call-path buffer.
};

} // namespace runtime
} // namespace structslim

#endif // STRUCTSLIM_RUNTIME_SIMPIPELINE_H
