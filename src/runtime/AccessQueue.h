//===- runtime/AccessQueue.h - Decoupled access transport ------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The producer side of the decoupled sample pipeline. The execution
/// engine appends compact access records to a bounded lock-free SPSC
/// ring (support::SpscRing); the simulation consumer
/// (runtime/SimPipeline) drains them and drives the cache hierarchy and
/// PMU model off the execution hot path.
///
/// Record encoding (24 bytes each):
///
///  - Run: \p Count consecutive single-line accesses by one thread to
///    the same cache line (A = line address), at most MaxRunLength of
///    them. Only emitted in the no-TLB/no-prefetcher hierarchy mode,
///    where repeated touches of a resident line are L1 hits on the
///    line's most recent way and change no cache state — the consumer
///    replays the first access in full and counts the rest as hits
///    (see SimPipeline for the identity argument).
///  - Exact: one access replayed verbatim (A = effective address,
///    B = ip). Used for line-straddling accesses and whenever the TLB
///    or prefetcher is enabled (their state depends on the exact
///    address/ip sequence).
///  - Sampled: like Exact, but the PMU period counter selected this
///    access (the tick is taken by the producer so the jitter draw
///    order matches the inline engine); Count holds the call-path
///    length and the path words follow in Path records, two per slot.
///    The whole group is published atomically, so the consumer never
///    observes a torn record.
///
/// Layout: every word the consumer polls (the ring's published tail,
/// Closed) sits on its own cache line, and the producer-local state
/// sits on a line the consumer never reads. A consumer spinning on
/// isClosed() would otherwise pull the producer's hot line away on
/// every poll and cost it a coherence miss per record.
///
/// Backpressure: when the ring fills, the producer publishes what it
/// has and either yields until the consumer thread catches up or — on
/// single-core hosts, where a consumer thread would just time-share
/// with the producer — drains the ring inline through a hook. Either
/// way the stall is counted (ProducerStalls, surfaced through
/// structslim-report --stats).
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_RUNTIME_ACCESSQUEUE_H
#define STRUCTSLIM_RUNTIME_ACCESSQUEUE_H

#include "support/Error.h"
#include "support/SpscRing.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace structslim {
namespace runtime {

/// Record kinds; see file comment for the encoding.
enum AccessRecKind : uint8_t {
  RecRun = 0,
  RecExact = 1,
  RecSampled = 2,
  RecPath = 3,
};

/// One pipeline record.
struct AccessRec {
  uint64_t A = 0;     ///< Run: line address; Exact/Sampled: effective
                      ///< address; Path: call-path word.
  uint64_t B = 0;     ///< Exact/Sampled: ip; Path: call-path word.
  uint32_t Count = 0; ///< Run: access count; Sampled: path length.
  uint8_t Kind = RecRun;
  uint8_t Size = 0;
  uint8_t Tid = 0;   ///< Phase-local thread index.
  uint8_t Flags = 0; ///< Bit 0: write.
};

/// Inline-drain port for the single-core configuration: the consumer
/// registers itself here and the producer calls drainInline() instead
/// of spinning when the ring fills (and at sync points).
class AccessDrainHook {
public:
  virtual ~AccessDrainHook() = default;
  /// Processes every published record; returns only when the ring's
  /// published region is empty.
  virtual void drainInline() = 0;
};

/// The per-phase access queue: one ring, written by the one OS thread
/// the phase engine runs on (records carry the logical-thread index),
/// read by one simulation consumer.
class AccessQueue {
public:
  /// Longest run one record carries; a longer same-line stream opens a
  /// new run. Keeps Count far from wrapping under a 2^33-instruction
  /// budget.
  static constexpr uint32_t MaxRunLength = 1u << 16;

  /// \p Capacity in records: must be a power of two, at least 1024
  /// (multi-slot sampled groups must always fit). Handing the queue
  /// anything else is a programming error, not a request to round.
  AccessQueue(size_t Capacity, unsigned LineShift, bool CollapseRuns)
      : Ring(Capacity), LineShift(LineShift), Collapse(CollapseRuns) {
    if (Capacity < 1024 || (Capacity & (Capacity - 1)) != 0)
      fatalError("access queue capacity must be a power of two >= 1024");
  }

  void setDrainHook(AccessDrainHook *H) { Hook = H; }

  //===--------------------------------------------------------------===//
  // Producer side.
  //===--------------------------------------------------------------===//

  /// Appends one access. \p Path is the producer's live call path,
  /// captured only when \p Sampled.
  void noteAccess(uint8_t Tid, uint64_t Ip, uint64_t Ea, uint8_t Size,
                  bool IsWrite, bool Sampled,
                  const std::vector<uint64_t> &Path) {
    if (!Sampled) {
      uint64_t Line = Ea >> LineShift;
      if (Collapse &&
          ((Ea + static_cast<uint64_t>(Size) - 1) >> LineShift) == Line) {
        // Run-length collapse: consecutive accesses by the same thread
        // to the same line extend the open record instead of costing a
        // slot. Spatially local loops collapse ~an entire line's worth
        // of accesses into one record.
        if (Last != nullptr && Line == LastLine && Tid == LastTid &&
            Last->Count != MaxRunLength) {
          ++Last->Count;
          return;
        }
        AccessRec *R = acquire(/*MidGroup=*/false);
        R->A = Line;
        R->Count = 1;
        R->Kind = RecRun;
        R->Size = Size;
        R->Tid = Tid;
        R->Flags = IsWrite;
        Last = R;
        LastLine = Line;
        LastTid = Tid;
        maybePublish();
        return;
      }
      AccessRec *R = acquire(/*MidGroup=*/false);
      R->A = Ea;
      R->B = Ip;
      R->Count = 0;
      R->Kind = RecExact;
      R->Size = Size;
      R->Tid = Tid;
      R->Flags = IsWrite;
      Last = nullptr; // An exact record must replay in order; no run
                      // may extend across it.
      maybePublish();
      return;
    }
    emitSampled(Tid, Ip, Ea, Size, IsWrite, Path);
  }

  /// Publishes everything and waits until the consumer has fully
  /// processed it. The producer calls this before any instruction that
  /// mutates state the consumer reads at delivery time (Alloc/Free and
  /// the DataObjectTable), and at end of phase.
  void sync() {
    Last = nullptr;
    Ring.publish();
    while (!Ring.drained()) {
      if (Hook)
        Hook->drainInline();
      else
        std::this_thread::yield();
    }
  }

  /// Publishes everything and marks the stream complete; the consumer
  /// thread exits once it has drained the remainder.
  void close() {
    Last = nullptr;
    Ring.publish();
    Closed.store(true, std::memory_order_release);
  }

  uint64_t producerStalls() const { return ProducerStalls; }
  /// Records published so far; after close(), every record produced.
  uint64_t recordsPublished() const { return Ring.published(); }
  size_t capacity() const { return Ring.capacity(); }

  //===--------------------------------------------------------------===//
  // Consumer side (used by SimPipeline).
  //===--------------------------------------------------------------===//

  size_t available() { return Ring.available(); }
  AccessRec &at(size_t I) { return Ring.at(I); }
  void pop(size_t N) { Ring.pop(N); }
  bool isClosed() const { return Closed.load(std::memory_order_acquire); }

private:
  /// Stages one slot, stalling on a full ring. Unless \p MidGroup, the
  /// staged prefix is published before waiting so the consumer can make
  /// progress; inside a sampled group the prefix before the group was
  /// already published and the group itself must stay invisible until
  /// complete.
  AccessRec *acquire(bool MidGroup) {
    AccessRec *R = Ring.push();
    if (R)
      return R;
    ++ProducerStalls;
    if (!MidGroup) {
      Last = nullptr;
      Ring.publish();
    }
    for (;;) {
      if (Hook)
        Hook->drainInline();
      else
        std::this_thread::yield();
      R = Ring.push();
      if (R)
        return R;
    }
  }

  void maybePublish() {
    // With an inline-drain hook there is no consumer waiting for data;
    // publishing lazily (on full, at sync) maximizes drain batch size.
    if (Hook)
      return;
    if (++Staged >= PublishBatch) {
      Staged = 0;
      Last = nullptr;
      Ring.publish();
    }
  }

  void emitSampled(uint8_t Tid, uint64_t Ip, uint64_t Ea, uint8_t Size,
                   bool IsWrite, const std::vector<uint64_t> &Path) {
    size_t Words = Path.size();
    if (2 + Words / 2 >= Ring.capacity())
      fatalError("access queue capacity too small for sampled call path");
    Last = nullptr;
    Ring.publish(); // Everything before the group.
    AccessRec *R = acquire(/*MidGroup=*/true);
    R->A = Ea;
    R->B = Ip;
    R->Count = static_cast<uint32_t>(Words);
    R->Kind = RecSampled;
    R->Size = Size;
    R->Tid = Tid;
    R->Flags = IsWrite;
    for (size_t I = 0; I < Words; I += 2) {
      AccessRec *P = acquire(/*MidGroup=*/true);
      P->A = Path[I];
      P->B = I + 1 < Words ? Path[I + 1] : 0;
      P->Count = 0;
      P->Kind = RecPath;
      P->Size = 0;
      P->Tid = Tid;
      P->Flags = 0;
    }
    Ring.publish(); // The whole group, atomically.
    Staged = 0;
  }

  support::SpscRing<AccessRec> Ring;
  unsigned LineShift;
  bool Collapse;
  AccessDrainHook *Hook = nullptr;

  // Producer-local state, on a line of its own.
  alignas(64) AccessRec *Last = nullptr; ///< Open run record (unpublished).
  uint64_t LastLine = 0;
  uint8_t LastTid = 0;
  unsigned Staged = 0;
  static constexpr unsigned PublishBatch = 256;
  uint64_t ProducerStalls = 0;

  // Consumer-polled; its own line.
  alignas(64) std::atomic<bool> Closed{false};
};

} // namespace runtime
} // namespace structslim

#endif // STRUCTSLIM_RUNTIME_ACCESSQUEUE_H
