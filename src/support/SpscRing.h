//===- support/SpscRing.h - Lock-free single-producer ring -----*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded lock-free single-producer/single-consumer ring buffer, the
/// transport of the decoupled sample pipeline (ROADMAP item 4). The
/// design follows the classic Lamport queue with two refinements the
/// pipeline depends on:
///
///  - *batch publish*: the producer stages any number of slots with
///    push() and makes them visible with one release-store in
///    publish(). Multi-slot records (a sampled access followed by its
///    call-path words) therefore never appear torn to the consumer —
///    it either sees the whole group or none of it.
///  - *cache-line padding*: the producer-owned and consumer-owned
///    control words live on separate cache lines so the two sides do
///    not false-share; each side also keeps a cached copy of the other
///    side's index and refreshes it only when the cheap check fails.
///
/// Memory ordering is the standard acquire/release pairing: the
/// producer's release-store of Tail makes the staged slots visible, the
/// consumer's release-store of Head returns them. Both stores compile
/// to plain stores on x86.
///
/// Capacity is rounded up to a power of two. The ring never allocates
/// after construction and push() never blocks — backpressure policy
/// (spin, yield, or drain inline) belongs to the caller.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_SUPPORT_SPSCRING_H
#define STRUCTSLIM_SUPPORT_SPSCRING_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace structslim {
namespace support {

template <typename T> class SpscRing {
public:
  /// \p Capacity is rounded up to a power of two (minimum 1).
  explicit SpscRing(size_t Capacity) {
    size_t Rounded = 1;
    while (Rounded < Capacity)
      Rounded *= 2;
    Buf.resize(Rounded);
    Mask = Rounded - 1;
  }

  size_t capacity() const { return Buf.size(); }

  //===--------------------------------------------------------------===//
  // Producer side. All members here are touched by exactly one thread.
  //===--------------------------------------------------------------===//

  /// Stages one slot for writing, or returns null when the ring is
  /// full. The slot becomes visible to the consumer only at the next
  /// publish().
  T *push() {
    if (Tail - CachedHead == Buf.size()) {
      CachedHead = Head.load(std::memory_order_acquire);
      if (Tail - CachedHead == Buf.size())
        return nullptr;
    }
    return &Buf[Tail++ & Mask];
  }

  /// Makes every slot staged since the last publish() visible to the
  /// consumer, atomically.
  void publish() { PubTail.store(Tail, std::memory_order_release); }

  /// Slots published since construction.
  uint64_t published() const {
    return PubTail.load(std::memory_order_relaxed);
  }

  /// Slots staged but not yet published.
  size_t unpublished() const {
    return Tail - PubTail.load(std::memory_order_relaxed);
  }

  /// True when every published slot has been consumed (producer view).
  bool drained() {
    return Head.load(std::memory_order_acquire) ==
           PubTail.load(std::memory_order_relaxed);
  }

  //===--------------------------------------------------------------===//
  // Consumer side.
  //===--------------------------------------------------------------===//

  /// Number of published slots ready to consume.
  size_t available() {
    CachedTail = PubTail.load(std::memory_order_acquire);
    return CachedTail - ConsHead;
  }

  /// The \p I-th pending slot (0 <= I < available()).
  T &at(size_t I) { return Buf[(ConsHead + I) & Mask]; }

  /// Returns \p N consumed slots to the producer.
  void pop(size_t N) {
    ConsHead += N;
    Head.store(ConsHead, std::memory_order_release);
  }

private:
  std::vector<T> Buf;
  size_t Mask = 0;

  // Producer-owned line: local tail plus cached consumer index.
  alignas(64) uint64_t Tail = 0;
  uint64_t CachedHead = 0;

  // Published tail: written by the producer, read by the consumer.
  alignas(64) std::atomic<uint64_t> PubTail{0};

  // Consumer-owned line: local head plus cached published tail.
  alignas(64) uint64_t ConsHead = 0;
  uint64_t CachedTail = 0;

  // Consumed head: written by the consumer, read by the producer.
  alignas(64) std::atomic<uint64_t> Head{0};
};

} // namespace support
} // namespace structslim

#endif // STRUCTSLIM_SUPPORT_SPSCRING_H
