//===- profile/Profile.h - Per-thread execution profiles -------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profile each monitored thread writes and the offline analyzer
/// consumes. A profile holds
///   - per-data-object latency aggregates (for the hot-data metric l_d,
///     paper Eq. 1),
///   - per-stream records: one per (instruction, data object) pair
///     observed inside a loop (paper Sec. 4.2.1), carrying the running
///     GCD of adjacent sampled-address differences (Eqs. 2-3), the
///     unique-address count, a representative address for the offset
///     computation (Eq. 6), and latency sums split by serving level.
///
/// Profiles from different threads merge by object key and by
/// (IP, object key): latencies add, strides combine by GCD — exactly
/// the per-profile aggregation Sec. 4.4 describes.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_PROFILE_PROFILE_H
#define STRUCTSLIM_PROFILE_PROFILE_H

#include "profile/Cct.h"
#include "support/FlatHash.h"

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace structslim {
namespace profile {

/// Latency and sample aggregates for one data object (keyed by the
/// cross-thread identity: symbol name or name + allocation path).
struct ObjectAgg {
  std::string Key;
  std::string Name;
  uint64_t Start = 0; ///< Base address when profiled.
  uint64_t Size = 0;  ///< Allocated size in bytes.
  uint64_t SampleCount = 0;
  uint64_t LatencySum = 0;
};

/// One stream: a memory instruction referencing one data object inside
/// a loop.
struct StreamRecord {
  uint64_t Ip = 0;
  uint32_t ObjectIndex = 0; ///< Index into Profile::Objects.
  int32_t LoopId = -1;      ///< Global loop id from the CodeMap.
  uint32_t Line = 0;
  uint8_t AccessSize = 0;   ///< Widest access seen (bytes).
  uint64_t SampleCount = 0;
  uint64_t LatencySum = 0;
  uint64_t UniqueAddrCount = 0;
  /// GCD of address differences between consecutively sampled unique
  /// addresses (0 until two unique addresses were seen).
  uint64_t StrideGcd = 0;
  uint64_t RepAddr = 0;     ///< First sampled address (for Eq. 6).
  uint64_t LastAddr = 0;    ///< Most recent unique address.
  uint64_t ObjectStart = 0; ///< Object base, for the offset computation.
  std::array<uint64_t, 4> LevelSamples{}; ///< Indexed by cache::MemLevel.
  uint64_t TlbMissSamples = 0;
};

/// Assigns u32 ids to object key strings, so a whole merge batch
/// hashes each distinct key string exactly once (at intern time) and
/// every subsequent merge matches objects by id. Not thread-safe: the
/// reduction tree interns each profile as it folds it in.
class ObjectKeyInterner {
public:
  /// The id for \p Key, assigning the next free one on first use.
  uint32_t idOf(const std::string &Key) {
    auto [It, Inserted] =
        Ids.try_emplace(Key, static_cast<uint32_t>(Ids.size()));
    return It->second;
  }

  /// Upper bound (exclusive) on every id handed out so far.
  size_t universe() const { return Ids.size(); }

private:
  std::unordered_map<std::string, uint32_t> Ids;
};

/// Reusable per-merge-chain scratch for the batched (interned) merge:
/// an epoch-tagged global-id -> local-object-index table plus the remap
/// vector, so the steady-state merge allocates nothing and never
/// hashes a string. Epochs make stale contents from earlier merges
/// harmless.
class MergeScratch {
  friend class Profile;
  std::vector<uint32_t> Local;
  std::vector<uint64_t> LocalEpoch;
  uint64_t Epoch = 0;
  std::vector<uint32_t> Remap;
};

/// A complete per-thread (or merged) profile.
class Profile {
public:
  // --- Metadata ---------------------------------------------------------
  uint32_t ThreadId = 0;
  uint64_t SamplePeriod = 0;
  uint64_t TotalSamples = 0;
  uint64_t TotalLatency = 0;       ///< Over all samples (Eq. 1 denominator).
  uint64_t UnattributedLatency = 0; ///< Samples outside any data object.
  uint64_t Instructions = 0;       ///< Executed instruction count.
  uint64_t MemoryAccesses = 0;
  uint64_t Cycles = 0;             ///< Simulated execution cycles.
  // Decoupled-pipeline health counters (runtime/SimPipeline), zero for
  // inline-simulation runs. Host-timing dependent: serialized as a
  // schema-additive v3 meta extension, but stamped only onto one dumped
  // shard per run (runtime::dumpProfiles; the merge then reproduces run
  // totals), so in-memory profiles keep them zero and their v3 bytes
  // stay comparable in the bit-identity tests.
  uint64_t QueueDepthMax = 0;   ///< Deepest drain batch (records); merge: max.
  uint64_t ProducerStalls = 0;  ///< Ring-full backpressure events; merge: sum.
  uint64_t ConsumerBatches = 0; ///< Drain batches processed; merge: sum.
  /// Access-queue capacity in records; zero for inline runs and
  /// pre-extension files. Merge: max.
  uint64_t PipelineCapacity = 0;

  // --- Content ----------------------------------------------------------
  std::vector<ObjectAgg> Objects;
  std::vector<StreamRecord> Streams;
  /// Full-calling-context attribution of sampled latency (HPCToolkit
  /// style); leaves are sampled instructions.
  CallContextTree Contexts;

  /// Returns the index for object \p Key, creating the aggregate on
  /// first use.
  uint32_t getOrCreateObject(const std::string &Key);

  /// Returns the stream record for (\p Ip, \p ObjectIndex), creating it
  /// on first use.
  StreamRecord &getOrCreateStream(uint64_t Ip, uint32_t ObjectIndex);

  /// Finds an object aggregate by key; nullptr when absent.
  const ObjectAgg *findObject(const std::string &Key) const;

  /// Merges \p Other into this profile (paper Sec. 4.4): object
  /// aggregates add; streams match on (IP, object key); stream strides
  /// combine by GCD, including the cross-profile difference of
  /// representative addresses when both profiles saw the same object
  /// instance.
  void merge(const Profile &Other);

  /// The batched variant the reduction tree uses: identical result
  /// bytes, but objects match by interned u32 id through \p Scratch's
  /// epoch-tagged table instead of per-key string hashing. Requires
  /// internObjectKeys() on both sides (falls back to the string path
  /// otherwise, so it is always safe to call).
  void merge(const Profile &Other, MergeScratch &Scratch);

  /// Fills ObjectKeyIds from \p Interner for every current object,
  /// discarding ids from any earlier batch. Call once per loaded shard
  /// before a batched reduction; merges maintain the ids incrementally.
  void internObjectKeys(ObjectKeyInterner &Interner);

  /// Marks the lookup indices stale after bulk deserialization. They
  /// rebuild lazily on first use, so a shard that only ever acts as a
  /// merge *source* never pays for an index build at all.
  void markUnindexed();

  /// Re-establishes the lookup indices after bulk loading (the eager
  /// form of markUnindexed; kept for callers that want the build cost
  /// now rather than on first lookup).
  void reindex();

private:
  /// Lazy index rebuilds (see markUnindexed). The flags cover the two
  /// maps independently: a batched merge destination needs only the
  /// stream index, so it never rebuilds the by-key string map.
  void ensureObjectIndex() const;
  void ensureStreamIndex() const;
  /// Phase 1 of a merge: computes Other-object-index -> our-object-
  /// index into \p Remap, appending objects missing on our side.
  void remapObjects(const Profile &Other, std::vector<uint32_t> &Remap);
  void remapObjectsBatched(const Profile &Other, MergeScratch &Scratch);
  /// Phase 2: metadata, contexts, object aggregates and stream records,
  /// given the object remap. Shared by both merge paths — this is what
  /// makes them bit-identical by construction.
  void mergeBody(const Profile &Other, const std::vector<uint32_t> &Remap);

  mutable std::unordered_map<std::string, uint32_t> ObjectIndexByKey;
  /// (Ip, ObjectIndex) -> index into Streams. Flat open addressing:
  /// the merge hot loop does one probe per incoming stream record with
  /// no allocation and no string or struct-key hashing.
  mutable support::FlatPairMap StreamIndex;
  /// False after markUnindexed until the corresponding map rebuilt.
  mutable bool ObjectsIndexed = true;
  mutable bool StreamsIndexed = true;
  /// Interned key id per object (parallel to Objects) once
  /// internObjectKeys ran; empty on profiles outside a merge batch.
  std::vector<uint32_t> ObjectKeyIds;
  /// Exclusive upper bound over ObjectKeyIds (tracked so scratch
  /// tables size in O(1) instead of scanning).
  uint32_t KeyIdBound = 0;
};

} // namespace profile
} // namespace structslim

#endif // STRUCTSLIM_PROFILE_PROFILE_H
