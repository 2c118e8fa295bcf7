//===- profile/Profile.cpp ------------------------------------*- C++ -*-===//

#include "profile/Profile.h"

#include "support/MathUtil.h"

#include <algorithm>
#include <cassert>

using namespace structslim;
using namespace structslim::profile;

uint32_t Profile::getOrCreateObject(const std::string &Key) {
  ensureObjectIndex();
  auto [It, Inserted] = ObjectIndexByKey.try_emplace(
      Key, static_cast<uint32_t>(Objects.size()));
  if (Inserted) {
    ObjectAgg Agg;
    Agg.Key = Key;
    Objects.push_back(std::move(Agg));
  }
  return It->second;
}

StreamRecord &Profile::getOrCreateStream(uint64_t Ip, uint32_t ObjectIndex) {
  ensureStreamIndex();
  bool Inserted = false;
  uint32_t Index = StreamIndex.getOrInsert(
      Ip, ObjectIndex, static_cast<uint32_t>(Streams.size()), Inserted);
  if (Inserted) {
    StreamRecord Record;
    Record.Ip = Ip;
    Record.ObjectIndex = ObjectIndex;
    Streams.push_back(Record);
  }
  return Streams[Index];
}

const ObjectAgg *Profile::findObject(const std::string &Key) const {
  ensureObjectIndex();
  auto It = ObjectIndexByKey.find(Key);
  return It == ObjectIndexByKey.end() ? nullptr : &Objects[It->second];
}

void Profile::internObjectKeys(ObjectKeyInterner &Interner) {
  // Always re-intern: a profile may carry ids from an earlier batch's
  // interner (a merged result fed into a second reduction), and those
  // are meaningless against this one.
  ObjectKeyIds.clear();
  ObjectKeyIds.reserve(Objects.size());
  for (const ObjectAgg &O : Objects)
    ObjectKeyIds.push_back(Interner.idOf(O.Key));
  KeyIdBound = static_cast<uint32_t>(Interner.universe());
}

void Profile::remapObjects(const Profile &Other,
                           std::vector<uint32_t> &Remap) {
  Remap.resize(Other.Objects.size());
  for (size_t I = 0; I != Other.Objects.size(); ++I)
    Remap[I] = getOrCreateObject(Other.Objects[I].Key);
  // The string path invalidates any interned ids (new objects were
  // appended without them); drop them so a later batched merge
  // re-interns instead of trusting a stale parallel array.
  if (!ObjectKeyIds.empty() && ObjectKeyIds.size() != Objects.size())
    ObjectKeyIds.clear();
}

void Profile::remapObjectsBatched(const Profile &Other,
                                  MergeScratch &Scratch) {
  uint32_t Bound = KeyIdBound > Other.KeyIdBound ? KeyIdBound
                                                 : Other.KeyIdBound;
  if (Scratch.Local.size() < Bound) {
    Scratch.Local.resize(Bound);
    Scratch.LocalEpoch.resize(Bound, 0);
  }
  ++Scratch.Epoch;
  KeyIdBound = Bound;

  // Seed the epoch table with our current objects: two array writes
  // per object instead of one string hash per incoming object.
  for (size_t I = 0; I != Objects.size(); ++I) {
    uint32_t G = ObjectKeyIds[I];
    Scratch.Local[G] = static_cast<uint32_t>(I);
    Scratch.LocalEpoch[G] = Scratch.Epoch;
  }

  Scratch.Remap.resize(Other.Objects.size());
  for (size_t I = 0; I != Other.Objects.size(); ++I) {
    uint32_t G = Other.ObjectKeyIds[I];
    uint32_t Local;
    if (Scratch.LocalEpoch[G] == Scratch.Epoch) {
      Local = Scratch.Local[G];
    } else {
      Local = static_cast<uint32_t>(Objects.size());
      ObjectAgg Agg;
      Agg.Key = Other.Objects[I].Key;
      // Keep the by-key map coherent when it exists: one string hash
      // per *new* object. A lazily-unindexed destination skips even
      // that — the rebuild covers appended objects.
      if (ObjectsIndexed)
        ObjectIndexByKey.try_emplace(Agg.Key, Local);
      Objects.push_back(std::move(Agg));
      ObjectKeyIds.push_back(G);
      Scratch.Local[G] = Local;
      Scratch.LocalEpoch[G] = Scratch.Epoch;
    }
    Scratch.Remap[I] = Local;
  }
}

void Profile::mergeBody(const Profile &Other,
                        const std::vector<uint32_t> &Remap) {
  TotalSamples += Other.TotalSamples;
  TotalLatency += Other.TotalLatency;
  UnattributedLatency += Other.UnattributedLatency;
  Instructions += Other.Instructions;
  MemoryAccesses += Other.MemoryAccesses;
  Cycles += Other.Cycles; // Aggregate work across threads.
  QueueDepthMax = std::max(QueueDepthMax, Other.QueueDepthMax);
  ProducerStalls += Other.ProducerStalls;
  ConsumerBatches += Other.ConsumerBatches;
  PipelineCapacity = std::max(PipelineCapacity, Other.PipelineCapacity);
  if (SamplePeriod == 0)
    SamplePeriod = Other.SamplePeriod;
  Contexts.merge(Other.Contexts);

  for (size_t I = 0; I != Other.Objects.size(); ++I) {
    const ObjectAgg &Theirs = Other.Objects[I];
    ObjectAgg &Ours = Objects[Remap[I]];
    if (Ours.Name.empty()) {
      Ours.Name = Theirs.Name;
      Ours.Start = Theirs.Start;
      Ours.Size = Theirs.Size;
    }
    Ours.SampleCount += Theirs.SampleCount;
    Ours.LatencySum += Theirs.LatencySum;
  }

  ensureStreamIndex();
  StreamIndex.reserve(Streams.size() + Other.Streams.size());
  for (const StreamRecord &Theirs : Other.Streams) {
    StreamRecord &Ours = getOrCreateStream(Theirs.Ip, Remap[Theirs.ObjectIndex]);
    bool Fresh = Ours.SampleCount == 0;
    if (Fresh) {
      uint32_t Object = Ours.ObjectIndex;
      Ours = Theirs;
      Ours.ObjectIndex = Object;
      continue;
    }
    assert(Ours.Ip == Theirs.Ip && "stream key mismatch");
    Ours.SampleCount += Theirs.SampleCount;
    Ours.LatencySum += Theirs.LatencySum;
    Ours.UniqueAddrCount += Theirs.UniqueAddrCount;
    if (Ours.AccessSize < Theirs.AccessSize)
      Ours.AccessSize = Theirs.AccessSize;
    for (size_t L = 0; L != Ours.LevelSamples.size(); ++L)
      Ours.LevelSamples[L] += Theirs.LevelSamples[L];
    Ours.TlbMissSamples += Theirs.TlbMissSamples;
    // Strides combine by GCD (Sec. 4.4 adapts Eq. 5 across profiles).
    Ours.StrideGcd = gcd64(Ours.StrideGcd, Theirs.StrideGcd);
    // Two samples of the same stream on the same object instance also
    // differ by a stride multiple, so their representative addresses
    // sharpen the GCD further.
    if (Ours.ObjectStart == Theirs.ObjectStart && Ours.RepAddr &&
        Theirs.RepAddr) {
      uint64_t Diff = Ours.RepAddr > Theirs.RepAddr
                          ? Ours.RepAddr - Theirs.RepAddr
                          : Theirs.RepAddr - Ours.RepAddr;
      if (Diff != 0)
        Ours.StrideGcd = gcd64(Ours.StrideGcd, Diff);
    }
  }
}

void Profile::merge(const Profile &Other) {
  std::vector<uint32_t> Remap;
  remapObjects(Other, Remap);
  mergeBody(Other, Remap);
}

void Profile::merge(const Profile &Other, MergeScratch &Scratch) {
  // Batched matching needs interned ids on both sides; a profile that
  // never saw internObjectKeys (or was merged through the string path)
  // takes the compatible slow path instead.
  if (ObjectKeyIds.size() != Objects.size() ||
      Other.ObjectKeyIds.size() != Other.Objects.size()) {
    merge(Other);
    return;
  }
  remapObjectsBatched(Other, Scratch);
  mergeBody(Other, Scratch.Remap);
}

void Profile::markUnindexed() {
  ObjectIndexByKey.clear();
  StreamIndex.clear();
  ObjectKeyIds.clear();
  KeyIdBound = 0;
  ObjectsIndexed = false;
  StreamsIndexed = false;
}

void Profile::ensureObjectIndex() const {
  if (ObjectsIndexed)
    return;
  ObjectIndexByKey.clear();
  for (size_t I = 0; I != Objects.size(); ++I)
    ObjectIndexByKey[Objects[I].Key] = static_cast<uint32_t>(I);
  ObjectsIndexed = true;
}

void Profile::ensureStreamIndex() const {
  if (StreamsIndexed)
    return;
  StreamIndex.clear();
  StreamIndex.reserve(Streams.size());
  bool Inserted = false;
  for (size_t I = 0; I != Streams.size(); ++I)
    StreamIndex.getOrInsert(Streams[I].Ip, Streams[I].ObjectIndex,
                            static_cast<uint32_t>(I), Inserted);
  StreamsIndexed = true;
}

void Profile::reindex() {
  markUnindexed();
  ensureObjectIndex();
  ensureStreamIndex();
}
