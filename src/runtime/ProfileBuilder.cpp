//===- runtime/ProfileBuilder.cpp -----------------------------*- C++ -*-===//

#include "runtime/ProfileBuilder.h"

#include "support/MathUtil.h"

using namespace structslim;
using namespace structslim::runtime;

ProfileBuilder::ProfileBuilder(const analysis::CodeMap &CodeMap,
                               const mem::DataObjectTable &Objects,
                               uint32_t ThreadId, uint64_t SamplePeriod)
    : CodeMap(CodeMap), Objects(Objects) {
  P.ThreadId = ThreadId;
  P.SamplePeriod = SamplePeriod;
}

CallPathProvider::~CallPathProvider() = default;

void ProfileBuilder::onSample(const pmu::AddressSample &Sample) {
  if (Provider) {
    const std::vector<uint64_t> &Path = Provider->currentCallPath();
    attribute(Sample, Path.data(), Path.size(), /*WithContext=*/true);
  } else {
    attribute(Sample, nullptr, 0, /*WithContext=*/false);
  }
}

void ProfileBuilder::onSampleAt(const pmu::AddressSample &Sample,
                                const uint64_t *Path, size_t PathLen) {
  attribute(Sample, Path, PathLen, /*WithContext=*/Provider != nullptr);
}

void ProfileBuilder::attribute(const pmu::AddressSample &Sample,
                               const uint64_t *Path, size_t PathLen,
                               bool WithContext) {
  ++P.TotalSamples;
  P.TotalLatency += Sample.Latency;

  // Full-calling-context attribution: the call path at interrupt time
  // plus the sampled instruction itself.
  if (WithContext) {
    std::vector<uint64_t> Full(Path, Path + PathLen);
    Full.push_back(Sample.Ip);
    P.Contexts.attribute(P.Contexts.intern(Full), Sample.Latency);
  }

  // Data-centric attribution. Addresses outside tracked objects (stack,
  // freed memory) are not monitored, as in the paper.
  const mem::DataObject *Object = Objects.lookup(Sample.EffAddr);
  if (!Object) {
    P.UnattributedLatency += Sample.Latency;
    return;
  }

  uint32_t ObjectIndex = P.getOrCreateObject(Object->key());
  profile::ObjectAgg &Agg = P.Objects[ObjectIndex];
  if (Agg.Name.empty()) {
    Agg.Name = Object->Name;
    Agg.Start = Object->Start;
    Agg.Size = Object->Size;
  }
  ++Agg.SampleCount;
  Agg.LatencySum += Sample.Latency;

  // Code-centric attribution. Streams exist only inside loops
  // (Sec. 4.2.1); samples outside loops still feed the object totals
  // above.
  const analysis::CodeSite &Site = CodeMap.lookup(Sample.Ip);
  if (!Site.Valid || Site.LoopId < 0)
    return;

  profile::StreamRecord &Stream = P.getOrCreateStream(Sample.Ip, ObjectIndex);
  bool Fresh = Stream.SampleCount == 0;
  uint32_t StreamIndex = 0;
  // getOrCreateStream may append; recover the index from the vector.
  StreamIndex = static_cast<uint32_t>(&Stream - P.Streams.data());

  if (Fresh) {
    Stream.LoopId = Site.LoopId;
    Stream.Line = Site.Line;
    Stream.ObjectStart = Object->Start;
    Stream.RepAddr = Sample.EffAddr;
    Stream.LastAddr = Sample.EffAddr;
  }
  ++Stream.SampleCount;
  Stream.LatencySum += Sample.Latency;
  Stream.LevelSamples[static_cast<size_t>(Sample.Served)] += 1;
  Stream.TlbMissSamples += Sample.TlbMiss ? 1 : 0;
  if (Sample.AccessSize > Stream.AccessSize)
    Stream.AccessSize = Sample.AccessSize;

  // If the heap object was freed and re-allocated elsewhere, restart
  // address tracking for the new instance: differences across
  // instances are meaningless for the stride.
  if (UniqueAddrs.size() <= StreamIndex)
    UniqueAddrs.resize(StreamIndex + 1);
  support::FlatU64Set &Seen = UniqueAddrs[StreamIndex];

  if (Stream.ObjectStart != Object->Start) {
    Stream.ObjectStart = Object->Start;
    Stream.RepAddr = Sample.EffAddr;
    Stream.LastAddr = Sample.EffAddr;
    Seen.clear();
    Seen.insert(Sample.EffAddr);
    return;
  }

  if (Fresh) {
    Seen.insert(Sample.EffAddr);
    Stream.UniqueAddrCount = 1;
    return;
  }
  if (!Seen.insert(Sample.EffAddr))
    return; // Duplicate address: no new stride information (Eq. 2 uses
            // unique addresses).
  uint64_t Diff = Sample.EffAddr > Stream.LastAddr
                      ? Sample.EffAddr - Stream.LastAddr
                      : Stream.LastAddr - Sample.EffAddr;
  Stream.StrideGcd = gcd64(Stream.StrideGcd, Diff);
  Stream.LastAddr = Sample.EffAddr;
  Stream.UniqueAddrCount = Seen.size();
}

profile::Profile ProfileBuilder::take() {
  UniqueAddrs.clear();
  return std::move(P);
}
