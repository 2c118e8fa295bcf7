//===- profile/ProfileIO.cpp ----------------------------------*- C++ -*-===//

#include "profile/ProfileIO.h"

#include "profile/Profile.h"
#include "support/Checksum.h"
#include "support/FaultInjection.h"
#include "support/ReadFile.h"
#include "support/VarInt.h"

#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

using namespace structslim;
using namespace structslim::profile;

static constexpr std::string_view MagicV3 = "structslim-profile v3\n";
static constexpr std::string_view VersionPrefix = "structslim-profile v";
static constexpr std::string_view EndMarkerV3 = "end v3\n";

// The sections of the binary v3 layout, in payload order. Every v3
// file carries exactly these five.
namespace {
enum SectionV3 : unsigned {
  V3Meta = 0,
  V3Strtab,
  V3Object,
  V3Stream,
  V3Cct,
  NumV3Sections
};
} // namespace
static constexpr const char *V3SectionNames[NumV3Sections] = {
    "meta", "strtab", "object", "stream", "cct"};

/// Bytes of the fixed binary header after the v3 magic line: a section
/// count, per-section {bytes, records, crc32}, and a CRC over all of
/// the preceding header bytes.
static constexpr size_t V3SectionEntryBytes = 8 + 8 + 4;
static constexpr size_t V3HeaderBytes =
    4 + NumV3Sections * V3SectionEntryBytes + 4;

//===----------------------------------------------------------------------===//
// Writing
//===----------------------------------------------------------------------===//

namespace {
inline void appendLE32(std::string &Out, uint32_t V) {
  for (unsigned I = 0; I != 4; ++I)
    Out += static_cast<char>((V >> (8 * I)) & 0xff);
}
inline void appendLE64(std::string &Out, uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    Out += static_cast<char>((V >> (8 * I)) & 0xff);
}
inline uint32_t readLE32(const char *P) {
  uint32_t V = 0;
  for (unsigned I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(static_cast<uint8_t>(P[I])) << (8 * I);
  return V;
}
inline uint64_t readLE64(const char *P) {
  uint64_t V = 0;
  for (unsigned I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(static_cast<uint8_t>(P[I])) << (8 * I);
  return V;
}

/// Signed delta between two unsigned values under wrapping arithmetic;
/// the decoder adds it back with the same wrap, so every (A, B) pair
/// round-trips exactly.
inline int64_t wrapDelta(uint64_t A, uint64_t B) {
  return static_cast<int64_t>(A - B);
}
} // namespace

std::string structslim::profile::profileToString(const Profile &P) {
  using support::appendSVarint;
  using support::appendVarint;

  // String table: keys and names in first-use order, deduplicated.
  // string_view keys into the profile's own strings — stable for the
  // duration of serialization.
  std::unordered_map<std::string_view, uint32_t> StringIds;
  std::vector<std::string_view> Strings;
  auto InternString = [&](const std::string &S) {
    auto [It, Inserted] = StringIds.try_emplace(
        std::string_view(S), static_cast<uint32_t>(Strings.size()));
    if (Inserted)
      Strings.push_back(S);
    return It->second;
  };

  std::string Payload[NumV3Sections];
  uint64_t Counts[NumV3Sections] = {};

  // meta: one record of eight varints.
  {
    std::string &Out = Payload[V3Meta];
    appendVarint(Out, P.ThreadId);
    appendVarint(Out, P.SamplePeriod);
    appendVarint(Out, P.TotalSamples);
    appendVarint(Out, P.TotalLatency);
    appendVarint(Out, P.UnattributedLatency);
    appendVarint(Out, P.Instructions);
    appendVarint(Out, P.MemoryAccesses);
    appendVarint(Out, P.Cycles);
    Counts[V3Meta] = 1;
  }

  // object: string ids + varint aggregates (interning populates the
  // string table as a side effect, so it serializes before strtab's
  // payload is assembled but after its contents are final).
  {
    std::string &Out = Payload[V3Object];
    Out.reserve(12 * P.Objects.size());
    for (const ObjectAgg &O : P.Objects) {
      appendVarint(Out, InternString(O.Key));
      appendVarint(Out, InternString(O.Name));
      appendVarint(Out, O.Start);
      appendVarint(Out, O.Size);
      appendVarint(Out, O.SampleCount);
      appendVarint(Out, O.LatencySum);
    }
    Counts[V3Object] = P.Objects.size();
  }

  // strtab: length-prefixed bytes, id order.
  {
    std::string &Out = Payload[V3Strtab];
    for (std::string_view S : Strings) {
      appendVarint(Out, S.size());
      Out.append(S.data(), S.size());
    }
    Counts[V3Strtab] = Strings.size();
  }

  // stream: delta + zigzag over the near-sorted fields. IPs ascend
  // (streams are created in code order), object bases repeat in runs,
  // and addresses cluster around their object base, so the deltas are
  // small and the varints short.
  {
    std::string &Out = Payload[V3Stream];
    Out.reserve(24 * P.Streams.size());
    uint64_t PrevIp = 0, PrevObjectStart = 0;
    for (const StreamRecord &S : P.Streams) {
      appendSVarint(Out, wrapDelta(S.Ip, PrevIp));
      appendVarint(Out, S.ObjectIndex);
      appendSVarint(Out, S.LoopId);
      appendVarint(Out, S.Line);
      appendVarint(Out, S.AccessSize);
      appendVarint(Out, S.SampleCount);
      appendVarint(Out, S.LatencySum);
      appendVarint(Out, S.UniqueAddrCount);
      appendVarint(Out, S.StrideGcd);
      appendSVarint(Out, wrapDelta(S.ObjectStart, PrevObjectStart));
      appendSVarint(Out, wrapDelta(S.RepAddr, S.ObjectStart));
      appendSVarint(Out, wrapDelta(S.LastAddr, S.RepAddr));
      for (uint64_t L : S.LevelSamples)
        appendVarint(Out, L);
      appendVarint(Out, S.TlbMissSamples);
      PrevIp = S.Ip;
      PrevObjectStart = S.ObjectStart;
    }
    Counts[V3Stream] = P.Streams.size();
  }

  // cct: per non-root node, parent-id and IP deltas against the
  // previous node (ids are appended in creation order, so parents
  // cluster), plus the two metrics.
  {
    std::string &Out = Payload[V3Cct];
    Out.reserve(8 * P.Contexts.size());
    uint64_t PrevParent = 0, PrevIp = 0;
    for (uint32_t I = 1; I < P.Contexts.size(); ++I) {
      const CallContextTree::Node &N = P.Contexts.node(I);
      appendSVarint(Out, wrapDelta(N.Parent, PrevParent));
      appendSVarint(Out, wrapDelta(N.Ip, PrevIp));
      appendVarint(Out, N.LatencySum);
      appendVarint(Out, N.SampleCount);
      PrevParent = N.Parent;
      PrevIp = N.Ip;
    }
    Counts[V3Cct] = P.Contexts.size() - 1;
  }

  // Assemble: magic line, fixed header, payloads, end marker.
  size_t PayloadBytes = 0;
  for (const std::string &S : Payload)
    PayloadBytes += S.size();
  std::string Out;
  Out.reserve(32 + V3HeaderBytes + PayloadBytes + 8);
  Out += MagicV3;
  size_t HeaderStart = Out.size();
  appendLE32(Out, NumV3Sections);
  for (unsigned S = 0; S != NumV3Sections; ++S) {
    appendLE64(Out, Payload[S].size());
    appendLE64(Out, Counts[S]);
    appendLE32(Out, support::crc32(Payload[S].data(), Payload[S].size()));
  }
  appendLE32(Out, support::crc32(Out.data() + HeaderStart,
                                 Out.size() - HeaderStart));
  for (const std::string &S : Payload)
    Out += S;
  Out += EndMarkerV3;
  return Out;
}

void structslim::profile::writeProfile(const Profile &P, std::ostream &OS) {
  std::string Out = profileToString(P);
  OS.write(Out.data(), static_cast<std::streamsize>(Out.size()));
}

//===----------------------------------------------------------------------===//
// Reading
//===----------------------------------------------------------------------===//

static std::optional<Profile> failParse(std::string *Error,
                                        const std::string &Message) {
  if (Error)
    *Error = Message;
  return std::nullopt;
}

namespace {
/// The decoded fixed header: a byte-size/record-count/CRC triple per
/// section.
struct V3Header {
  uint64_t Bytes[NumV3Sections] = {};
  uint64_t Records[NumV3Sections] = {};
  uint32_t Crc[NumV3Sections] = {};
};
} // namespace

static std::optional<Profile> readProfileV3(std::string_view Data,
                                            std::string *Error) {
  // Data starts after the magic line. The section count comes first
  // and must be 5: a shard with any other count (the retired
  // bounded-sampling layer wrote a sixth section) fails by name. Then
  // the header's own CRC gates every size field, so all later
  // arithmetic works on trusted values.
  size_t EndLen = EndMarkerV3.size();
  if (Data.size() < 4)
    return failParse(Error, "truncated profile (missing end marker)");
  const char *H = Data.data();
  uint32_t SectionCount = readLE32(H);
  if (SectionCount != NumV3Sections)
    return failParse(Error, "unsupported v3 section count " +
                                std::to_string(SectionCount) +
                                " (expected 5)");
  if (Data.size() < V3HeaderBytes + EndLen)
    return failParse(Error, "truncated profile (missing end marker)");
  uint32_t StoredHeaderCrc = readLE32(H + V3HeaderBytes - 4);
  if (support::crc32(H, V3HeaderBytes - 4) != StoredHeaderCrc)
    return failParse(Error, "header checksum mismatch");
  V3Header Header;
  uint64_t PayloadBytes = 0;
  for (unsigned S = 0; S != NumV3Sections; ++S) {
    const char *E = H + 4 + S * V3SectionEntryBytes;
    Header.Bytes[S] = readLE64(E);
    Header.Records[S] = readLE64(E + 8);
    Header.Crc[S] = readLE32(E + 16);
    PayloadBytes += Header.Bytes[S];
  }

  uint64_t Expected = V3HeaderBytes + PayloadBytes + EndLen;
  if (Data.size() < Expected || PayloadBytes > Data.size())
    return failParse(Error, "truncated profile (missing end marker)");
  if (Data.size() > Expected)
    return failParse(Error, "trailing data after end marker");
  if (Data.substr(Data.size() - EndLen) != EndMarkerV3)
    return failParse(Error, "truncated profile (missing end marker)");

  // Slice and checksum every section before decoding anything.
  std::string_view Slice[NumV3Sections];
  size_t Offset = V3HeaderBytes;
  for (unsigned S = 0; S != NumV3Sections; ++S) {
    Slice[S] = Data.substr(Offset, Header.Bytes[S]);
    Offset += Header.Bytes[S];
    if (support::crc32(Slice[S].data(), Slice[S].size()) != Header.Crc[S])
      return failParse(Error, "section '" + std::string(V3SectionNames[S]) +
                                  "' checksum mismatch");
  }

  auto SectionFail = [&](unsigned S, const char *What) {
    return failParse(Error, "section '" + std::string(V3SectionNames[S]) +
                                "' " + What);
  };

  Profile P;

  // meta: exactly one record.
  if (Header.Records[V3Meta] != 1)
    return failParse(Error, "profile has no meta record");
  {
    support::VarintReader R(Slice[V3Meta].data(),
                            Slice[V3Meta].data() + Slice[V3Meta].size());
    uint64_t ThreadId = R.readVarint();
    P.SamplePeriod = R.readVarint();
    P.TotalSamples = R.readVarint();
    P.TotalLatency = R.readVarint();
    P.UnattributedLatency = R.readVarint();
    P.Instructions = R.readVarint();
    P.MemoryAccesses = R.readVarint();
    P.Cycles = R.readVarint();
    if (R.ok() && !R.atEnd()) {
      // Older writers appended three decoupled-pipeline counters, then
      // a fourth (the queue capacity): host-timing diagnostics that no
      // longer have a home in a profile. Skip them, so 11- and 12-field
      // records still decode.
      for (unsigned Field = 0; Field != 3; ++Field)
        R.readVarint();
      if (R.ok() && !R.atEnd())
        R.readVarint();
    }
    if (!R.ok() || ThreadId > 0xffffffffull)
      return SectionFail(V3Meta, "record malformed");
    if (!R.atEnd())
      return SectionFail(V3Meta, "record count mismatch");
    P.ThreadId = static_cast<uint32_t>(ThreadId);
  }

  // strtab: length-prefixed strings.
  std::vector<std::string_view> Strings;
  {
    Strings.reserve(Header.Records[V3Strtab]);
    support::VarintReader R(Slice[V3Strtab].data(),
                            Slice[V3Strtab].data() + Slice[V3Strtab].size());
    for (uint64_t I = 0; I != Header.Records[V3Strtab]; ++I) {
      uint64_t Len = R.readVarint();
      if (!R.ok() || Len > R.remaining())
        return SectionFail(V3Strtab, "record malformed");
      const char *Bytes = R.readBytes(Len);
      Strings.push_back(std::string_view(Bytes, Len));
    }
    if (!R.atEnd())
      return SectionFail(V3Strtab, "record count mismatch");
  }

  // object: string ids + aggregates.
  {
    P.Objects.reserve(Header.Records[V3Object]);
    support::VarintReader R(Slice[V3Object].data(),
                            Slice[V3Object].data() + Slice[V3Object].size());
    for (uint64_t I = 0; I != Header.Records[V3Object]; ++I) {
      uint64_t KeyId = R.readVarint();
      uint64_t NameId = R.readVarint();
      ObjectAgg O;
      O.Start = R.readVarint();
      O.Size = R.readVarint();
      O.SampleCount = R.readVarint();
      O.LatencySum = R.readVarint();
      if (!R.ok())
        return SectionFail(V3Object, "record malformed");
      if (KeyId >= Strings.size() || NameId >= Strings.size())
        return failParse(Error, "object references unknown string");
      O.Key.assign(Strings[KeyId].data(), Strings[KeyId].size());
      O.Name.assign(Strings[NameId].data(), Strings[NameId].size());
      P.Objects.push_back(std::move(O));
    }
    if (!R.atEnd())
      return SectionFail(V3Object, "record count mismatch");
  }

  // stream: undo the delta chain.
  {
    P.Streams.reserve(Header.Records[V3Stream]);
    support::VarintReader R(Slice[V3Stream].data(),
                            Slice[V3Stream].data() + Slice[V3Stream].size());
    uint64_t PrevIp = 0, PrevObjectStart = 0;
    for (uint64_t I = 0; I != Header.Records[V3Stream]; ++I) {
      StreamRecord S;
      S.Ip = PrevIp + static_cast<uint64_t>(R.readSVarint());
      uint64_t ObjectIndex = R.readVarint();
      int64_t LoopId = R.readSVarint();
      uint64_t Line = R.readVarint();
      uint64_t AccessSize = R.readVarint();
      S.SampleCount = R.readVarint();
      S.LatencySum = R.readVarint();
      S.UniqueAddrCount = R.readVarint();
      S.StrideGcd = R.readVarint();
      S.ObjectStart =
          PrevObjectStart + static_cast<uint64_t>(R.readSVarint());
      S.RepAddr = S.ObjectStart + static_cast<uint64_t>(R.readSVarint());
      S.LastAddr = S.RepAddr + static_cast<uint64_t>(R.readSVarint());
      for (uint64_t &L : S.LevelSamples)
        L = R.readVarint();
      S.TlbMissSamples = R.readVarint();
      if (!R.ok() || ObjectIndex > 0xffffffffull || Line > 0xffffffffull ||
          AccessSize > 0xff ||
          LoopId < static_cast<int64_t>(INT32_MIN) ||
          LoopId > static_cast<int64_t>(INT32_MAX))
        return SectionFail(V3Stream, "record malformed");
      S.ObjectIndex = static_cast<uint32_t>(ObjectIndex);
      if (S.ObjectIndex >= P.Objects.size())
        return failParse(Error, "stream references unknown object");
      S.LoopId = static_cast<int32_t>(LoopId);
      S.Line = static_cast<uint32_t>(Line);
      S.AccessSize = static_cast<uint8_t>(AccessSize);
      PrevIp = S.Ip;
      PrevObjectStart = S.ObjectStart;
      P.Streams.push_back(std::move(S));
    }
    if (!R.atEnd())
      return SectionFail(V3Stream, "record count mismatch");
  }

  // cct: parents must precede children, which addSerializedNode checks.
  {
    support::VarintReader R(Slice[V3Cct].data(),
                            Slice[V3Cct].data() + Slice[V3Cct].size());
    uint64_t PrevParent = 0, PrevIp = 0;
    for (uint64_t I = 0; I != Header.Records[V3Cct]; ++I) {
      uint64_t Parent = PrevParent + static_cast<uint64_t>(R.readSVarint());
      uint64_t Ip = PrevIp + static_cast<uint64_t>(R.readSVarint());
      uint64_t Latency = R.readVarint();
      uint64_t Samples = R.readVarint();
      if (!R.ok() || Parent > 0xffffffffull)
        return SectionFail(V3Cct, "record malformed");
      if (!P.Contexts.addSerializedNode(static_cast<uint32_t>(Parent), Ip,
                                        Latency, Samples))
        return failParse(Error, "cctnode references unknown parent");
      PrevParent = Parent;
      PrevIp = Ip;
    }
    if (!R.atEnd())
      return SectionFail(V3Cct, "record count mismatch");
  }

  // Indices rebuild lazily on first lookup; a shard that is only ever
  // a merge source never builds them at all.
  P.markUnindexed();
  return P;
}

std::optional<Profile>
structslim::profile::profileFromBytes(std::string_view Data,
                                      std::string *Error) {
  // The magic line frames the binary payload, which decodes in place.
  if (Data.starts_with(MagicV3))
    return readProfileV3(Data.substr(MagicV3.size()), Error);
  if (Data == MagicV3.substr(0, MagicV3.size() - 1)) // Newline lost.
    return failParse(Error, "truncated profile (missing end marker)");
  // Any other version line names a format this reader does not decode,
  // the retired v1/v2 text formats included.
  std::string_view Line = Data.substr(0, Data.find('\n'));
  if (Line.starts_with(VersionPrefix))
    return failParse(Error, "unsupported profile format version '" +
                                std::string(Line.substr(VersionPrefix.size())) +
                                "'");
  return failParse(Error, "missing profile magic header");
}

std::optional<Profile>
structslim::profile::readProfile(std::istream &IS, std::string *Error) {
  std::ostringstream Buffer;
  Buffer << IS.rdbuf();
  return profileFromBytes(Buffer.str(), Error);
}

std::optional<Profile>
structslim::profile::profileFromString(const std::string &Text,
                                       std::string *Error) {
  return profileFromBytes(Text, Error);
}

//===----------------------------------------------------------------------===//
// File boundary (where faults inject)
//===----------------------------------------------------------------------===//

std::optional<Profile>
structslim::profile::readProfileFile(const std::string &Path,
                                     std::string *Error) {
  if (support::FaultInjector::instance().shouldFail(
          support::FaultSite::ProfileOpenRead))
    return failParse(Error, "injected open failure");
  // One copy of the file; the v3 decoder slices sections out of it.
  // The read error names no path: the caller's diagnostic already
  // leads with it.
  std::string ReadError;
  std::optional<std::string> Bytes = support::readFile(Path, &ReadError);
  if (!Bytes)
    return failParse(Error, ReadError);
  return profileFromBytes(*Bytes, Error);
}

bool structslim::profile::writeProfileFile(const Profile &P,
                                           const std::string &Path,
                                           std::string *Error) {
  support::FaultInjector &Injector = support::FaultInjector::instance();
  if (Injector.shouldFail(support::FaultSite::ProfileOpenWrite)) {
    if (Error)
      *Error = "injected open failure";
    return false;
  }
  std::ofstream Out(Path, std::ios::trunc | std::ios::binary);
  if (!Out) {
    if (Error)
      *Error = "cannot create file";
    return false;
  }
  std::string Bytes = profileToString(P);
  // The injection point modeling a mid-write crash or corrupted media:
  // what lands on disk may be a strict prefix or a bit-flipped copy of
  // what the profiler serialized.
  Injector.mutate(support::FaultSite::ProfileWrite, Bytes);
  Out << Bytes;
  Out.flush();
  if (!Out) {
    if (Error)
      *Error = "write failed";
    return false;
  }
  return true;
}
