//===- tests/profileio_fuzz_test.cpp - Structure-aware IO fuzz -*- C++ -*-===//
//
// A seeded, structure-aware fuzzer for the v3 profile format.
// Round-trips random Profiles, then corrupts the serialized blob —
// truncation at every byte offset, a bit flip at every byte offset,
// and random multi-edit mutations — and asserts the reader either
// returns the exact original profile (differential check against the
// in-memory copy) or a clean descriptive Error. It must never crash,
// hang, or accept silently wrong data; the per-section CRC-32s are
// what make the last guarantee possible.
//
// Carries the "sanitize" ctest label: run under ASan+UBSan with
//   cmake -B build-asan -S . -DSTRUCTSLIM_SANITIZE=ON
//   ctest --test-dir build-asan -L sanitize
//
//===----------------------------------------------------------------------===//

#include "V3Blob.h"

#include "profile/Profile.h"
#include "profile/ProfileIO.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <csignal>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

using namespace structslim;
using namespace structslim::profile;

namespace {

/// Builds a pseudo-random but internally consistent profile: every
/// stream references an existing object, every CCT node a valid parent.
Profile makeRandomProfile(Rng &R) {
  Profile P;
  P.ThreadId = static_cast<uint32_t>(R.nextBelow(64));
  P.SamplePeriod = 1000 + R.nextBelow(100000);
  P.TotalSamples = R.nextBelow(1u << 20);
  P.TotalLatency = R.nextBelow(1u << 30);
  P.UnattributedLatency = R.nextBelow(1000);
  P.Instructions = R.next() >> 16;
  P.MemoryAccesses = R.next() >> 20;
  P.Cycles = R.next() >> 12;

  unsigned NumObjects = 1 + static_cast<unsigned>(R.nextBelow(4));
  for (unsigned O = 0; O != NumObjects; ++O) {
    std::string Key = "obj" + std::to_string(O) + "@" +
                      std::to_string(R.nextBelow(1u << 22));
    uint32_t Idx = P.getOrCreateObject(Key);
    ObjectAgg &Agg = P.Objects[Idx];
    Agg.Name = R.nextBelow(4) == 0 ? "" : "obj" + std::to_string(O);
    Agg.Start = R.next() >> 17;
    Agg.Size = 64 + R.nextBelow(1u << 20);
    Agg.SampleCount = R.nextBelow(10000);
    Agg.LatencySum = R.nextBelow(1u << 24);
  }
  unsigned NumStreams = static_cast<unsigned>(R.nextBelow(9));
  for (unsigned S = 0; S != NumStreams; ++S) {
    uint32_t Obj = static_cast<uint32_t>(R.nextBelow(NumObjects));
    StreamRecord &Rec = P.getOrCreateStream(0x400000 + R.nextBelow(4096), Obj);
    Rec.LoopId = static_cast<int32_t>(R.nextBelow(16)) - 1;
    Rec.Line = static_cast<uint32_t>(R.nextBelow(2000));
    Rec.AccessSize = static_cast<uint8_t>(1u << R.nextBelow(4));
    Rec.SampleCount = R.nextBelow(5000);
    Rec.LatencySum = R.nextBelow(1u << 22);
    Rec.UniqueAddrCount = R.nextBelow(1000);
    Rec.StrideGcd = 1u << R.nextBelow(10);
    Rec.RepAddr = R.next() >> 17;
    Rec.LastAddr = Rec.RepAddr + R.nextBelow(1u << 16);
    Rec.ObjectStart = P.Objects[Obj].Start;
    for (uint64_t &L : Rec.LevelSamples)
      L = R.nextBelow(1000);
    Rec.TlbMissSamples = R.nextBelow(100);
  }
  unsigned NumPaths = static_cast<unsigned>(R.nextBelow(6));
  for (unsigned C = 0; C != NumPaths; ++C) {
    std::vector<uint64_t> Path;
    unsigned Depth = 1 + static_cast<unsigned>(R.nextBelow(4));
    for (unsigned D = 0; D != Depth; ++D)
      Path.push_back(0x400000 + R.nextBelow(64));
    P.Contexts.attribute(P.Contexts.intern(Path), R.nextBelow(1u << 16));
  }
  return P;
}

/// The LE32 section count straight after the v3 magic line.
uint32_t v3SectionCount(const std::string &Blob) {
  const size_t MagicLen = std::string("structslim-profile v3\n").size();
  uint32_t V = 0;
  for (unsigned I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(static_cast<uint8_t>(Blob[MagicLen + I]))
         << (8 * I);
  return V;
}

/// Per-process scratch path for the file-loader leg of every mutation
/// (ctest runs fuzz cases as parallel processes; the pid keeps their
/// scratch files apart).
const std::string &scratchPath() {
  static const std::string Path =
      ::testing::TempDir() + "profileio_fuzz_" +
      std::to_string(static_cast<unsigned long>(::getpid())) + ".structslim";
  return Path;
}

/// Writes \p Blob to the scratch file and loads it back through
/// readProfileFile, the real file ingestion path.
std::optional<Profile> loadViaFile(const std::string &Blob,
                                   std::string *Error) {
  {
    std::ofstream Out(scratchPath(), std::ios::binary | std::ios::trunc);
    Out.write(Blob.data(), static_cast<std::streamsize>(Blob.size()));
  }
  return readProfileFile(scratchPath(), Error);
}

/// Parses \p Blob and enforces the fuzz contract against \p Canonical:
/// exact profile back, or a clean error. Every mutation runs through
/// both ingestion paths — the in-memory reader and the file loader —
/// and their verdicts must agree byte for byte.
void checkMutation(const std::string &Blob, const std::string &Canonical) {
  std::string Error;
  auto Parsed = profileFromString(Blob, &Error);
  if (Parsed) {
    // Accepted: must be byte-for-byte the original profile — the
    // checksummed format leaves no room for silently wrong data.
    EXPECT_EQ(profileToString(*Parsed), Canonical);
  } else {
    EXPECT_FALSE(Error.empty());
  }
  std::string FileError;
  auto FromFile = loadViaFile(Blob, &FileError);
  ASSERT_EQ(FromFile.has_value(), Parsed.has_value());
  if (FromFile)
    EXPECT_EQ(profileToString(*FromFile), profileToString(*Parsed));
  else
    EXPECT_FALSE(FileError.empty());
}

class ProfileIoFuzz : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(ProfileIoFuzz, RoundTripIsExact) {
  Rng R(7700 + GetParam());
  Profile P = makeRandomProfile(R);
  std::string Canonical = profileToString(P);
  std::string Error;
  auto Back = profileFromString(Canonical, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(profileToString(*Back), Canonical);
}

// Truncation at EVERY byte offset: models a mid-write crash at any
// point. A strict prefix must never parse as a different profile (the
// full-length "truncation" parses as itself).
TEST_P(ProfileIoFuzz, TruncationAtEveryOffset) {
  Rng R(7700 + GetParam());
  Profile P = makeRandomProfile(R);
  std::string Canonical = profileToString(P);
  for (size_t Cut = 0; Cut <= Canonical.size(); ++Cut)
    checkMutation(Canonical.substr(0, Cut), Canonical);
}

// A flipped byte at EVERY offset: models single-byte media corruption
// in every offset class (header, records, checksum trailer, end
// marker, newlines).
TEST_P(ProfileIoFuzz, ByteFlipAtEveryOffset) {
  Rng R(7700 + GetParam());
  Profile P = makeRandomProfile(R);
  std::string Canonical = profileToString(P);
  for (size_t Pos = 0; Pos != Canonical.size(); ++Pos) {
    std::string Mutated = Canonical;
    Mutated[Pos] = static_cast<char>(Mutated[Pos] ^ 0xFF);
    checkMutation(Mutated, Canonical);
  }
}

// Random multi-edit mutations: replacements, deletions, insertions —
// including printable edits that keep lines structurally plausible.
TEST_P(ProfileIoFuzz, RandomMultiEditMutations) {
  Rng R(9900 + GetParam());
  Profile P = makeRandomProfile(R);
  std::string Canonical = profileToString(P);
  for (int Trial = 0; Trial != 400; ++Trial) {
    std::string Mutated = Canonical;
    unsigned Edits = 1 + static_cast<unsigned>(R.nextBelow(8));
    for (unsigned E = 0; E != Edits && !Mutated.empty(); ++E) {
      size_t Pos = R.nextBelow(Mutated.size());
      switch (R.nextBelow(4)) {
      case 0:
        Mutated[Pos] = static_cast<char>('0' + R.nextBelow(10));
        break;
      case 1:
        Mutated.erase(Pos, 1 + R.nextBelow(6));
        break;
      case 2:
        Mutated.insert(Pos, 1, static_cast<char>(32 + R.nextBelow(95)));
        break;
      case 3:
        Mutated[Pos] = static_cast<char>(R.nextBelow(256));
        break;
      }
    }
    checkMutation(Mutated.empty() ? "x" : Mutated, Canonical);
  }
}

// Targeted v3 structural mutations: corrupt each fixed-header field
// (section byte count, record count, per-section CRC) and a byte
// inside each section payload, located through the header's own
// offsets. Every such edit must be rejected (or, for the untouched
// blob, parse exactly) — this exercises each validation branch of the
// binary reader deliberately rather than by random chance.
TEST_P(ProfileIoFuzz, V3SectionTargetedMutations) {
  Rng R(7700 + GetParam());
  Profile P = makeRandomProfile(R);
  std::string Canonical = profileToString(P);
  const size_t MagicLen = std::string("structslim-profile v3\n").size();
  const size_t NumSections = 5;
  const size_t EntryBytes = 8 + 8 + 4;
  ASSERT_GT(Canonical.size(), MagicLen + 4 + NumSections * EntryBytes + 4);

  // Section payload offsets from the header's byte counts.
  auto ReadLE64 = [&](size_t Off) {
    uint64_t V = 0;
    for (unsigned I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(
               static_cast<uint8_t>(Canonical[Off + I]))
           << (8 * I);
    return V;
  };
  size_t HeaderStart = MagicLen;
  size_t PayloadStart = HeaderStart + 4 + NumSections * EntryBytes + 4;
  size_t SectionOffset = PayloadStart;
  for (size_t S = 0; S != NumSections; ++S) {
    size_t Entry = HeaderStart + 4 + S * EntryBytes;
    uint64_t Bytes = ReadLE64(Entry);
    // Corrupt each header field of this section.
    for (size_t FieldOff : {Entry, Entry + 8, Entry + 16}) {
      std::string Mutated = Canonical;
      Mutated[FieldOff] = static_cast<char>(Mutated[FieldOff] ^ 0x5A);
      checkMutation(Mutated, Canonical);
    }
    // Corrupt one byte inside the payload (when the section is
    // non-empty).
    if (Bytes != 0) {
      std::string Mutated = Canonical;
      size_t Pos = SectionOffset + R.nextBelow(Bytes);
      Mutated[Pos] = static_cast<char>(Mutated[Pos] ^ 0x5A);
      checkMutation(Mutated, Canonical);
      // A payload flip must never be silently accepted: the section
      // CRC covers every byte.
      EXPECT_FALSE(profileFromString(Mutated).has_value());
    }
    SectionOffset += Bytes;
  }
  // Damage the end marker.
  std::string NoEnd = Canonical.substr(0, Canonical.size() - 1);
  std::string Error;
  EXPECT_FALSE(profileFromString(NoEnd, &Error).has_value());
  EXPECT_NE(Error.find("missing end marker"), std::string::npos);
}

// The file loader is the in-memory decoder behind one read: on intact
// blobs and on truncated tails it must give the same verdict, the same
// bytes and the same error.
TEST_P(ProfileIoFuzz, FileLoaderMatchesInMemoryDecoder) {
  Rng R(6600 + GetParam());
  Profile P = makeRandomProfile(R);
  std::string Canonical = profileToString(P);
  std::vector<std::string> Blobs = {Canonical};
  for (int Trial = 0; Trial != 16; ++Trial)
    Blobs.push_back(Canonical.substr(0, R.nextBelow(Canonical.size())));
  for (const std::string &Blob : Blobs) {
    std::string FileError, MemError;
    auto ViaFile = loadViaFile(Blob, &FileError);
    auto InMemory = profileFromBytes(Blob, &MemError);
    ASSERT_EQ(ViaFile.has_value(), InMemory.has_value());
    if (ViaFile) {
      EXPECT_EQ(profileToString(*ViaFile), profileToString(*InMemory));
      EXPECT_EQ(profileToString(*ViaFile), Canonical);
    } else {
      EXPECT_EQ(FileError, MemError);
    }
  }
}

// A v3 file carries exactly five sections. A sixth (the retired
// bounded-sampling layer's "rsvr" section had this shape: one profile
// record plus one per stream) is refused by name, not ignored, on both
// ingestion paths, even when every size and CRC in the header is right.
TEST(ProfileIoSections, SixSectionBlobFailsWithNamedError) {
  Rng R(5500);
  V3Blob Blob = V3Blob::split(profileToString(makeRandomProfile(R)));
  Blob.Payloads.push_back(std::string(8, '\0'));
  Blob.Records.push_back(1);
  std::string Sealed = Blob.seal();
  ASSERT_EQ(v3SectionCount(Sealed), 6u);
  const std::string Named = "unsupported v3 section count 6 (expected 5)";
  std::string MemError, FileError;
  EXPECT_FALSE(profileFromBytes(Sealed, &MemError).has_value());
  EXPECT_EQ(MemError, Named);
  EXPECT_FALSE(loadViaFile(Sealed, &FileError).has_value());
  EXPECT_EQ(FileError, Named);
}

// 8 seeds x (|blob| truncations + |blob| flips + 400 random edits),
// plus the targeted family; every mutation runs through
// both the in-memory reader and the file loader.
INSTANTIATE_TEST_SUITE_P(Seeded, ProfileIoFuzz, ::testing::Range(0, 8));

// A pipe or FIFO has no size for fstat to report, so the reader must
// fall back to reading it to EOF (bash's `structslim-report <(cat f)`).
// The blob spans several 64 KiB read chunks, so the buffer must grow.
TEST(ReadFile, ReadsANonSeekablePipe) {
  Rng R(4242);
  Profile P = makeRandomProfile(R);
  for (unsigned S = 0; S != 20000; ++S)
    P.getOrCreateStream(0x500000 + 8 * S, 0).SampleCount = 1 + S;
  std::string Blob = profileToString(P);
  ASSERT_GT(Blob.size(), 3u * 65536);

  std::string Fifo = ::testing::TempDir() + "readfile_fifo_" +
                     std::to_string(static_cast<unsigned long>(::getpid()));
  ::unlink(Fifo.c_str());
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0);
  // A reader that stops early must fail the assertions below, not kill
  // the process with SIGPIPE on the writer's next write.
  std::signal(SIGPIPE, SIG_IGN);
  // Opening a FIFO for writing blocks until the reader opens it.
  std::thread Writer([&] {
    std::ofstream Out(Fifo, std::ios::binary);
    Out.write(Blob.data(), static_cast<std::streamsize>(Blob.size()));
  });
  std::string Error;
  auto ViaPipe = readProfileFile(Fifo, &Error);
  Writer.join();
  ::unlink(Fifo.c_str());
  ASSERT_TRUE(ViaPipe.has_value()) << Error;
  auto InMemory = profileFromBytes(Blob);
  ASSERT_TRUE(InMemory.has_value());
  EXPECT_EQ(profileToString(*ViaPipe), profileToString(*InMemory));
  EXPECT_EQ(profileToString(*ViaPipe), Blob);
}
