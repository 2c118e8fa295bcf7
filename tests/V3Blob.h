//===- tests/V3Blob.h - Edit and re-seal v3 profile blobs -------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
//
// Test-only access to the v3 layout (see profile/ProfileIO.h). Every
// mutation a fuzzer makes to a v3 blob fails a CRC before the decoder
// looks at a record, so the reader's semantic checks (dangling object,
// string or parent references, a missing meta record) are reachable
// only from a blob that was edited and then re-sealed: split it into
// sections, change a payload or a record count, and seal() recomputes
// every section's size and CRC and then the header CRC.
//
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_TESTS_V3BLOB_H
#define STRUCTSLIM_TESTS_V3BLOB_H

#include "support/Checksum.h"

#include <cstdint>
#include <string>
#include <vector>

namespace structslim {

/// The sections of a well-formed v3 blob, in payload order (meta,
/// strtab, object, stream, cct).
struct V3Blob {
  static constexpr const char *Magic = "structslim-profile v3\n";
  static constexpr const char *EndMarker = "end v3\n";
  enum : unsigned { Meta = 0, Strtab, Object, Stream, Cct };

  std::vector<std::string> Payloads;
  std::vector<uint64_t> Records;

  /// Splits \p Blob, which must be a valid v3 serialization.
  static V3Blob split(const std::string &Blob) {
    size_t Pos = std::string(Magic).size();
    uint32_t Sections = static_cast<uint32_t>(readLE(Blob, Pos, 4));
    size_t Payload = Pos + 4 + Sections * EntryBytes + 4;
    V3Blob B;
    for (uint32_t S = 0; S != Sections; ++S) {
      size_t Entry = Pos + 4 + S * EntryBytes;
      uint64_t Bytes = readLE(Blob, Entry, 8);
      B.Payloads.push_back(Blob.substr(Payload, Bytes));
      B.Records.push_back(readLE(Blob, Entry + 8, 8));
      Payload += Bytes;
    }
    return B;
  }

  /// Reassembles the blob with fresh section sizes, section CRCs and
  /// header CRC, so the reader's integrity checks all pass.
  std::string seal() const {
    std::string Out = Magic;
    size_t HeaderStart = Out.size();
    appendLE(Out, Payloads.size(), 4);
    for (size_t S = 0; S != Payloads.size(); ++S) {
      appendLE(Out, Payloads[S].size(), 8);
      appendLE(Out, Records[S], 8);
      appendLE(Out, support::crc32(Payloads[S]), 4);
    }
    appendLE(Out,
             support::crc32(Out.data() + HeaderStart, Out.size() - HeaderStart),
             4);
    for (const std::string &P : Payloads)
      Out += P;
    return Out + EndMarker;
  }

private:
  static constexpr size_t EntryBytes = 8 + 8 + 4;

  static uint64_t readLE(const std::string &Blob, size_t Pos, unsigned Bytes) {
    uint64_t V = 0;
    for (unsigned I = 0; I != Bytes; ++I)
      V |= static_cast<uint64_t>(static_cast<uint8_t>(Blob[Pos + I]))
           << (8 * I);
    return V;
  }

  static void appendLE(std::string &Out, uint64_t V, unsigned Bytes) {
    for (unsigned I = 0; I != Bytes; ++I)
      Out += static_cast<char>((V >> (8 * I)) & 0xff);
  }
};

} // namespace structslim

#endif // STRUCTSLIM_TESTS_V3BLOB_H
