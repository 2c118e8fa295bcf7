//===- profile/ProfileIO.h - Profile (de)serialization ---------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profile (de)serialization. The online profiler writes one profile
/// file per thread (paper Sec. 5.1); the offline analyzer reads them
/// back and merges. There is one on-disk format, binary v3:
///
///   structslim-profile v3\n
///   u32 section-count (always 5)               \  fixed-size binary
///   5 x { u64 bytes, u64 records, u32 crc32 }   } header, little
///   u32 header-crc32                           /  endian
///   payload: meta | strtab | object | stream | cct
///   end v3\n
///
/// The string table deduplicates object keys/names (length-prefixed,
/// first-use order); object and stream records are varint-encoded with
/// delta compression for the near-sorted fields (IPs and object bases
/// delta against the previous record, addresses against the record's
/// own object base); CCT nodes delta their parent ids and IPs. Because
/// every section's byte size is in the header, a reader slices one
/// contiguous buffer without scanning — single read, zero-copy section
/// views, CRC-checked before decode.
///
/// Torn, truncated, or bit-flipped shards are rejected with a
/// descriptive error rather than merged as silently wrong data. Any
/// other "structslim-profile vN" header (the retired v1/v2 text
/// formats included) fails as an unsupported version, and a v3 header
/// with any section count but 5 as an unsupported section count.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_PROFILE_PROFILEIO_H
#define STRUCTSLIM_PROFILE_PROFILEIO_H

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace structslim {
namespace profile {

class Profile;

/// Writes \p P to \p OS in the v3 format.
void writeProfile(const Profile &P, std::ostream &OS);

/// Serializes to a string in the v3 format.
std::string profileToString(const Profile &P);

/// Parses a profile from an in-memory buffer; std::nullopt on malformed
/// input (the error is described in \p Error when non-null). Section
/// slices decode in place from \p Data.
std::optional<Profile> profileFromBytes(std::string_view Data,
                                        std::string *Error = nullptr);

/// Parses a profile from a stream; std::nullopt on malformed input (the
/// error is described in \p Error when non-null).
std::optional<Profile> readProfile(std::istream &IS,
                                   std::string *Error = nullptr);

/// Parses from a string.
std::optional<Profile> profileFromString(const std::string &Text,
                                         std::string *Error = nullptr);

/// Reads a profile shard from \p Path in one buffered read
/// (support::readFile; a pipe or FIFO is read to EOF) and decodes it
/// from that buffer. Failures to open or read (a directory included),
/// injected faults (support::FaultSite::ProfileOpenRead), and parse
/// errors all report through \p Error, which does not repeat \p Path.
std::optional<Profile> readProfileFile(const std::string &Path,
                                       std::string *Error = nullptr);

/// Writes \p P to \p Path. This is the boundary where fault injection
/// applies: support::FaultSite::ProfileOpenWrite can fail the open and
/// support::FaultSite::ProfileWrite can truncate or corrupt the bytes
/// written (simulating a mid-write crash). False on failure, described
/// in \p Error.
bool writeProfileFile(const Profile &P, const std::string &Path,
                      std::string *Error = nullptr);

} // namespace profile
} // namespace structslim

#endif // STRUCTSLIM_PROFILE_PROFILEIO_H
