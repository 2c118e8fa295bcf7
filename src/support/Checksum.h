//===- support/Checksum.h - CRC-32 checksums ------------------*- C++ -*-===//
//
// Part of the StructSlim reproduction of Roy & Liu, CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for the
/// profile format: each on-disk section carries a checksum so
/// the offline analyzer can tell a torn or bit-flipped shard from a
/// well-formed one instead of silently merging garbage.
///
//===----------------------------------------------------------------------===//

#ifndef STRUCTSLIM_SUPPORT_CHECKSUM_H
#define STRUCTSLIM_SUPPORT_CHECKSUM_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace structslim {
namespace support {

/// Computes the CRC-32 of \p Size bytes at \p Data. To continue a
/// running checksum, pass the previous return value as \p Crc (the
/// pre/post inversion is handled internally).
uint32_t crc32(const void *Data, size_t Size, uint32_t Crc = 0);

/// Convenience overload over a byte string.
uint32_t crc32(const std::string &Bytes, uint32_t Crc = 0);

} // namespace support
} // namespace structslim

#endif // STRUCTSLIM_SUPPORT_CHECKSUM_H
