//===- support/Checksum.cpp -----------------------------------*- C++ -*-===//

#include "support/Checksum.h"

#include <array>
#include <cstring>

using namespace structslim;

namespace {

// Slice-by-8: Table[0] is the classic bytewise table; Table[K][B] is
// the CRC of byte B followed by K zero bytes, so eight bytes fold in
// one step. Identical output to the bytewise loop for every input.
std::array<std::array<uint32_t, 256>, 8> makeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> Tables{};
  for (uint32_t I = 0; I != 256; ++I) {
    uint32_t C = I;
    for (int K = 0; K != 8; ++K)
      C = (C & 1) ? (0xEDB88320u ^ (C >> 1)) : (C >> 1);
    Tables[0][I] = C;
  }
  for (uint32_t K = 1; K != 8; ++K)
    for (uint32_t I = 0; I != 256; ++I)
      Tables[K][I] = Tables[0][Tables[K - 1][I] & 0xFF] ^
                     (Tables[K - 1][I] >> 8);
  return Tables;
}

} // namespace

uint32_t support::crc32(const void *Data, size_t Size, uint32_t Crc) {
  static const std::array<std::array<uint32_t, 256>, 8> T = makeCrcTables();
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  uint32_t C = Crc ^ 0xFFFFFFFFu;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // The word-at-a-time fold reads 32-bit lanes in memory order, which
  // is only the CRC bit order on little-endian hosts.
  while (Size >= 8) {
    uint32_t Lo;
    uint32_t Hi;
    std::memcpy(&Lo, Bytes, 4);
    std::memcpy(&Hi, Bytes + 4, 4);
    Lo ^= C;
    C = T[7][Lo & 0xFF] ^ T[6][(Lo >> 8) & 0xFF] ^ T[5][(Lo >> 16) & 0xFF] ^
        T[4][Lo >> 24] ^ T[3][Hi & 0xFF] ^ T[2][(Hi >> 8) & 0xFF] ^
        T[1][(Hi >> 16) & 0xFF] ^ T[0][Hi >> 24];
    Bytes += 8;
    Size -= 8;
  }
#endif
  for (size_t I = 0; I != Size; ++I)
    C = T[0][(C ^ Bytes[I]) & 0xFF] ^ (C >> 8);
  return C ^ 0xFFFFFFFFu;
}

uint32_t support::crc32(const std::string &Bytes, uint32_t Crc) {
  return crc32(Bytes.data(), Bytes.size(), Crc);
}
