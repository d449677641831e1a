//===- support/Crc32c.cpp - CRC-32C (Castagnoli) checksum -----------------===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Crc32c.h"

#include <array>

namespace cvr {

namespace {

/// Slicing-by-8 tables for the reflected Castagnoli polynomial, built once
/// at first use. T[0] is the byte-at-a-time table; T[K][B] is the CRC of
/// byte B followed by K zero bytes, so one round folds eight input bytes
/// through eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables &crcTables() {
  static const CrcTables Tables = [] {
    CrcTables T{};
    for (std::uint32_t I = 0; I < 256; ++I) {
      std::uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? (0x82F63B78u ^ (C >> 1)) : (C >> 1);
      T[0][I] = C;
    }
    for (int K = 1; K < 8; ++K)
      for (std::uint32_t I = 0; I < 256; ++I)
        T[K][I] = (T[K - 1][I] >> 8) ^ T[0][T[K - 1][I] & 0xFF];
    return T;
  }();
  return Tables;
}

} // namespace

std::uint32_t crc32c(const void *Data, std::size_t Bytes, std::uint32_t Seed) {
  const auto *P = static_cast<const unsigned char *>(Data);
  const CrcTables &T = crcTables();
  std::uint32_t C = ~Seed;
  // Eight bytes per round; the first four absorb the running CRC. The
  // bytes are assembled in little-endian order on any host.
  for (; Bytes >= 8; P += 8, Bytes -= 8) {
    const std::uint32_t Lo =
        C ^ (std::uint32_t{P[0]} | std::uint32_t{P[1]} << 8 |
             std::uint32_t{P[2]} << 16 | std::uint32_t{P[3]} << 24);
    C = T[7][Lo & 0xFF] ^ T[6][(Lo >> 8) & 0xFF] ^ T[5][(Lo >> 16) & 0xFF] ^
        T[4][Lo >> 24] ^ T[3][P[4]] ^ T[2][P[5]] ^ T[1][P[6]] ^ T[0][P[7]];
  }
  for (; Bytes > 0; ++P, --Bytes)
    C = T[0][(C ^ *P) & 0xFF] ^ (C >> 8);
  return ~C;
}

} // namespace cvr
