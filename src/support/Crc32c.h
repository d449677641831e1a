//===- support/Crc32c.h - CRC-32C (Castagnoli) checksum ---------*- C++ -*-===//
//
// Part of the CVR reproduction project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CRC-32C (polynomial 0x1EDC6F41, reflected 0x82F63B78) — the checksum
/// iSCSI, ext4, and most storage formats use for payload integrity. The
/// serialized CVR blob (format v3) carries one per section so corruption is
/// detected before a corrupt count or offset can reach a kernel. Portable
/// slicing-by-8 table implementation, with no SSE4.2 second path: eight
/// independent lookups per eight bytes keep a mapped blob's checksum pass
/// short without an instruction-set switch.
///
//===----------------------------------------------------------------------===//

#ifndef CVR_SUPPORT_CRC32C_H
#define CVR_SUPPORT_CRC32C_H

#include <cstddef>
#include <cstdint>

namespace cvr {

/// CRC-32C of \p Bytes, seeded with \p Seed (pass the previous call's
/// result to checksum discontiguous pieces as one stream; 0 to start).
std::uint32_t crc32c(const void *Data, std::size_t Bytes,
                     std::uint32_t Seed = 0);

} // namespace cvr

#endif // CVR_SUPPORT_CRC32C_H
