// CRC-32 (IEEE 802.3 polynomial, slicing-by-16). Used to checksum checkpoint
// file headers and to digest state tables in correctness tests.
#ifndef TICKPOINT_UTIL_CRC32_H_
#define TICKPOINT_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace tickpoint {

/// Incremental CRC-32: pass the previous value to chain buffers.
/// Crc32(data, len) == Crc32(data + k, len - k, Crc32(data, k)).
uint32_t Crc32(const void* data, size_t length, uint32_t initial = 0);

}  // namespace tickpoint

#endif  // TICKPOINT_UTIL_CRC32_H_
