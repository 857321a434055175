#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace tickpoint {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

// Slicing-by-16: table k maps a byte to the CRC contribution it makes when
// followed by k zero bytes, so one step folds 16 input bytes with 16
// independent lookups instead of a 16-deep chain of dependent ones.
constexpr int kSlices = 16;
using Tables = std::array<std::array<uint32_t, 256>, kSlices>;

constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPolynomial : 0);
    }
    tables[0][i] = crc;
  }
  for (int k = 1; k < kSlices; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

uint32_t Load32(const unsigned char* p) {
  uint32_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

}  // namespace

uint32_t Crc32(const void* data, size_t length, uint32_t initial) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~initial;
  // The word-wise step reads the input as little-endian words.
  if constexpr (std::endian::native == std::endian::little) {
    const auto& t = kTables;
    for (; length >= 16; length -= 16, bytes += 16) {
      const uint32_t a = Load32(bytes) ^ crc;
      const uint32_t b = Load32(bytes + 4);
      const uint32_t c = Load32(bytes + 8);
      const uint32_t d = Load32(bytes + 12);
      crc = t[15][a & 0xFF] ^ t[14][(a >> 8) & 0xFF] ^
            t[13][(a >> 16) & 0xFF] ^ t[12][a >> 24] ^ t[11][b & 0xFF] ^
            t[10][(b >> 8) & 0xFF] ^ t[9][(b >> 16) & 0xFF] ^
            t[8][b >> 24] ^ t[7][c & 0xFF] ^ t[6][(c >> 8) & 0xFF] ^
            t[5][(c >> 16) & 0xFF] ^ t[4][c >> 24] ^ t[3][d & 0xFF] ^
            t[2][(d >> 8) & 0xFF] ^ t[1][(d >> 16) & 0xFF] ^ t[0][d >> 24];
    }
  }
  for (; length > 0; --length, ++bytes) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xFF];
  }
  return ~crc;
}

}  // namespace tickpoint
