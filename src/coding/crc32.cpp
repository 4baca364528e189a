#include "coding/crc32.h"

#include <algorithm>
#include <array>

namespace geosphere::coding {

namespace {

constexpr std::array<std::uint32_t, 256> build_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr auto kTable = build_table();

std::uint32_t update(std::uint32_t c, std::uint8_t byte) {
  return kTable[(c ^ byte) & 0xFFu] ^ (c >> 8);
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) c = update(c, data[i]);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_bits(const BitVector& bits) {
  // Packs each byte on the fly (no buffer): the hot decode path calls this
  // twice per stream and must not allocate.
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < bits.size(); i += 8) {
    const std::size_t end = std::min(bits.size(), i + 8);
    unsigned byte = 0;
    for (std::size_t j = i; j < end; ++j) byte |= (bits[j] & 1u) << (j - i);
    c = update(c, static_cast<std::uint8_t>(byte));
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace geosphere::coding
