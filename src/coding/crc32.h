// CRC-32 (IEEE 802.3): frame integrity check for the link layer.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace geosphere::coding {

/// CRC-32 over a byte buffer (reflected, init/xorout 0xFFFFFFFF).
std::uint32_t crc32(const std::uint8_t* data, std::size_t len);

/// CRC-32 over a bit vector (bits packed LSB-first into bytes, trailing
/// partial byte zero-padded) -- convenient for PHY payloads. Allocates
/// nothing.
std::uint32_t crc32_bits(const BitVector& bits);

}  // namespace geosphere::coding
