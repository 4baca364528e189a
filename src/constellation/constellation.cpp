#include "constellation/constellation.h"

#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>

namespace geosphere {

namespace {

unsigned integer_log2(unsigned x) {
  unsigned out = 0;
  while (x > 1) {
    x >>= 1;
    ++out;
  }
  return out;
}

/// Binary-reflected Gray code of a level index.
unsigned gray_encode(unsigned l) { return l ^ (l >> 1); }

unsigned gray_decode(unsigned g) {
  unsigned l = 0;
  for (; g != 0; g >>= 1) l ^= g;
  return l;
}

}  // namespace

Constellation::Constellation(unsigned order) : order_(order) {
  if (order != 4 && order != 16 && order != 64 && order != 256)
    throw std::invalid_argument("Constellation: order must be 4, 16, 64 or 256");
  bits_per_symbol_ = integer_log2(order);
  pam_levels_ = static_cast<int>(std::lround(std::sqrt(static_cast<double>(order))));
  // Average energy of the odd-integer grid is 2(M-1)/3; normalize to 1.
  scale_ = std::sqrt(3.0 / (2.0 * (static_cast<double>(order) - 1.0)));
  points_.resize(order);
  for (int li = 0; li < pam_levels_; ++li)
    for (int lq = 0; lq < pam_levels_; ++lq)
      points_[index_from_levels(li, lq)] =
          scale_ * cf64{static_cast<double>(grid_of_level(li)),
                        static_cast<double>(grid_of_level(lq))};
}

const Constellation& Constellation::qam(unsigned order) {
  static std::mutex mu;
  static std::map<unsigned, Constellation> cache;
  std::scoped_lock lock(mu);
  auto it = cache.find(order);
  if (it == cache.end()) it = cache.emplace(order, Constellation(order)).first;
  return it->second;
}

void Constellation::bits_from_index(unsigned index, std::uint8_t* out) const {
  const unsigned half = bits_per_symbol_ / 2;
  const unsigned gi = gray_encode(static_cast<unsigned>(level_i(index)));
  const unsigned gq = gray_encode(static_cast<unsigned>(level_q(index)));
  for (unsigned b = 0; b < half; ++b) {
    out[b] = static_cast<std::uint8_t>((gi >> (half - 1 - b)) & 1u);
    out[half + b] = static_cast<std::uint8_t>((gq >> (half - 1 - b)) & 1u);
  }
}

unsigned Constellation::index_from_bits(const std::uint8_t* bits) const {
  const unsigned half = bits_per_symbol_ / 2;
  unsigned gi = 0;
  unsigned gq = 0;
  for (unsigned b = 0; b < half; ++b) {
    gi = (gi << 1) | (bits[b] & 1u);
    gq = (gq << 1) | (bits[half + b] & 1u);
  }
  return index_from_levels(static_cast<int>(gray_decode(gi)),
                           static_cast<int>(gray_decode(gq)));
}

unsigned Constellation::bit_difference(unsigned a, unsigned b) const {
  const unsigned half = bits_per_symbol_ / 2;
  const unsigned ga = gray_encode(static_cast<unsigned>(level_i(a)))
                          << half |
                      gray_encode(static_cast<unsigned>(level_q(a)));
  const unsigned gb = gray_encode(static_cast<unsigned>(level_i(b)))
                          << half |
                      gray_encode(static_cast<unsigned>(level_q(b)));
  unsigned x = ga ^ gb;
  unsigned count = 0;
  for (; x != 0; x &= x - 1) ++count;
  return count;
}

}  // namespace geosphere
