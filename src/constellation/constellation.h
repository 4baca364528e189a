// Gray-coded square QAM constellations (4-, 16-, 64-, 256-QAM).
//
// Geometry convention: constellation points live on the integer grid at odd
// coordinates -(L-1), ..., -1, +1, ..., +(L-1) in each dimension (L = sqrt(M)
// PAM levels per axis, spacing 2), scaled by `scale()` so that the average
// symbol energy is exactly 1. The sphere decoder enumerators work directly
// in grid units, which makes the paper's geometric-pruning lookup table
// (Eq. 9) integer-indexed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace geosphere {

/// Nearest PAM level index in [0, levels) to a continuous grid coordinate,
/// where level l sits at g(l) = 2l - (levels - 1): the one rounding rule of
/// the slicer (Constellation::slice_level) and of the sphere searches'
/// zigzag start (sphere::Zigzag1D::reset).
///
/// Contract: with raw = (grid_coord + levels - 1) / 2, the result is
/// clamp(lround(raw), 0, levels - 1) for every finite |raw| < 2^63, halves
/// rounding away from zero; for NaN, +/-inf and |raw| >= 2^63 it is 0
/// (where glibc's lround returns LONG_MIN). It is computed without a libm
/// call: for 0.5 <= raw < levels - 0.5, raw + 0.5 rounds to a double whose
/// truncation is lround(raw) (below 0.5 the sum can round up to 1.0, so
/// that range is excluded first).
inline int nearest_pam_level(double grid_coord, int levels) {
  const double raw = (grid_coord + static_cast<double>(levels - 1)) / 2.0;
  const double top = static_cast<double>(levels) - 0.5;
  if (!(raw >= 0.5)) return 0;  // Also NaN and -inf.
  if (raw < top) return static_cast<int>(raw + 0.5);
  return raw < 0x1p63 ? levels - 1 : 0;  // +inf and >= 2^63: 0.
}

class Constellation {
 public:
  /// Supported orders: 4, 16, 64, 256 (square QAM). Throws
  /// std::invalid_argument otherwise.
  explicit Constellation(unsigned order);

  /// Shared immutable instance per order (constellations are stateless).
  static const Constellation& qam(unsigned order);

  unsigned order() const { return order_; }                     ///< M = |O|
  unsigned bits_per_symbol() const { return bits_per_symbol_; } ///< Q = log2 M
  int pam_levels() const { return pam_levels_; }                ///< L = sqrt(M)
  double scale() const { return scale_; }  ///< alpha: point = alpha*(gi + j*gq)

  /// Normalized constellation point for index in [0, M).
  cf64 point(unsigned index) const { return points_[index]; }

  /// All normalized points, indexed by symbol index.
  const std::vector<cf64>& points() const { return points_; }

  // --- Grid coordinates ----------------------------------------------------
  // index = li * L + lq, where li/lq in [0, L) are PAM level indices along
  // the in-phase / quadrature axes; grid coordinate g(l) = 2l - (L-1).

  int level_i(unsigned index) const { return static_cast<int>(index) / pam_levels_; }
  int level_q(unsigned index) const { return static_cast<int>(index) % pam_levels_; }
  unsigned index_from_levels(int li, int lq) const {
    return static_cast<unsigned>(li * pam_levels_ + lq);
  }

  /// Odd-integer grid coordinate of PAM level index l in [0, L).
  int grid_of_level(int l) const { return 2 * l - (pam_levels_ - 1); }

  /// Nearest PAM level index to a continuous grid-units coordinate
  /// (clamped to the constellation boundary; nearest_pam_level's contract).
  int slice_level(double grid_coord) const {
    return nearest_pam_level(grid_coord, pam_levels_);
  }

  /// Nearest constellation point (index) to a received sample in normalized
  /// units. This is the "slicing" operation of the paper.
  unsigned slice(cf64 y) const {
    return index_from_levels(slice_level(y.real() / scale_), slice_level(y.imag() / scale_));
  }

  // --- Bit mapping ----------------------------------------------------------
  // Per-axis Gray coding: the first Q/2 bits select the I level, the last
  // Q/2 bits the Q level (MSB first). Adjacent levels differ in one bit.

  /// Writes Q bits for `index` into out[0..Q).
  void bits_from_index(unsigned index, std::uint8_t* out) const;

  /// Reads Q bits (MSB first per axis) and returns the symbol index.
  unsigned index_from_bits(const std::uint8_t* bits) const;

  /// Hamming distance helper for BER accounting.
  unsigned bit_difference(unsigned a, unsigned b) const;

 private:
  unsigned order_;
  unsigned bits_per_symbol_;
  int pam_levels_;
  double scale_;
  std::vector<cf64> points_;
};

}  // namespace geosphere
