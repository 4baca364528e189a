// 802.11a block interleaver: permutes each OFDM symbol's coded bits so
// that adjacent coded bits land on non-adjacent subcarriers and alternate
// between more/less significant modulation bits (Section 17.3.5.7 of the
// standard).
#pragma once

#include <vector>

#include "common/types.h"

namespace geosphere::coding {

class BlockInterleaver {
 public:
  /// `ncbps`: coded bits per OFDM symbol (48 * bits-per-subcarrier here);
  /// `nbpsc`: coded bits per subcarrier (= bits per QAM symbol).
  BlockInterleaver(std::size_t ncbps, std::size_t nbpsc);

  /// Permute one block of exactly ncbps bits.
  BitVector interleave(const BitVector& block) const;
  BitVector deinterleave(const BitVector& block) const;

  /// Deinterleave soft values (confidences) instead of bits.
  std::vector<double> deinterleave_soft(const std::vector<double>& block) const;

  /// Allocation-free variant: both pointers address block_size() values and
  /// must not alias.
  void deinterleave_soft(const double* block, double* out) const;

  std::size_t block_size() const { return forward_.size(); }

  /// forward()[k] = position of input bit k in the output block.
  const std::vector<std::size_t>& forward() const { return forward_; }
  /// inverse()[k] = position of interleaved bit k in the deinterleaved
  /// block (deinterleave's scatter map).
  const std::vector<std::size_t>& inverse() const { return inverse_; }

 private:
  std::vector<std::size_t> forward_;
  std::vector<std::size_t> inverse_;
};

}  // namespace geosphere::coding
