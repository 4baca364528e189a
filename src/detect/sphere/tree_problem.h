// Shared QR-triangularized form of the detection problem (paper Eq. 3/4),
// used by the tree-search detectors that do not need the full depth-first
// machinery (K-best, fixed-complexity).
//
// The channel-only work is done by the packed QR driver
// (prepare/batch_qr.h); install_factorized() takes one slot of it and
// precomputes the per-level scales, and rotate_batch() rotates a batch of
// received vectors into the triangular basis, one row per vector. The
// problem holds channel state only: the searches read each rotated vector
// in place from its row. Detectors keep one TreeProblem in their
// workspace, installed once per channel estimate.
#pragma once

#include <stdexcept>
#include <vector>

#include "constellation/constellation.h"
#include "detect/sphere/center.h"
#include "linalg/matrix.h"

namespace geosphere::sphere {

struct TreeProblem {
  linalg::CMatrix r;          ///< Upper triangular, real non-negative diagonal.
  linalg::CMatrix qh;         ///< Q^H, applied to each received vector.
  std::vector<double> scale;  ///< Per level: |r_ll|^2 * alpha^2.
  std::vector<double> diag;   ///< Per level: r_ll * alpha (center denominator).
  double alpha = 1.0;

  /// Installs a factorization of the channel (prepare/batch_qr.h slot:
  /// qh_in = Q^H, r_in = R with real non-negative diagonal) and precomputes
  /// the per-level scales; the caller has already handled the shape and
  /// rank failures the batched driver reported.
  void install_factorized(const linalg::CMatrix& qh_in, const linalg::CMatrix& r_in,
                          const Constellation& cons) {
    const std::size_t nc = r_in.cols();
    alpha = cons.scale();
    qh = qh_in;
    scale.resize(nc);
    diag.resize(nc);
    for (std::size_t l = 0; l < nc; ++l) {
      const double rll = r_in(l, l).real();
      scale[l] = rll * rll * alpha * alpha;
      diag[l] = rll * alpha;
    }
    r = r_in;
  }

  /// Per-vector phase, batched: rotate every column of `y_batch` at once,
  /// transposed -- row v of `yhat_t_batch` is bit-identical to the mat-vec
  /// Q^H y_v (the multiply_transpose_into accumulation guarantee), and
  /// contiguous.
  void rotate_batch(const linalg::CMatrix& y_batch, linalg::CMatrix& yhat_t_batch) const {
    if (y_batch.rows() != qh.cols())
      throw std::invalid_argument("TreeProblem: Y/H shape mismatch");
    multiply_transpose_into(qh, y_batch, yhat_t_batch);
  }

  /// Grid-units center of level `l` of the rotated vector `yhat` (one
  /// rotate_batch() row) given the decisions `path[j]` for j > l (the
  /// shared bit-exact kernel; see center.h).
  cf64 center(const cf64* yhat, std::size_t l, const std::vector<unsigned>& path,
              const Constellation& cons) const {
    return tree_center(r, yhat, l, path.data(), cons, diag[l]);
  }
};

}  // namespace geosphere::sphere
