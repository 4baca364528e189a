// Shared QR-triangularized form of the detection problem (paper Eq. 3/4),
// used by the tree-search detectors that do not need the full depth-first
// machinery (K-best, fixed-complexity).
//
// The channel-only work is done by the packed QR driver
// (prepare/batch_qr.h); install_factorized() takes one slot of it and
// precomputes the per-level scales, and load() rotates one received vector
// into the triangular basis. Detectors keep one TreeProblem in their
// workspace: install once per channel estimate, load once per received
// vector.
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
  CVector yhat;               ///< Q^H y (set by load()).
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

  /// Per-vector phase: rotate `y` into the triangular basis (yhat = Q^H y).
  void load(const CVector& y) {
    if (y.size() != qh.cols())
      throw std::invalid_argument("TreeProblem: y/H shape mismatch");
    multiply_into(qh, y, yhat);
  }

  /// Batched per-vector phase: rotate every column of `y_batch` at once,
  /// transposed -- row v of `yhat_t_batch` is bit-identical to what load()
  /// would put in `yhat` for column v (the multiply_transpose_into
  /// accumulation guarantee), and contiguous.
  void rotate_batch(const linalg::CMatrix& y_batch, linalg::CMatrix& yhat_t_batch) const {
    if (y_batch.rows() != qh.cols())
      throw std::invalid_argument("TreeProblem: Y/H shape mismatch");
    multiply_transpose_into(qh, y_batch, yhat_t_batch);
  }

  /// Selects row `v` of a rotate_batch() result as the loaded vector.
  void load_rotated(const linalg::CMatrix& yhat_t_batch, std::size_t v) {
    const cf64* row = yhat_t_batch.row_data(v);
    yhat.assign(row, row + yhat_t_batch.cols());
  }

  /// Grid-units center of level `l` given the decisions `path[j]` for j > l
  /// (the shared bit-exact kernel; see center.h).
  cf64 center(std::size_t l, const std::vector<unsigned>& path,
              const Constellation& cons) const {
    return tree_center(r, yhat.data(), l, path.data(), cons, diag[l]);
  }
};

}  // namespace geosphere::sphere
