// The prepared channel of every QR tree detector: the QR-triangularized
// detection problem (paper Eq. 3/4: H = QR, yhat = Q^H y) that Geosphere,
// ETH-SD, Shabany and the soft-output Geosphere variants search. A detector
// holds one TreeProblem and drives it through the phases of the detection
// contract:
//
//   prepare_batch(hs, count) -- records a bad shape, or runs the packed QR
//                               (prepare/batch_qr.h) into its own slots;
//   select(i)                -- throws the shape error or slot i's rank
//                               error, naming the detector, or installs
//                               slot i: Q^H, R, per-level scale and diag;
//   rotate(Y)                -- (Q^H Y)^T into yhat_t, one row per vector,
//                               plus the packed root centers (simd/rotate.h).
//
// The searches read the public members in place. What differs stays in
// each detector: sorted QR's orders, the soft detectors' noise check and
// the search workspaces. Once warm, no phase allocates.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "detect/prepare/batch_qr.h"
#include "detect/sphere/simd/rotate.h"
#include "linalg/matrix.h"

namespace geosphere::sphere {

class TreeProblem {
 public:
  /// `who` names the detector in every error thrown here and must outlive
  /// this object (a string literal, or the owning detector's name);
  /// `alpha` is its constellation's scale().
  TreeProblem(const char* who, double alpha) : who_(who), alpha_(alpha) {}

  /// Factorizes hs[0..count), all of one shape, unless that shape breaks
  /// 1 <= n_c <= n_a; every select() then throws std::invalid_argument.
  void prepare_batch(const linalg::CMatrix* hs, std::size_t count);
  void check_shape() const;  ///< Throws the batch's shape error, if any.

  /// check_shape(), then throws std::domain_error unless slot i passed the
  /// rank test; else installs slot i.
  void select(std::size_t i);

  /// Row v of yhat_t is bit-identical to the mat-vec Q^H y_v, and
  /// root_centers[v] to the root-level tree_center of that row. Throws
  /// std::invalid_argument unless `y_batch` has n_a rows.
  void rotate(const linalg::CMatrix& y_batch);

  std::size_t na = 0;              ///< Receive antennas: Q^H's columns.
  std::size_t nc = 0;              ///< Tree levels: R's order.
  linalg::CMatrix qh;              ///< Q^H.
  linalg::CMatrix r;               ///< Upper triangular, real non-negative diagonal.
  std::vector<double> scale;       ///< Per level: |r_ll|^2 * alpha^2.
  std::vector<double> diag;        ///< Per level: r_ll * alpha (center denominator).
  linalg::CMatrix yhat_t;          ///< (Q^H Y)^T of the last rotate().
  std::vector<cf64> root_centers;  ///< Root-level center of each yhat_t row.

 private:
  const char* who_;
  double alpha_;
  bool shape_bad_ = false;
  prepare::BatchQr batch_qr_;
  std::vector<prepare::QrSlot> slots_;
  simd::RotateScratch rot_scratch_;
};

}  // namespace geosphere::sphere
