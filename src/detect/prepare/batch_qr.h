// Packed Householder QR across a batch of equally shaped channel matrices:
// the one factorization engine behind every tree-search detector's
// prepare_batch() (the sphere decoders and both soft-output detectors),
// all of which reach it through their prepared channel, sphere::TreeProblem
// (sphere/tree_problem.h) -- and so behind their one-shot prepare(), a
// batch of one.
//
// Each slot is bit-identical to
//
//   auto [q, r] = linalg::householder_qr(hs[i]);
//   qh = q.hermitian();
//
// followed by the tree searches' shared rank test (QrSlot::rank_ok) -- the
// driver packs the batch as SIMD lanes (matrices side by side, see
// simd/kernel.h), runs the column-level reflector/normalization ops through
// the active kernel tier, and keeps all once-per-column scalar work
// (norms, phases, square roots, complex division) in per-lane std::complex
// code identical to the scalar reference. PrepareDrivers in
// tests/prepare_batch_test.cpp checks those bits at every kernel tier,
// including degenerate channels.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace geosphere::prepare {

/// One factorized channel of a batch.
struct QrSlot {
  linalg::CMatrix qh;  ///< Q^H (n_c x n_a), exactly householder_qr's q.hermitian().
  linalg::CMatrix r;   ///< R (n_c x n_c), upper triangular, real non-negative diagonal.
  /// The tree searches' one rank test: ||H||_F^2 must be finite and every
  /// diagonal entry of R must exceed 1e-10 * sqrt(max(||H||_F^2, 1e-300)).
  /// False means the owning detector throws its rank-deficiency
  /// domain_error when slot i is selected (sphere/tree_problem.h), so a
  /// NaN or infinite entry in H fails at select instead of searching a NaN
  /// tree.
  bool rank_ok = true;
};

/// Batched Householder QR driver. Owns the packed scratch (reused across
/// calls, no per-batch heap traffic once warm); one instance per detector,
/// not thread-safe (detectors already are one-instance-per-thread).
class BatchQr {
 public:
  /// Factorizes hs[0..count) -- all the same shape, rows >= cols >= 1 (the
  /// caller validates the shape). Slots are resized and overwritten; slot i
  /// is bit-identical to the scalar reference factorization of hs[i] at
  /// every kernel tier.
  void run(const linalg::CMatrix* hs, std::size_t count, std::vector<QrSlot>& out);

 private:
  // Column-major SoA chunk scratch: element (i,j) of lane l at
  // [(j*m + i)*lanes + l].
  std::vector<double> work_re_, work_im_;  // m x n working copy -> R in place.
  std::vector<double> q_re_, q_im_;        // m x n thin Q.
  std::vector<double> vs_re_, vs_im_;      // Reflector vectors, column k at [k*m*lanes].
  std::vector<double> vns_;                // Reflector ||v||^2, column k at [k*lanes].
  std::vector<double> norm_sq_, mag_;      // Per-lane column norms / diag magnitudes.
  std::vector<double> pr_r_, pi_r_, pr_q_, pi_q_;  // Per-lane normalization phases.
};

}  // namespace geosphere::prepare
