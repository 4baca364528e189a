// Packed Gram construction and Gauss-Jordan inversion across a batch of
// equally shaped channel matrices: the one engine behind the linear
// detectors' prepare_batch() (ZF's pseudo-inverse, MMSE's regularized Gram
// inverse, MMSE-SIC's per-stage filter cascade) -- and so behind their
// one-shot prepare(), a batch of one.
//
// Each slot is bit-identical to the scalar linalg references it transcribes
// (linalg::inverse / linalg::pseudo_inverse on hs[i]); lanes where those
// would throw their singular-matrix domain_error are flagged instead, go
// inert for the remaining elimination columns, and the caller throws that
// exception at select time. PrepareDrivers in tests/prepare_batch_test.cpp
// checks the bits and the flags at every kernel tier, including degenerate
// channels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace geosphere::prepare {

/// One regularized-Gram inversion of a batch.
struct GramInvSlot {
  linalg::CMatrix hh;   ///< H^H (n_c x n_a), exactly hs[i].hermitian().
  linalg::CMatrix inv;  ///< (H^H H [+ noise_var I])^{-1} (n_c x n_c).
  /// True when linalg::inverse would have thrown its singular-matrix
  /// domain_error (inv's contents are then meaningless).
  bool singular = false;
};

/// Batched linear-preparation driver. Owns the packed scratch (reused
/// across calls); one instance per detector, not thread-safe.
class BatchLinear {
 public:
  /// Slot i bit-identical to:
  ///   hh   = hs[i].hermitian();
  ///   gram = hh * hs[i];                    // multiply_into order
  ///   if (add_noise) gram(d, d) += noise_var;
  ///   inv  = linalg::inverse(gram);
  /// with the singular case flagged per slot instead of thrown. All hs must
  /// share one shape (any rows x cols; the Gram is cols x cols).
  void gram_inverse(const linalg::CMatrix* hs, std::size_t count, bool add_noise,
                    double noise_var, std::vector<GramInvSlot>& out);

  /// Slot i bit-identical to linalg::pseudo_inverse(hs[i]) =
  /// inverse(H^H H) * H^H; the caller has already validated the tall
  /// (rows >= cols) shape. singular[i] is set where pseudo_inverse would
  /// have thrown.
  void pseudo_inverse(const linalg::CMatrix* hs, std::size_t count,
                      std::vector<linalg::CMatrix>& filters,
                      std::vector<std::uint8_t>& singular);

 private:
  /// Packed Gauss-Jordan of [A | B] -> [I | A^{-1} B] over the chunk's SoA
  /// buffers (a_: L lanes of n x n, b_: L lanes of n x bcols), a
  /// lane-for-lane transcription of solve.cpp's gauss_jordan. Lanes whose
  /// pivot falls below the scalar tolerance drop out of active_ and keep
  /// their bits from that point on.
  void gauss_jordan_packed(std::size_t n, std::size_t bcols, std::size_t lanes);

  // Row-major SoA chunk scratch: element (i,j) of lane l at
  // [(i*cols + j)*lanes + l].
  std::vector<double> h_re_, h_im_;    // Gathered channels (m x n).
  std::vector<double> ah_re_, ah_im_;  // H^H (n x m).
  std::vector<double> a_re_, a_im_;    // Gram -> eliminated in place (n x n).
  std::vector<double> b_re_, b_im_;    // Identity -> inverse (n x n).
  std::vector<double> f_re_, f_im_;    // Filter product (n x m).
  std::vector<double> tol_;            // Per-lane pivot tolerance.
  std::vector<double> pr_, pi_, mask_, gr_, gi_;  // Per-lane pivot scale / factors.
  std::vector<std::uint8_t> active_;   // Per-lane not-yet-singular flags.
};

}  // namespace geosphere::prepare
