// The per-level center computation shared by every QR-triangularized tree
// search (SphereDecoder and both soft-output Geosphere detectors).
//
// Bit-identity contract: per product this computes the exact naive
// complex-multiply formula (ar*br - ai*bi, ar*bi + ai*br) with one
// rounding per operation, accumulated in ascending-j order from yhat[l] --
// the historical `c -= r(l, j) * point(path[j])` arithmetic -- so results
// are bit-identical to the std::complex operators for finite data, minus
// their per-multiply NaN-recovery branch. Batch-vs-loop detection parity
// rests on every caller using this one implementation.
#pragma once

#include <cstddef>

#include "common/types.h"
#include "constellation/constellation.h"
#include "linalg/matrix.h"

namespace geosphere::sphere {

/// Grid-units center of tree level `l` given the symbol decisions
/// `path[j]` for j > l: (yhat[l] - sum_j r(l,j) * point(path[j])) /
/// diag_l, where `diag_l` is the prepared r_ll * alpha product.
inline cf64 tree_center(const linalg::CMatrix& r, const cf64* yhat, std::size_t l,
                        const unsigned* path, const Constellation& cons,
                        double diag_l) {
  const cf64* rrow = r.row_data(l);
  double cre = yhat[l].real();
  double cim = yhat[l].imag();
  for (std::size_t j = l + 1; j < r.cols(); ++j) {
    const cf64 rij = rrow[j];
    const cf64 s = cons.point(path[j]);
    const double t_re = rij.real() * s.real() - rij.imag() * s.imag();
    const double t_im = rij.real() * s.imag() + rij.imag() * s.real();
    cre -= t_re;
    cim -= t_im;
  }
  return cf64(cre, cim) / diag_l;
}

}  // namespace geosphere::sphere
