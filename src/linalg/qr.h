// Householder QR decomposition for complex matrices: the scalar reference
// the packed QR driver (detect/prepare/batch_qr.h) transcribes lane for
// lane. Detectors factorize through that driver; tests pin its bits to
// householder_qr (tests/prepare_batch_test.cpp, PrepareDrivers).
#pragma once

#include "linalg/matrix.h"

namespace geosphere::linalg {

/// Thin QR of an m x n matrix with m >= n: A = Q R where Q is m x n with
/// orthonormal columns (Q^H Q = I) and R is n x n upper triangular with a
/// real, non-negative diagonal. A real non-negative diagonal is required by
/// the sphere decoder (partial distances divide by r_ll).
struct QrResult {
  CMatrix q;  ///< m x n, orthonormal columns.
  CMatrix r;  ///< n x n, upper triangular, diag real >= 0.
};

/// Computes the thin QR factorization via Householder reflections.
/// Throws std::invalid_argument when m < n.
QrResult householder_qr(const CMatrix& a);

}  // namespace geosphere::linalg
