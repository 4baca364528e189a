// General linear solves and (pseudo-)inverses for complex matrices.
// inverse() and pseudo_inverse() are the scalar references the packed
// Gram/Gauss-Jordan driver (detect/prepare/batch_linear.h) transcribes lane
// for lane; detectors build their filters through that driver, and tests
// pin its bits to these functions (tests/prepare_batch_test.cpp,
// PrepareDrivers).
#pragma once

#include "linalg/matrix.h"

namespace geosphere::linalg {

/// Inverse of a square complex matrix via Gauss-Jordan elimination with
/// partial pivoting. Throws std::domain_error when the matrix is singular
/// to working precision.
CMatrix inverse(const CMatrix& a);

/// Solve A x = b for square A (partial pivoting).
CVector solve(const CMatrix& a, const CVector& b);

/// Moore-Penrose pseudo-inverse for a full-column-rank tall matrix:
/// pinv(A) = (A^H A)^{-1} A^H. This is the zero-forcing filter.
CMatrix pseudo_inverse(const CMatrix& a);

}  // namespace geosphere::linalg
