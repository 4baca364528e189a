// Singular values and condition numbers (the paper's kappa^2 metric).
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace geosphere::linalg {

/// Singular values of an arbitrary complex matrix, ascending. Computed as
/// the square roots of the eigenvalues of A^H A (clamped at zero).
std::vector<double> singular_values(const CMatrix& a);

/// kappa(A) = sigma_max / sigma_min. Returns +inf for singular matrices.
double condition_number(const CMatrix& a);

/// kappa^2(A) in dB: the paper's channel-conditioning metric (Fig. 9), an
/// upper bound on zero-forcing noise amplification.
double condition_number_sq_db(const CMatrix& a);

}  // namespace geosphere::linalg
