#include "linalg/cond.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/db.h"
#include "linalg/hermitian.h"

namespace geosphere::linalg {

std::vector<double> singular_values(const CMatrix& a) {
  // Work with the smaller Gram matrix for efficiency.
  const CMatrix gram =
      (a.rows() >= a.cols()) ? a.hermitian() * a : a * a.hermitian();
  std::vector<double> eig = hermitian_eigenvalues(gram);
  for (auto& v : eig) v = std::sqrt(std::max(v, 0.0));
  return eig;  // Ascending.
}

double condition_number(const CMatrix& a) {
  const auto sv = singular_values(a);
  if (sv.empty()) return std::numeric_limits<double>::infinity();
  const double smin = sv.front();
  const double smax = sv.back();
  if (smin <= 0.0) return std::numeric_limits<double>::infinity();
  return smax / smin;
}

double condition_number_sq_db(const CMatrix& a) {
  const double k = condition_number(a);
  if (!std::isfinite(k)) return std::numeric_limits<double>::infinity();
  return lin_to_db(k * k);
}

}  // namespace geosphere::linalg
