#include "detect/ml_exhaustive.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace geosphere {

void MlExhaustiveDetector::do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                                            double /*noise_var*/) {
  if (count == 0) return;
  batch_hs_ = hs;
  const std::size_t nc = hs[0].cols();
  const unsigned m = constellation().order();
  double total = 1.0;
  for (std::size_t i = 0; i < nc; ++i) total *= static_cast<double>(m);
  batch_too_large_ = total > static_cast<double>(max_hypotheses_);
}

void MlExhaustiveDetector::do_select_prepared(std::size_t i) {
  if (batch_too_large_)
    throw std::invalid_argument("MlExhaustiveDetector: search space too large");
  h_ = batch_hs_[i];
}

void MlExhaustiveDetector::do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) {
  if (y_batch.rows() != h_.rows())
    throw std::invalid_argument("MlExhaustiveDetector: y/H shape mismatch");
  const std::size_t na = h_.rows();
  const std::size_t nc = h_.cols();
  const unsigned m = constellation().order();
  const std::size_t count = y_batch.cols();
  out.count = count;
  out.streams = nc;
  out.indices.resize(count * nc);
  DetectionStats stats;
  hs_.resize(na);

  for (std::size_t v = 0; v < count; ++v) {
    y_batch.col_into(v, y_);
    current_.assign(nc, 0);
    best_.assign(nc, 0);
    best_distance_ = std::numeric_limits<double>::infinity();
    for (;;) {
      // Compute ||y - H s||^2 for the current hypothesis.
      for (std::size_t i = 0; i < na; ++i) {
        cf64 acc{};
        for (std::size_t k = 0; k < nc; ++k)
          acc += h_(i, k) * constellation().point(current_[k]);
        hs_[i] = acc;
      }
      const double d = linalg::distance_sq(y_, hs_);
      ++stats.ped_computations;
      if (d < best_distance_) {
        best_distance_ = d;
        best_ = current_;
      }

      // Odometer increment over the hypothesis space.
      std::size_t pos = 0;
      while (pos < nc && ++current_[pos] == m) {
        current_[pos] = 0;
        ++pos;
      }
      if (pos == nc) break;
    }
    std::copy(best_.begin(), best_.end(),
              out.indices.begin() + static_cast<std::ptrdiff_t>(v * nc));
  }
  out.stats = stats;
}

}  // namespace geosphere
