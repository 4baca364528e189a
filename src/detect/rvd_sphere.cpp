#include "detect/rvd_sphere.h"

#include <limits>
#include <stdexcept>

namespace geosphere {

void RvdSphereDecoder::do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                                        double /*noise_var*/) {
  // Every slot's real embedding (stored in complex matrices with zero
  // imaginary parts so the complex QR can be reused; R comes out real).
  // The packed driver then factorizes the embeddings and reads their
  // Frobenius norms for the rank tolerance; the embedding of a bad shape
  // is a bad shape.
  if (batch_hr_.size() < count) batch_hr_.resize(count);
  for (std::size_t s = 0; s < count; ++s) {
    const linalg::CMatrix& h = hs[s];
    const std::size_t na = h.rows();
    const std::size_t nc = h.cols();
    linalg::CMatrix& hr = batch_hr_[s];
    hr.assign_shape(2 * na, 2 * nc);
    for (std::size_t i = 0; i < na; ++i) {
      for (std::size_t j = 0; j < nc; ++j) {
        const cf64 v = h(i, j);
        hr(i, j) = v.real();
        hr(i, nc + j) = -v.imag();
        hr(na + i, j) = v.imag();
        hr(na + i, nc + j) = v.real();
      }
    }
  }
  problem_.prepare_batch(batch_hr_.data(), count);
}

void RvdSphereDecoder::do_select_prepared(std::size_t i) {
  problem_.select(i);
  const std::size_t rn = problem_.nc;
  if (level_enum_.size() != rn) {
    level_enum_.assign(rn, sphere::Zigzag1D{});
    partial_.assign(rn + 1, 0.0);
    centers_.assign(rn, 0.0);
    current_.assign(rn, 0);
    best_.assign(rn, 0);
  }
}

void RvdSphereDecoder::do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) {
  // Embed every column (real parts over imaginary parts), then rotate the
  // whole embedded batch at once: row v of (Q^H Yr)^T is bit-identical to
  // the mat-vec Q^H yr_v, and contiguous. A batch without n_a rows embeds
  // to one without 2 n_a rows, which the rotation rejects.
  const std::size_t na = y_batch.rows();
  const std::size_t count = y_batch.cols();
  yr_batch_.assign_shape(2 * na, count);
  for (std::size_t v = 0; v < count; ++v)
    for (std::size_t i = 0; i < na; ++i) {
      const cf64 yv = y_batch(i, v);
      yr_batch_(i, v) = yv.real();
      yr_batch_(na + i, v) = yv.imag();
    }
  problem_.rotate(yr_batch_);

  const std::size_t nc = problem_.nc / 2;
  out.count = count;
  out.streams = nc;
  out.indices.resize(count * nc);
  DetectionStats stats;
  for (std::size_t v = 0; v < count; ++v) {
    search(problem_.yhat_t.row_data(v), problem_.root_centers[v].real(), stats);
    emit_indices(out.indices.data() + v * nc);
  }
  out.stats = stats;
}

void RvdSphereDecoder::search(const cf64* yhat, double root_center, DetectionStats& stats) {
  const std::size_t rn = problem_.nc;
  const linalg::CMatrix& r = problem_.r;
  const Constellation& cons = constellation();
  const int levels = cons.pam_levels();
  const double alpha = cons.scale();

  double radius_sq = std::numeric_limits<double>::infinity();
  bool found = false;
  partial_[rn] = 0.0;

  // Per-level center in PAM grid units given decisions above (the root's
  // comes packed: no decisions above it).
  const auto center_at = [&](std::size_t l) {
    double c = yhat[l].real();
    for (std::size_t j = l + 1; j < rn; ++j)
      c -= r(l, j).real() * alpha *
           static_cast<double>(cons.grid_of_level(current_[j]));
    return c / problem_.diag[l];
  };

  std::size_t level = rn - 1;
  centers_[level] = root_center;
  level_enum_[level].reset(centers_[level], levels);
  ++stats.slicer_ops;

  for (;;) {
    const double budget = (radius_sq - partial_[level + 1]) / problem_.scale[level];
    bool advanced = false;
    if (!level_enum_[level].done()) {
      const int lev = level_enum_[level].peek_level();
      const double d = static_cast<double>(cons.grid_of_level(lev)) - centers_[level];
      const double cost = d * d;
      ++stats.ped_computations;
      if (cost < budget) {
        level_enum_[level].take();
        ++stats.visited_nodes;
        current_[level] = lev;
        partial_[level] = partial_[level + 1] + problem_.scale[level] * cost;
        advanced = true;
        if (level == 0) {
          radius_sq = partial_[0];
          best_ = current_;
          found = true;
        } else {
          --level;
          centers_[level] = center_at(level);
          level_enum_[level].reset(centers_[level], levels);
          ++stats.slicer_ops;
        }
      } else {
        level_enum_[level].close();  // Sorted per level: nothing else fits.
      }
    }
    if (!advanced && level_enum_[level].done()) {
      ++level;  // Backtrack.
      if (level == rn) break;
    }
  }
  if (!found)
    throw std::runtime_error("RvdSphereDecoder: no solution found (unbounded search)");
}

void RvdSphereDecoder::emit_indices(unsigned* indices) const {
  // Recombine PAM components into QAM indices: level j < nc is the real
  // part (I level) of stream j, level nc + j the imaginary part.
  const Constellation& cons = constellation();
  const std::size_t nc = problem_.nc / 2;
  for (std::size_t k = 0; k < nc; ++k)
    indices[k] = cons.index_from_levels(best_[k], best_[nc + k]);
}

}  // namespace geosphere
