#include "detect/rvd_sphere.h"

#include <limits>
#include <stdexcept>

namespace geosphere {

void RvdSphereDecoder::do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                                        double /*noise_var*/) {
  if (count == 0) return;
  const std::size_t nc = hs[0].cols();
  const std::size_t na = hs[0].rows();
  batch_shape_bad_ = nc == 0 || na < nc;
  if (batch_shape_bad_) return;  // invalid_argument, at select.

  // Every slot's real embedding (stored in complex matrices with zero
  // imaginary parts so the complex QR can be reused; R comes out real).
  // The packed driver then factorizes the embeddings and reads their
  // Frobenius norms for the rank tolerance.
  batch_hr_.resize(count);
  for (std::size_t s = 0; s < count; ++s) {
    const linalg::CMatrix& h = hs[s];
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
  batch_qr_.run(batch_hr_.data(), count, slot_qr_);
  batch_na_ = na;
  batch_nc_ = nc;
}

void RvdSphereDecoder::do_select_prepared(std::size_t i) {
  if (batch_shape_bad_)
    throw std::invalid_argument("RvdSphereDecoder: requires 1 <= n_c <= n_a");
  const prepare::QrSlot& slot = slot_qr_[i];
  if (!slot.rank_ok) throw std::domain_error("RvdSphereDecoder: rank-deficient channel");
  na_ = batch_na_;
  nc_ = batch_nc_;
  qh_ = slot.qh;
  r_ = slot.r;
  const std::size_t rn = 2 * nc_;
  const double alpha = constellation().scale();
  if (level_enum_.size() != rn) {
    level_enum_.assign(rn, sphere::Zigzag1D{});
    level_scale_.assign(rn, 0.0);
    partial_.assign(rn + 1, 0.0);
    centers_.assign(rn, 0.0);
    current_.assign(rn, 0);
    best_.assign(rn, 0);
  }
  for (std::size_t l = 0; l < rn; ++l) {
    const double rll = r_(l, l).real();
    level_scale_[l] = rll * rll * alpha * alpha;
  }
}

void RvdSphereDecoder::do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) {
  if (y_batch.rows() != na_)
    throw std::invalid_argument("RvdSphereDecoder: Y/H shape mismatch");

  const std::size_t na = na_;
  const std::size_t count = y_batch.cols();

  // Embed every column (real parts over imaginary parts), then rotate the
  // whole embedded batch with one transposed mat-mat product (row v of
  // (Q^H Yr)^T is bit-identical to the mat-vec Q^H yr_v, and contiguous).
  yr_batch_.assign_shape(2 * na, count);
  for (std::size_t v = 0; v < count; ++v)
    for (std::size_t i = 0; i < na; ++i) {
      const cf64 yv = y_batch(i, v);
      yr_batch_(i, v) = yv.real();
      yr_batch_(na + i, v) = yv.imag();
    }
  multiply_transpose_into(qh_, yr_batch_, yhat_t_batch_);

  out.count = count;
  out.streams = nc_;
  out.indices.resize(count * nc_);
  DetectionStats stats;
  for (std::size_t v = 0; v < count; ++v) {
    search(yhat_t_batch_.row_data(v), stats);
    emit_indices(out.indices.data() + v * nc_);
  }
  out.stats = stats;
}

void RvdSphereDecoder::search(const cf64* yhat, DetectionStats& stats) {
  const std::size_t rn = 2 * nc_;
  const Constellation& cons = constellation();
  const int levels = cons.pam_levels();
  const double alpha = cons.scale();

  double radius_sq = std::numeric_limits<double>::infinity();
  bool found = false;
  partial_[rn] = 0.0;

  // Per-level center in PAM grid units given decisions above.
  const auto center_at = [&](std::size_t l) {
    double c = yhat[l].real();
    for (std::size_t j = l + 1; j < rn; ++j)
      c -= r_(l, j).real() * alpha *
           static_cast<double>(cons.grid_of_level(current_[j]));
    return c / (r_(l, l).real() * alpha);
  };

  std::size_t level = rn - 1;
  centers_[level] = center_at(level);
  level_enum_[level].reset(centers_[level], levels);
  ++stats.slicer_ops;

  for (;;) {
    const double budget = (radius_sq - partial_[level + 1]) / level_scale_[level];
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
        partial_[level] = partial_[level + 1] + level_scale_[level] * cost;
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
  for (std::size_t k = 0; k < nc_; ++k)
    indices[k] = cons.index_from_levels(best_[k], best_[nc_ + k]);
}

}  // namespace geosphere
