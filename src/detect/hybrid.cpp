#include "detect/hybrid.h"

#include "linalg/cond.h"

namespace geosphere {

HybridDetector::HybridDetector(const Constellation& c, double threshold_kappa_sq_db)
    : Detector(c),
      threshold_db_(threshold_kappa_sq_db),
      zf_(std::make_unique<ZeroForcingDetector>(c)),
      geosphere_(sphere::make_geosphere_typed(c)) {}

void HybridDetector::do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                                      double noise_var) {
  if (count == 0) return;
  batch_hs_ = hs;
  batch_noise_var_ = noise_var;
  const std::size_t nc = hs[0].cols();
  batch_shape_bad_ = nc == 0 || hs[0].rows() < nc;
  if (batch_shape_bad_) return;
  batch_qr_.run(hs, count, slot_qr_);
}

void HybridDetector::do_select_prepared(std::size_t i) {
  ++calls_;  // One routing decision per selected channel.
  if (batch_shape_bad_) {
    active_ = zf_.get();
    active_->prepare(batch_hs_[i], batch_noise_var_);
    return;
  }
  // One QR serves both phases: R's diagonal prices the conditioning
  // (qr_diag_condition_sq_db) and, when the channel routes to the sphere
  // decoder, the factorization is adopted instead of recomputed.
  const prepare::QrSlot& slot = slot_qr_[i];
  const double kappa_sq_db = linalg::qr_diag_condition_sq_db(slot.r);
  if (kappa_sq_db > threshold_db_) {
    ++sphere_calls_;
    active_ = geosphere_.get();
    geosphere_->prepare_adopted(batch_hs_[i], slot);
  } else {
    active_ = zf_.get();
    active_->prepare(batch_hs_[i], batch_noise_var_);
  }
}

void HybridDetector::do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) {
  // The outer solve_batch() re-stamps batch_calls = 1 and solve() clears
  // it, so the inner detector's own stamp never double-counts.
  active_->solve_batch(y_batch, out);
}

}  // namespace geosphere
