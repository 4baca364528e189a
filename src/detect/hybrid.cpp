#include "detect/hybrid.h"

#include "linalg/cond.h"

namespace geosphere {

HybridDetector::HybridDetector(const Constellation& c, double threshold_kappa_sq_db)
    : Detector(c),
      threshold_db_(threshold_kappa_sq_db),
      zf_(std::make_unique<ZeroForcingDetector>(c)),
      geosphere_(sphere::make_geosphere_typed(c)),
      problem_("HybridDetector", c.scale()) {}

void HybridDetector::do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                                      double noise_var) {
  batch_hs_ = hs;
  batch_noise_var_ = noise_var;
  problem_.prepare_batch(hs, count);
}

void HybridDetector::do_select_prepared(std::size_t i) {
  ++calls_;  // One routing decision per selected channel.
  if (!problem_.shape_ok()) {
    active_ = zf_.get();
    active_->prepare(batch_hs_[i], batch_noise_var_);
    return;
  }
  // One QR serves both phases: R's diagonal prices the conditioning
  // (qr_diag_condition_sq_db) and, when the channel routes to the sphere
  // decoder, the factorization is adopted instead of recomputed. A slot
  // that fails the rank test goes there too: the adoption throws its
  // domain_error, where the conditioning of a NaN diagonal would read as
  // finite and route to ZF.
  const prepare::QrSlot& slot = problem_.slot(i);
  if (!slot.rank_ok || linalg::qr_diag_condition_sq_db(slot.r) > threshold_db_) {
    ++sphere_calls_;
    active_ = geosphere_.get();
    geosphere_->prepare_adopted(slot);
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
