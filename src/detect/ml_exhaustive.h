// Exhaustive maximum-likelihood detector: the gold standard the sphere
// decoders must match (Eq. 1 of the paper). O(|O|^nc) - test oracle and
// complexity yardstick only.
#pragma once

#include "detect/detector.h"

namespace geosphere {

class MlExhaustiveDetector final : public Detector {
 public:
  /// `max_hypotheses` guards against accidentally launching an infeasible
  /// search (e.g. 256-QAM with 4 streams = 4.3e9 hypotheses).
  explicit MlExhaustiveDetector(const Constellation& c,
                                std::uint64_t max_hypotheses = 20'000'000)
      : Detector(c), max_hypotheses_(max_hypotheses) {}

  /// Distance ||y - H s*||^2 of the ML solution for the last received
  /// vector solved (the last column of the last batch).
  double last_distance_sq() const { return best_distance_; }

  std::string name() const override { return "ML-exhaustive"; }

 protected:
  /// Nothing to factorize: records the batch and whether M^n_c exceeds
  /// max_hypotheses; select copies hs[i] or throws.
  void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                        double noise_var) override;
  void do_select_prepared(std::size_t i) override;
  /// The exhaustive search, once per column: nothing is shared across
  /// received vectors, so the batch is a plain loop.
  void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) override;

 private:
  std::uint64_t max_hypotheses_;
  linalg::CMatrix h_;  ///< The prepared channel (exhaustion needs H itself).
  const linalg::CMatrix* batch_hs_ = nullptr;  ///< Caller-owned (contract).
  bool batch_too_large_ = false;
  double best_distance_ = 0.0;

  // Reused per-solve workspaces.
  std::vector<unsigned> current_;
  std::vector<unsigned> best_;
  CVector y_;
  CVector hs_;
};

}  // namespace geosphere
