// K-best (breadth-first) sphere decoder -- a related-work baseline
// (paper Section 6.1). Keeps the K lowest-distance partial candidates per
// tree level, ignoring the sphere constraint. Near-ML only: the true ML
// path can be pruned when K is small, which is exactly the drawback the
// paper points out for dense constellations.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "detect/detector.h"
#include "detect/sphere/enumerators.h"
#include "detect/sphere/tree_problem.h"

namespace geosphere {

class KBestDetector final : public Detector {
 public:
  KBestDetector(const Constellation& c, unsigned k);

  unsigned k() const { return k_; }
  std::string name() const override;

 protected:
  /// The shared SIMD-batched Q^H Y rotation (TreeProblem::rotate), then
  /// one breadth-first pass per column against warm candidate workspaces.
  void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) override;
  /// Packed Householder QR across the batch (TreeProblem::prepare_batch);
  /// select installs slot i, or throws the batch's shape error or the
  /// slot's rank-deficiency error.
  void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                        double noise_var) override;
  void do_select_prepared(std::size_t i) override;

 private:
  /// Breadth-first K-best pass over the rotated vector `yhat` (one row of
  /// problem_.yhat_t); the winner ends in the first row of surv_path_.
  /// Counters accumulate into `stats`. Throws std::runtime_error when a
  /// level keeps no survivor.
  void search(const cf64* yhat, DetectionStats& stats);

  unsigned k_;
  sphere::GeoEnumerator enumerator_;
  sphere::TreeProblem problem_;  ///< The prepared channel.

  // Reused per-solve workspaces (grown once, then allocation-free).
  // Candidates are structure-of-arrays: pd[i] plus a flat nc-entry path row
  // per candidate, so the per-level center computations treat the survivors
  // as lockstep SIMD lanes (tree_center_lanes).
  std::vector<double> surv_pd_, exp_pd_;
  std::vector<unsigned> surv_path_, exp_path_;
  std::vector<std::pair<double, unsigned>> order_;  ///< (pd, slot) sort keys.
  std::vector<cf64> centers_;
};

}  // namespace geosphere
