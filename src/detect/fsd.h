// Fixed-complexity sphere decoder (Barbero & Thompson) -- a breadth-then-
// plunge baseline from the paper's related work: full expansion at the top
// tree level, then a single (sliced) child per level for each path.
// Deterministic complexity, asymptotically near-ML at high SNR only.
#pragma once

#include <vector>

#include "detect/detector.h"
#include "detect/prepare/batch_qr.h"
#include "detect/sphere/enumerators.h"
#include "detect/sphere/tree_problem.h"

namespace geosphere {

class FsdDetector final : public Detector {
 public:
  explicit FsdDetector(const Constellation& c);

  std::string name() const override { return "FSD"; }

 protected:
  /// One mat-mat Q^H Y rotation, then one expand-and-plunge pass per
  /// column against warm path workspaces.
  void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) override;
  /// Packed Householder QR across the batch (prepare/batch_qr.h); select
  /// installs slot i into problem_, or throws the batch's shape error or
  /// the slot's rank-deficiency error.
  void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                        double noise_var) override;
  void do_select_prepared(std::size_t i) override;

 private:
  /// Expand-and-plunge pass over the rotated vector `yhat` (one row of
  /// yhat_t_batch_); returns the winning path. Counters accumulate into
  /// `stats`. Throws std::runtime_error when a level expands no child.
  const std::vector<unsigned>& search(const cf64* yhat, DetectionStats& stats);

  sphere::GeoEnumerator enumerator_;
  sphere::TreeProblem problem_;  ///< Factorized by prepare().

  // Batched-prepare state (prepare_batch override; see prepare/batch_qr.h).
  prepare::BatchQr batch_qr_;
  std::vector<prepare::QrSlot> slot_qr_;
  bool batch_shape_bad_ = false;  ///< Deferred shape invalid_argument.

  // Reused per-solve workspaces (grown once, then allocation-free). The
  // expanded paths are structure-of-arrays -- pd[i] plus a flat nc-entry
  // row per path -- and the plunge runs level-major so each level's centers
  // compute packed across all paths at once (tree_center_lanes).
  std::vector<double> paths_pd_;
  std::vector<unsigned> paths_flat_;
  std::vector<cf64> centers_;
  std::vector<unsigned> root_;
  std::vector<unsigned> best_path_;
  linalg::CMatrix yhat_t_batch_;  ///< (Q^H Y)^T -- one row per vector.
};

}  // namespace geosphere
