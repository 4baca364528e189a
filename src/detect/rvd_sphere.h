// Real-valued decomposition (RVD) sphere decoder: the alternative tree
// formulation used by much of the VLSI literature (e.g. the K-best
// decoders of paper Section 6.1). The complex system y = Hs + w becomes
//
//   [Re y]   [Re H  -Im H] [Re s]
//   [Im y] = [Im H   Re H] [Im s] + real noise
//
// i.e. a tree of height 2*n_c with branching sqrt(M) (one PAM component
// per level) instead of Geosphere's height-n_c, branching-M complex tree.
// Exact ML, Schnorr-Euchner order per level via the 1D zigzag. Included as
// an ablation point: RVD trades more tree levels (and typically more node
// visits) for trivially cheap per-level enumeration.
//
// prepare() builds the real embedding of H and QR-factorizes it once, as
// the shared prepared channel (tree_problem.h) of the 2 n_a x 2 n_c
// embedding; solve_batch() embeds and rotates the whole batch, then runs
// one search per received vector.
#pragma once

#include <cstddef>
#include <vector>

#include "detect/detector.h"
#include "detect/sphere/tree_problem.h"
#include "detect/sphere/zigzag1d.h"

namespace geosphere {

class RvdSphereDecoder final : public Detector {
 public:
  explicit RvdSphereDecoder(const Constellation& c)
      : Detector(c), problem_("RvdSphereDecoder", c.scale()) {}

  std::string name() const override { return "RVD-SD"; }

 protected:
  /// Embeds the whole batch into the real formulation and rotates it with
  /// the shared SIMD-batched rotation (TreeProblem::rotate), then runs one
  /// search per column.
  void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) override;
  /// Builds every slot's real embedding, then one packed Householder QR
  /// across the batch (TreeProblem::prepare_batch); select installs slot
  /// i, or throws the batch's shape error or the slot's rank-deficiency
  /// error.
  void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                        double noise_var) override;
  void do_select_prepared(std::size_t i) override;

 private:
  /// Depth-first search over the real-valued tree, reading the rotated
  /// embedding from `yhat` (length 2 n_c) and starting from its packed
  /// root center; leaves the winning PAM levels in best_ and accumulates
  /// counters into `stats`. Throws std::runtime_error when the search
  /// reaches no leaf.
  void search(const cf64* yhat, double root_center, DetectionStats& stats);

  /// Recombines best_'s PAM components into per-stream QAM indices.
  void emit_indices(unsigned* indices) const;

  sphere::TreeProblem problem_;           ///< Of the real embedding.
  std::vector<linalg::CMatrix> batch_hr_;  ///< Per-slot real embeddings.
  linalg::CMatrix yr_batch_;               ///< Real embedding of Y.

  // Reused per-solve workspaces.
  std::vector<sphere::Zigzag1D> level_enum_;
  std::vector<double> partial_;
  std::vector<double> centers_;
  std::vector<int> current_;
  std::vector<int> best_;
};

}  // namespace geosphere
