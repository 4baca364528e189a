// Depth-first Schnorr-Euchner sphere decoder (paper Section 2), templated
// on the child-enumeration strategy so Geosphere and the baselines share
// identical traversal and pruning logic. All instantiations return the
// exact maximum-likelihood solution (Eq. 1), and -- because every
// enumerator yields children in the same sorted order -- visit identical
// node sequences; only the PED-computation counts differ (Section 5.3).
//
// prepare() performs the per-channel work once (column ordering,
// Householder QR, per-level scale factors, workspace sizing) through the
// shared prepared channel (tree_problem.h); solve_batch() rotates the
// received vectors into the triangular basis together and runs one tree
// search per vector -- so an OFDM frame pays the factorization once per
// subcarrier, not once per received vector.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "detect/detector.h"
#include "detect/sphere/depth_first.h"
#include "detect/sphere/enumerators.h"
#include "detect/sphere/tree_problem.h"

namespace geosphere::sphere {

struct SphereConfig {
  /// Order channel columns by energy before the QR decomposition
  /// (off by default: the paper's decoders process columns as-is).
  bool sorted_qr = false;
};

template <class Enumerator>
class SphereDecoder final : public Detector {
 public:
  SphereDecoder(const Constellation& c, Enumerator prototype, std::string name,
                SphereConfig config = {})
      : Detector(c), prototype_(prototype), name_(std::move(name)), config_(config),
        problem_(name_.c_str(), c.scale()) {
    prototype_.attach(c);
  }

  std::string name() const override { return name_; }
  const SphereConfig& config() const { return config_; }

 protected:
  /// The shared SIMD-batched Q^H Y rotation and packed root centers
  /// (TreeProblem::rotate), then one depth-first search per row
  /// (depth_first.h). Every tier's rotation row and root center is
  /// bit-identical to the scalar per-vector arithmetic, so a vector's
  /// result does not depend on the tier, its column or the batch size. A
  /// search that reaches no leaf throws std::runtime_error naming this
  /// instance.
  void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) override;
  /// Packed Householder QR across the batch (TreeProblem::prepare_batch),
  /// with per-slot column orders and permuted copies first when sorted QR
  /// is configured; select installs slot i (TreeProblem::select), which
  /// throws the batch's shape error or the slot's rank error, naming this
  /// instance.
  void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                        double noise_var) override;
  void do_select_prepared(std::size_t i) override;

 private:
  Enumerator prototype_;
  const std::string name_;  ///< Declared before problem_, which keeps its c_str().
  SphereConfig config_;
  TreeProblem problem_;  ///< The prepared channel.
  std::vector<std::size_t> perm_;  ///< Detection-order column permutation.

  DepthFirstSearch<Enumerator> search_;  ///< Reused across searches.

  // Sorted QR only: per-slot detection orders and the permuted copies the
  // QR factorizes, rewritten in place by every prepare_batch().
  std::vector<std::vector<std::size_t>> slot_perm_;
  std::vector<linalg::CMatrix> batch_hp_;
  std::vector<double> energy_;  ///< column_norm_order scratch.
};

/// Geosphere: 2D zigzag enumeration + geometric pruning (the full system).
/// Named "Geosphere", or "Geosphere-SQRD" with sorted QR.
std::unique_ptr<Detector> make_geosphere(const Constellation& c, SphereConfig config = {});

/// Geosphere without geometric pruning ("2D zigzag only" variant of the
/// paper's Section 5.3.2 breakdown).
std::unique_ptr<Detector> make_geosphere_zigzag_only(const Constellation& c,
                                                     SphereConfig config = {});

/// ETH-SD: the Burg et al. depth-first decoder with Hess et al. enumeration,
/// the paper's primary complexity baseline.
std::unique_ptr<Detector> make_eth_sd(const Constellation& c, SphereConfig config = {});

/// Shabany-style neighbour-expansion enumeration (related work, Section 6.1).
std::unique_ptr<Detector> make_shabany_sd(const Constellation& c, SphereConfig config = {});

}  // namespace geosphere::sphere
