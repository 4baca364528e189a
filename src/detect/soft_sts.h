// Single-tree-search (STS) soft-output MIMO detection.
//
// The repeated-tree-search strategy prices every received vector at one
// unconstrained Geosphere search plus ~streams*Q constrained
// counter-hypothesis re-searches. It is this detector's test reference
// (tests/reference/soft_output.h), not a registry detector. The STS
// strategy (Studer et al., IEEE JSAC 2008, adapted here to Geosphere's
// zigzag enumeration) collapses all of them into ONE depth-first
// enumeration pass that maintains
//
//   * the running ML candidate x^ML with distance lambda_ml, and
//   * a per-bit counter-hypothesis PED table lambda_bar[k][b]
//     (2 * streams * Q entries conceptually; one slot per bit suffices
//     because the ML side of each bit is lambda_ml itself):
//     the smallest distance of any visited leaf whose bit (k, b) differs
//     from the CURRENT ML candidate's.
//
// Leaf update rules, applied at every reached leaf with distance d:
//   d <  lambda_ml: every bit where the new leaf differs from the old ML
//                   candidate inherits the old lambda_ml as its counter
//                   distance (the old candidate is the closest visited
//                   leaf carrying that bit value -- lambda_ml is the min
//                   over ALL visited leaves, so this is exact), then the
//                   leaf becomes the ML candidate.
//   d >= lambda_ml: d lowers lambda_bar[k][b] for every bit where the
//                   leaf differs from the ML candidate.
//
// Pruning radius: a subtree rooted at level l may be skipped only if no
// leaf below it can still change the output. Bits decided by the partial
// path (levels > l) can only use this subtree for counter-hypotheses
// where the path already differs from the ML bit; bits at open levels
// (<= l) can still take either value. The node budget therefore prunes
// against the LOOSEST RELEVANT radius
//
//   radius(l) = min( lambda_ml + llr_clamp * N0,
//                    max( lambda_ml,
//                         max_{j > l, path bit != ML bit} lambda_bar[j][b],
//                         max_{j <= l, all bits}          lambda_bar[j][b] ) )
//
// -- the clamp term is sound because any leaf at distance >= lambda_ml +
// llr_clamp * N0 saturates the LLR either way. The radius is
// non-increasing between enumerator resets (lambda_ml and every
// lambda_bar only decrease; an ML flip at a decided level re-admits its
// bits with lambda_bar = old lambda_ml, which is <= every distance this
// subtree was ever pruned against), so the enumerator's non-increasing-
// budget contract holds. Pruned leaves either cannot improve any
// reachable table entry or saturate at the clamp in both strategies, so
// the final LLRs are bit-identical to the repeated-tree-search reference
// (tests assert exact equality, including under clamp saturation).
//
// SoftGeosphereStsDetector implements the full detection contract:
// prepare(h, n0) QR-factorizes once; solve_batch() runs the plain
// unconstrained search (same ML decisions as the hard Geosphere detector);
// solve_soft_batch() runs one STS pass per vector. Both share the
// SIMD-batched Q^H Y rotation and packed root-center divides
// (src/detect/sphere/simd/), and the one-shot solve() and solve_soft()
// are batches of one. DetectionStats::tree_searches records the collapse:
// 1 per vector here vs 1 + streams*Q for the reference.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "constellation/constellation.h"
#include "detect/detector.h"
#include "detect/sphere/depth_first.h"
#include "detect/sphere/enumerators.h"
#include "detect/sphere/tree_problem.h"
#include "linalg/matrix.h"

namespace geosphere {

class SoftGeosphereStsDetector final : public Detector, public SoftDetector {
 public:
  /// `llr_clamp`: LLR magnitudes saturate at +/- llr_clamp; the clamp also
  /// bounds the search (leaves beyond lambda_ml + llr_clamp * N0 cannot
  /// change any output bit). Same semantics and default as the reference.
  explicit SoftGeosphereStsDetector(const Constellation& c, double llr_clamp = 30.0);

  SoftDetector* soft() override { return this; }

  std::string name() const override { return "soft-geosphere-sts"; }

  double llr_clamp() const { return llr_clamp_; }

 protected:
  /// Hard decisions only: the shared SIMD-batched Q^H Y rotation and
  /// packed root centers (TreeProblem::rotate), then the plain
  /// unconstrained Geosphere search per column (depth_first.h; no
  /// counter-hypothesis table) -- the hard Geosphere detector's search,
  /// so the same decisions and counters.
  void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) override;

  /// Hard decisions plus max-log LLRs: the same shared rotation and root
  /// centers, then ONE enumeration pass per column.
  void do_solve_soft_batch(const linalg::CMatrix& y_batch, SoftBatchResult& out) override;

  /// QR-factorizes the channels (TreeProblem::prepare_batch); select
  /// installs slot i and performs the unconditional counter-hypothesis
  /// table reset of every prepare. Requires noise_var > 0, NaN excluded
  /// (the LLR normalization and clamp radius divide by it). Shape, noise
  /// and rank failures are thrown at select time, in that order.
  void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                        double noise_var) override;
  void do_select_prepared(std::size_t i) override;

  Detector& owner() override { return *this; }

 private:
  /// The single tree search: one enumeration pass filling ml_best_ /
  /// lambda_ml_ / lambda_bar_ for the rotated vector `yhat`. Throws
  /// std::runtime_error when it reaches no leaf.
  void sts_search(const cf64* yhat, cf64 root_center, DetectionStats& stats);

  /// Applies the STS leaf-update rules for the leaf in search_.current at
  /// distance search_.partial[0], refreshing row_max_ and open_max_ where the
  /// table changed. Inlined into sts_search.
  void leaf_update(DetectionStats& stats);

  /// max over the bits of decided row j whose path value differs from the
  /// ML candidate's of lambda_bar_[j][b], as +0.0 when none differs.
  double masked_row_max(std::size_t j) const;

  /// Sets the decided part and the pruning radius of `level` (see file
  /// comment) and stamps it with the current epoch.
  void set_radius(std::size_t level, double decided);

  /// Writes the nc * Q LLRs of the finished tables into `llrs`
  /// (stream-major), using the reference detector's exact formulas.
  void emit_llrs(double* llrs) const;

  double llr_clamp_;

  // Prepared channel, shared by every search until the next prepare.
  sphere::TreeProblem problem_;
  double noise_var_ = 0.0;

  /// bit_word_[idx]: the Q bits of constellation symbol idx packed LSB-
  /// first (bit b of Constellation::bits_from_index at 1u << b), so leaf
  /// updates diff whole symbols with one XOR.
  std::vector<unsigned> bit_word_;

  // Per-search workspaces, shared by the plain and the single tree search.
  sphere::GeoEnumerator enum_proto_;  ///< Attached prototype (zigzag + pruning).
  sphere::DepthFirstSearch<sphere::GeoEnumerator> search_;

  // STS state (valid between sts_search and emit_llrs).
  bool ml_found_ = false;
  double lambda_ml_ = 0.0;
  std::vector<unsigned> ml_best_;   ///< ML candidate path (symbol indices).
  std::vector<unsigned> ml_word_;   ///< Packed bits of each ML symbol.
  std::vector<double> lambda_bar_;  ///< nc x Q counter-hypothesis distances.
  /// Incremental pruning radius. The radius of level l is
  ///   min(lambda_ml + clamp * N0, max(lambda_ml, decided(l), open(l)))
  /// with decided(l) the max of the masked rows j > l and open(l) the max
  /// of the whole rows j <= l. Only leaf updates write the table, and they
  /// refresh row_max_ (per-row max) and open_max_ (its prefix max, so
  /// open(l) = open_max_[l]) for the rows they wrote. A descent from l + 1
  /// to l extends the path by one row, so decided(l) = max(decided(l + 1),
  /// masked row l + 1) costs one row. epoch_ bumps on every table or ML
  /// change; a level whose stamp falls behind recomputes decided(l) over
  /// all its decided rows.
  ///
  /// Why the order of max does not matter: the table never holds NaN or
  /// -0.0. Each entry is +inf, a leaf distance summed from +0.0 with
  /// non-negative products, or an earlier lambda_ml. So max over entries
  /// is exact and order-free, and a masked-off bit may contribute +0.0,
  /// which never exceeds lambda_ml. lambda_ml stays the first operand, so
  /// a NaN lambda_ml from non-finite input still wins, as it does in a
  /// sequential scan.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> radius_epoch_;
  std::vector<double> radius_cache_;
  std::vector<double> decided_max_;  ///< decided(l), valid with radius_epoch_[l].
  std::vector<double> row_max_;      ///< max_b lambda_bar_[j][b].
  std::vector<double> open_max_;     ///< max_{j <= l} row_max_[j].
};

}  // namespace geosphere
