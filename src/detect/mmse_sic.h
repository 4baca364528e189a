// MMSE with successive interference cancellation, the strongest linear-
// front-end baseline in the paper (Fig. 13): capacity-achieving in theory,
// limited by error propagation in practice.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/detector.h"
#include "detect/prepare/batch_linear.h"

namespace geosphere {

/// Orders streams by descending received SNR (channel column energy), then
/// repeatedly: MMSE-detects the strongest remaining stream, slices it, and
/// subtracts its reconstructed contribution from the received vector
/// (symbol-level hard cancellation, as in the paper's evaluation).
///
/// The detection order and every per-stage MMSE filter depend only on the
/// channel, so prepare() builds the whole cancellation cascade (one
/// reduced-system filter per stream) once; solving costs one filter-dot
/// and one column subtraction per stream and received vector.
class MmseSicDetector final : public Detector {
 public:
  explicit MmseSicDetector(const Constellation& c) : Detector(c) {}

  std::string name() const override { return "MMSE-SIC"; }

 protected:
  /// Runs each cancellation stage across the whole batch: one mat-mat
  /// matched filter per stage, then per column the filter-dot, slice and
  /// cancellation.
  void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) override;
  /// Stage-major packed preparation: per-slot detection orders first, then
  /// one packed regularized-Gram inversion (prepare/batch_linear.h) per
  /// cancellation stage across all slots. A slot with a singular stage is
  /// flagged, and linalg::inverse's domain_error is thrown when it is
  /// selected. Every per-slot cascade, gathered sub-channel and Gram slot
  /// keeps its storage across batches, so a warm prepare of the same shape
  /// allocates nothing.
  void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                        double noise_var) override;
  /// Selects by index: records slot i, whose cascade the solve then reads
  /// in place (no copy of its stages).
  void do_select_prepared(std::size_t i) override;

 private:
  /// One cancellation stage: the MMSE estimate of `target` over the
  /// remaining (uncancelled) streams is row 0 of the reduced-system filter
  /// applied to the residual.
  struct Stage {
    std::size_t target = 0;
    linalg::CMatrix hh;  ///< Hermitian of the remaining-column submatrix.
    CVector filter_row;  ///< Row 0 of (H_sub^H H_sub + N0 I)^{-1}.
    CVector column;      ///< h's `target` column, for cancellation.
  };

  prepare::BatchLinear batch_linear_;
  /// Per-slot cascades, nc stages each. Never shrinks, so slots beyond the
  /// current batch keep their storage for the next one.
  std::vector<std::vector<Stage>> slot_stages_;
  std::vector<std::uint8_t> slot_singular_;  ///< Deferred domain_error flags.
  std::size_t selected_ = 0;                 ///< Slot the solve reads.
  // Prepare scratch: slot s's detection order at order_[s * nc ...], the
  // column energies of the slot being ordered, the stage-k sub-channels
  // and their Gram inversions.
  std::vector<std::size_t> order_;
  std::vector<double> energy_;
  std::vector<linalg::CMatrix> hsubs_;
  std::vector<prepare::GramInvSlot> gram_slots_;
  linalg::CMatrix residual_;  ///< Per-batch scratch (one column per vector).
  linalg::CMatrix matched_;   ///< Per-batch scratch (H_sub^H residuals).
};

}  // namespace geosphere
