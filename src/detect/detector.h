// Common interface for MIMO detectors, plus the complexity counters the
// paper's evaluation is built around (Section 5.3).
//
// Detection is a four-phase contract:
//
//   prepare_batch(hs, count, noise_var)
//                          -- factorize `count` equally shaped channels at
//                             once (a frame's subcarriers) into the
//                             detector's owned workspace: column ordering,
//                             Householder QR, linear filter construction,
//                             ... Every detector implements this phase
//                             exactly once, through the packed SIMD drivers
//                             under src/detect/prepare/ (matrices ride as
//                             lanes). select_prepared(i) then activates
//                             channel i for solving and surfaces channel
//                             i's own preparation failure, if any.
//   prepare(h, noise_var)  -- a batch of one: prepare_batch(&h, 1) and
//                             select slot 0. There is no second, scalar
//                             factorization, so one channel prepared alone
//                             and the same channel prepared as slot i of a
//                             frame end in the same bits.
//   solve_batch(Y, out)    -- all received vectors of one channel use at
//                             once: Y packs them as contiguous columns.
//                             Every detector implements this phase exactly
//                             once (do_solve_batch is pure virtual): linear
//                             detectors turn per-vector mat-vecs into one
//                             mat-mat product, tree searches batch the
//                             Q^H y rotation and reuse warm enumeration
//                             workspaces, and ml loops its exhaustive
//                             search over the columns.
//   solve(y, out)          -- a batch of one: y becomes a one-column Y for
//                             solve_batch. There is no second, per-vector
//                             search, so a vector solved alone and the same
//                             vector solved as column v of a frame end in
//                             the same bits.
//
// An OFDM receiver sees each channel estimate `ofdm_symbols` times per
// frame (once per data symbol on that subcarrier), so the link layer
// prepares each of the `nsc` per-subcarrier matrices once and then batch-
// solves every received vector that uses it -- the preprocessing cost
// amortizes across the frame and the per-vector work runs back-to-back
// over one contiguous batch instead of being paid `ofdm_symbols x nsc`
// times through per-call dispatch. detect(y, h, noise_var) is retained as
// a thin prepare+solve convenience for one-shot callers (tests, examples,
// single-vector experiments).
//
// Precondition: H, y and noise_var are finite. No detector checks this.
// A NaN anywhere in H poisons R and every partial distance, so the
// depth-first searches can no longer prune: one 4x4 16-QAM vector against
// a channel with a single NaN entry visits the whole tree (69,904 PEDs).
// Inputs from outside the program are checked where they enter (the trace
// loader rejects non-finite entries, for example).
//
// No-leaf rule: finite inputs can still overflow. When every branch cost
// of an unbounded tree search overflows to +inf (tree centers beyond about
// 1e154 grid units), no child passes the `cost < budget` test and the
// search reaches no leaf. Every tree search then throws
// std::runtime_error naming the detector instead of returning a decision
// it never reached.
//
// Hard and soft decision detection share this one surface: every detector
// produces hard decisions via solve_batch(); detectors that can also emit
// max-log LLRs (the paper's Section 7 extension) expose that capability
// through soft(), whose solve_soft_batch() runs against the same prepared
// channel and whose solve_soft() is again a batch of one.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"
#include "constellation/constellation.h"
#include "linalg/matrix.h"

namespace geosphere {

/// Which decision the link layer asks a detector for: hard symbol indices
/// or per-bit max-log LLRs. A DetectorSpec carries one of these, and
/// link::FrameReceiver::receive dispatches on it.
enum class DecisionMode { kHard, kSoft };

inline const char* to_string(DecisionMode mode) {
  return mode == DecisionMode::kSoft ? "soft" : "hard";
}

/// Per-call complexity counters. The paper's primary metric is the number
/// of partial Euclidean distance (PED) calculations; visited tree nodes are
/// reported "for completeness and additional insight" (Section 5.3).
struct DetectionStats {
  std::uint64_t ped_computations = 0;  ///< Exact branch-cost evaluations |y~ - s|^2.
  std::uint64_t visited_nodes = 0;     ///< Tree nodes descended into (incl. leaves).
  std::uint64_t lb_lookups = 0;        ///< Geometric lower-bound table tests.
  std::uint64_t lb_prunes = 0;         ///< Generations skipped by the lower bound.
  std::uint64_t slicer_ops = 0;        ///< Nearest-point slicing operations.
  std::uint64_t queue_ops = 0;         ///< Priority-queue push/pop operations.
  /// Channel preparations (prepare() calls). A one-shot detect() counts 1;
  /// the link layer counts one per (frame, subcarrier) -- so the ratio
  /// detection_calls / preprocess_calls is the amortization factor
  /// (= OFDM symbols per frame).
  std::uint64_t preprocess_calls = 0;
  /// Batched preparations (prepare_batch() invocations). A batch of N
  /// channels counts as ONE prepare_batch_call but N preprocess_calls (the
  /// caller stamps one per select_prepared()), mirroring the batch_calls
  /// rule below: preprocess_calls stays the logical factorization count,
  /// prepare_batch_calls only records how it was dispatched.
  std::uint64_t prepare_batch_calls = 0;
  /// Batched solves (solve_batch()/solve_soft_batch() invocations). A batch
  /// of N vectors counts as ONE batch_call but N detections: all per-vector
  /// counters (ped_computations, slicer_ops, ...) are the exact sums of the
  /// N per-vector solves, so batched and per-vector runs report identical
  /// work -- batch_calls only records how it was dispatched.
  std::uint64_t batch_calls = 0;
  /// Depth-first enumeration passes started (one per tree-search root
  /// reset). This is the counter that separates the soft-output
  /// strategies: the repeated-tree-search detector pays 1 + streams*Q of
  /// these per received vector, the single-tree-search detector exactly 1.
  std::uint64_t tree_searches = 0;
  /// Counter-hypothesis PED table writes (single-tree-search soft output
  /// only): how many times a reached leaf improved some bit's
  /// counter-hypothesis distance.
  std::uint64_t counter_updates = 0;

  DetectionStats& operator+=(const DetectionStats& o) {
    ped_computations += o.ped_computations;
    visited_nodes += o.visited_nodes;
    lb_lookups += o.lb_lookups;
    lb_prunes += o.lb_prunes;
    slicer_ops += o.slicer_ops;
    queue_ops += o.queue_ops;
    preprocess_calls += o.preprocess_calls;
    prepare_batch_calls += o.prepare_batch_calls;
    batch_calls += o.batch_calls;
    tree_searches += o.tree_searches;
    counter_updates += o.counter_updates;
    return *this;
  }
  bool operator==(const DetectionStats&) const = default;
};

/// Result of detecting one received vector (one OFDM subcarrier use).
struct DetectionResult {
  std::vector<unsigned> indices;  ///< Per-stream constellation point index.
  CVector symbols;                ///< The corresponding normalized points.
  DetectionStats stats;
};

/// Soft-decision result: the hard (ML) decisions plus per-bit max-log LLRs.
struct SoftDetectionResult {
  std::vector<unsigned> indices;  ///< Hard (ML) decisions per stream.
  /// LLRs, stream-major: llrs[k * Q + b] for bit b of stream k, with the
  /// bit order of Constellation::bits_from_index. Positive = bit 0 likely.
  std::vector<double> llrs;
  DetectionStats stats;
};

/// Result of one batched solve: hard decisions for every column of Y.
/// Buffers are reused across calls (no per-batch heap traffic once warm).
struct BatchResult {
  std::size_t count = 0;    ///< Received vectors solved (columns of Y).
  std::size_t streams = 0;  ///< Streams per vector (n_c of the prepared H).
  /// Vector-major decisions: indices[v * streams + k] is stream k of
  /// column v -- bit-identical to solve() on that column.
  std::vector<unsigned> indices;
  /// Exact sum of the per-vector solve stats, plus batch_calls = 1.
  DetectionStats stats;
};

/// Batched counterpart of SoftDetectionResult: hard (ML) decisions plus
/// max-log LLRs for every column of Y.
struct SoftBatchResult {
  std::size_t count = 0;    ///< Received vectors solved (columns of Y).
  std::size_t streams = 0;  ///< Streams per vector (n_c of the prepared H).
  std::vector<unsigned> indices;  ///< Vector-major, as in BatchResult.
  /// LLRs: llrs[(v * streams + k) * Q + b] for bit b of stream k of
  /// column v -- bit-identical to solve_soft() on that column.
  std::vector<double> llrs;
  DetectionStats stats;  ///< Sum over the batch, plus batch_calls = 1.
};

class SoftDetector;

/// A MIMO detector configured for one constellation. Implementations own
/// preallocated workspaces (including the prepared-channel state) and are
/// therefore not thread-safe per instance; create one instance per thread.
class Detector {
 public:
  virtual ~Detector() = default;

  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  /// Phase 1: factorize channel `h` (n_a x n_c, requires n_a >= n_c >= 1)
  /// with per-receive-antenna noise variance `noise_var` into this
  /// detector's workspace -- a batch of one through prepare_batch(), with
  /// slot 0 selected. A prepared detector may be solved any number of
  /// times; preparing again replaces the stored channel completely (no
  /// state leaks between channels, including dimension changes). Leaves no
  /// valid batch (prepared_batch_size() == 0), and a throwing prepare()
  /// leaves prepared() false.
  void prepare(const linalg::CMatrix& h, double noise_var) {
    prepare_batch(&h, 1, noise_var);
    invalidate_batch();
    do_select_prepared(0);
    prepared_ = true;
  }

  /// Phase 1 (batched): factorize `count` equally shaped channels
  /// hs[0..count) at once, all with noise variance `noise_var`. Nothing is
  /// active for solving until select_prepared(i) picks a slot; per-channel
  /// failures (rank deficiency, singular filters, ...) surface at that
  /// select, with the same exception whether hs[i] was prepared alone or
  /// in a batch. `hs` must stay alive until the last select of the batch
  /// (detectors that defer work to select time may read it there).
  void prepare_batch(const linalg::CMatrix* hs, std::size_t count, double noise_var) {
    prepared_ = false;
    batch_size_ = 0;
    do_prepare_batch(hs, count, noise_var);
    batch_size_ = count;
  }

  /// Convenience form over a vector of channels (a frame's subcarriers).
  void prepare_batch(const std::vector<linalg::CMatrix>& hs, double noise_var) {
    prepare_batch(hs.data(), hs.size(), noise_var);
  }

  /// Activates channel `i` of the last prepare_batch() for solving, exactly
  /// as if prepare(hs[i], noise_var) had just run. Throws std::logic_error
  /// outside the batch (including after a plain prepare(), which
  /// invalidates the batch); rethrows hs[i]'s own preparation failure if it
  /// has one, leaving the other slots selectable.
  void select_prepared(std::size_t i) {
    if (i >= batch_size_)
      throw std::logic_error("Detector: select_prepared() outside the prepared batch (" +
                             name() + ")");
    prepared_ = false;  // A throwing slot leaves no usable channel.
    do_select_prepared(i);
    prepared_ = true;
  }

  /// Channels of the currently valid batch (0 when none is valid).
  std::size_t prepared_batch_size() const { return batch_size_; }

  /// Phase 2: detect the transmitted symbol vector from received vector
  /// `y` (length n_a) against the prepared channel, writing into `out`
  /// (whose buffers are reused across calls). A batch of one: `y` is
  /// copied into a one-column Y and run through do_solve_batch(), so the
  /// result is bit-identical to column v of any solve_batch() holding `y`.
  /// Throws std::logic_error if prepare() has not been called. The result's
  /// preprocess_calls and batch_calls are 0: preparations are accounted by
  /// whoever calls prepare(), and this is not a batched invocation.
  void solve(const CVector& y, DetectionResult& out) {
    require_prepared();
    one_y_.resize_shape(y.size(), 1);
    one_y_.set_col(0, y);
    do_solve_batch(one_y_, one_out_);
    out.indices = one_out_.indices;
    out.symbols.resize(out.indices.size());
    for (std::size_t k = 0; k < out.indices.size(); ++k)
      out.symbols[k] = constellation_->point(out.indices[k]);
    out.stats = one_out_.stats;
    // Hybrid's inner solve_batch() stamps its own batch_calls.
    out.stats.batch_calls = 0;
  }

  /// Allocating convenience form of solve().
  DetectionResult solve(const CVector& y) {
    DetectionResult out;
    solve(y, out);
    return out;
  }

  /// Phase 2 (batched): detect every column of `y_batch` (n_a x count;
  /// column v is one received vector) against the prepared channel, with
  /// the detector's one do_solve_batch() routine. Column v's decisions do
  /// not depend on the batch size or on v, so the result equals calling
  /// solve() on each column in order -- same decisions, same summed
  /// counters; only stats.batch_calls (always 1 per invocation) records
  /// the dispatch. `out`'s buffers are reused across calls. Throws
  /// std::logic_error if prepare() has not been called, and
  /// std::invalid_argument if y_batch does not have n_a rows.
  void solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) {
    require_prepared();
    do_solve_batch(y_batch, out);
    // Exactly one batched invocation regardless of internal routing (e.g.
    // hybrid delegates to an inner detector that already stamped its own).
    out.stats.batch_calls = 1;
  }

  /// Allocating convenience form of solve_batch().
  BatchResult solve_batch(const linalg::CMatrix& y_batch) {
    BatchResult out;
    solve_batch(y_batch, out);
    return out;
  }

  /// One-shot convenience: prepare(h, noise_var) then solve(y). The
  /// result's stats count the preparation (preprocess_calls == 1).
  DetectionResult detect(const CVector& y, const linalg::CMatrix& h,
                         double noise_var) {
    prepare(h, noise_var);
    DetectionResult out;
    solve(y, out);
    out.stats.preprocess_calls += 1;
    return out;
  }

  /// Whether prepare() has succeeded since construction (and not been
  /// invalidated by a throwing re-prepare).
  bool prepared() const { return prepared_; }

  /// Non-null iff this detector can produce soft (max-log LLR) output. The
  /// returned interface aliases this object: same lifetime, same prepared
  /// channel, same thread-safety rules (one instance per thread).
  virtual SoftDetector* soft() { return nullptr; }

  virtual std::string name() const = 0;

  const Constellation& constellation() const { return *constellation_; }

 protected:
  explicit Detector(const Constellation& c) : constellation_(&c) {}

  /// Factorizes hs[0..count) into per-slot state (count may be 0). Must
  /// not throw for a per-channel failure: record it and rethrow it from
  /// do_select_prepared(), so the other slots stay selectable.
  virtual void do_prepare_batch(const linalg::CMatrix* hs, std::size_t count,
                                double noise_var) = 0;

  /// Installs slot `i` of the last do_prepare_batch() as the active
  /// channel, fully overwriting any previously prepared state, or throws
  /// slot i's recorded failure.
  virtual void do_select_prepared(std::size_t i) = 0;

  /// Drops any valid batch (prepare() and run_as_prepare() call this).
  void invalidate_batch() { batch_size_ = 0; }

  /// prepare()'s flag-and-batch discipline around an externally supplied
  /// installer -- for entry points that install a factorization computed
  /// elsewhere (e.g. SphereDecoder::prepare_adopted receiving hybrid's
  /// shared QR) and must behave exactly like prepare().
  template <typename F>
  void run_as_prepare(F&& install) {
    prepared_ = false;
    invalidate_batch();
    install();
    prepared_ = true;
  }

  /// Detection of every column of `y_batch` against the prepared
  /// workspace: the detector's only solve routine, which solve() also runs
  /// on a one-column batch. Fills out.count, out.streams, out.indices and
  /// out.stats (the exact sum over the columns); throws
  /// std::invalid_argument for a row count other than n_a.
  virtual void do_solve_batch(const linalg::CMatrix& y_batch, BatchResult& out) = 0;

  void require_prepared() const {
    if (!prepared_)
      throw std::logic_error("Detector: solve() called before prepare() (" + name() + ")");
  }

 private:
  const Constellation* constellation_;
  bool prepared_ = false;
  std::size_t batch_size_ = 0;
  // solve()'s batch of one.
  linalg::CMatrix one_y_;
  BatchResult one_out_;
};

/// Sub-interface for detectors that can produce max-log LLRs. Obtained
/// through Detector::soft(); never owned separately from its Detector, and
/// solving runs against the channel prepared on that Detector.
class SoftDetector {
 public:
  virtual ~SoftDetector() = default;

  /// Soft-decision counterpart of Detector::solve(): same prepared
  /// channel, hard decisions plus one LLR per transmitted bit. `out`'s
  /// buffers are reused across calls. A batch of one through
  /// do_solve_soft_batch(), like Detector::solve(); batch_calls is 0.
  /// Throws std::logic_error if the owning Detector has not been prepared.
  void solve_soft(const CVector& y, SoftDetectionResult& out) {
    if (!owner().prepared())
      throw std::logic_error("SoftDetector: solve_soft() called before prepare() (" +
                             owner().name() + ")");
    one_y_.resize_shape(y.size(), 1);
    one_y_.set_col(0, y);
    do_solve_soft_batch(one_y_, one_out_);
    out.indices = one_out_.indices;
    out.llrs = one_out_.llrs;
    out.stats = one_out_.stats;
  }

  /// Allocating convenience form of solve_soft().
  SoftDetectionResult solve_soft(const CVector& y) {
    SoftDetectionResult out;
    solve_soft(y, out);
    return out;
  }

  /// Batched counterpart of solve_soft(): LLRs for every column of
  /// `y_batch` against the same prepared channel, with the detector's one
  /// do_solve_soft_batch() routine -- equal to calling solve_soft() per
  /// column (see Detector::solve_batch for the contract; stats.batch_calls
  /// = 1 per invocation). `out`'s buffers are reused.
  void solve_soft_batch(const linalg::CMatrix& y_batch, SoftBatchResult& out) {
    if (!owner().prepared())
      throw std::logic_error("SoftDetector: solve_soft_batch() called before prepare() (" +
                             owner().name() + ")");
    do_solve_soft_batch(y_batch, out);
    out.stats.batch_calls = 1;
  }

  /// One-shot convenience: prepare then solve_soft, with the preparation
  /// accounted in the result's stats (preprocess_calls == 1).
  SoftDetectionResult detect_soft(const CVector& y, const linalg::CMatrix& h,
                                  double noise_var) {
    owner().prepare(h, noise_var);
    SoftDetectionResult out;
    solve_soft(y, out);
    out.stats.preprocess_calls += 1;
    return out;
  }

 protected:
  /// The Detector this interface aliases (holder of the prepared channel).
  virtual Detector& owner() = 0;

  /// Soft detection of every column of `y_batch`: the detector's only
  /// soft routine, which solve_soft() also runs on a one-column batch.
  virtual void do_solve_soft_batch(const linalg::CMatrix& y_batch, SoftBatchResult& out) = 0;

 private:
  // solve_soft()'s batch of one.
  linalg::CMatrix one_y_;
  SoftBatchResult one_out_;
};

/// Maps LLRs to per-bit "confidence the bit is 1" in [0,1], the input
/// format of coding::ViterbiDecoder::decode_soft. Buffer form for hot
/// paths (`out` is resized; reused capacity allocates nothing once warm).
inline void llrs_to_confidence(const std::vector<double>& llrs, std::vector<double>& out) {
  out.resize(llrs.size());
  for (std::size_t i = 0; i < llrs.size(); ++i)
    out[i] = 1.0 / (1.0 + std::exp(llrs[i]));
}

inline std::vector<double> llrs_to_confidence(const std::vector<double>& llrs) {
  std::vector<double> out;
  llrs_to_confidence(llrs, out);
  return out;
}

}  // namespace geosphere
