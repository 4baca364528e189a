// Tests for the SIMD tree-search kernel layer (src/detect/sphere/simd/):
//  * per-op bit-exactness of every SIMD tier against the scalar reference,
//    including the odd-count tails each tier falls back to scalar for,
//  * batched rotation (rotate_transpose / packed_root_centers) bit-identity
//    with the per-vector linalg products on every tier,
//  * full-detector tier parity: for every tree-search detector x QAM
//    {16, 64, 256} x batch sizes {1, W-1, W, 48}, solve_batch under every
//    supported kernel tier is bit-identical (decisions, LLRs, stats
//    counters) to a per-vector loop on the scalar reference build,
//  * zigzag/enumerator edge cases: boundary-sideways steps at
//    constellation edges, radius-prune on the first candidate, and
//    1-stream degenerate trees.
// The tier registry and override contract are tested once for all three
// kernel layers in kernel_dispatch_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/db.h"
#include "common/rng.h"
#include "detect/spec.h"
#include "detect/sphere/enumerators.h"
#include "detect/sphere/simd/dispatch.h"
#include "detect/sphere/simd/kernel.h"
#include "detect/sphere/simd/rotate.h"
#include "linalg/matrix.h"
#include "test_util.h"

namespace geosphere {
namespace {

using geosphere::testing::hypothesis_distance_sq;
using geosphere::testing::random_channel;
using geosphere::testing::random_indices;
using geosphere::testing::transmit;
namespace simd = geosphere::sphere::simd;

/// RAII kernel-tier override (restores env/auto selection on scope exit).
struct KernelGuard {
  explicit KernelGuard(const char* name) { simd::set_kernel_override(name); }
  ~KernelGuard() { simd::set_kernel_override(nullptr); }
};

void expect_same_stats(const DetectionStats& a, const DetectionStats& b,
                       const std::string& who) {
  EXPECT_EQ(a.ped_computations, b.ped_computations) << who;
  EXPECT_EQ(a.visited_nodes, b.visited_nodes) << who;
  EXPECT_EQ(a.lb_lookups, b.lb_lookups) << who;
  EXPECT_EQ(a.lb_prunes, b.lb_prunes) << who;
  EXPECT_EQ(a.slicer_ops, b.slicer_ops) << who;
  EXPECT_EQ(a.queue_ops, b.queue_ops) << who;
}

/// Bitwise equality for double sequences: the parity contract is "same
/// bits", not "close enough", so compare representations, not values.
void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b,
                       const std::string& who) {
  ASSERT_EQ(a.size(), b.size()) << who;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &a[i], sizeof ba);
    std::memcpy(&bb, &b[i], sizeof bb);
    EXPECT_EQ(ba, bb) << who << " element " << i << " (" << a[i] << " vs " << b[i] << ")";
  }
}

// ----------------------------------------------------------- kernel ops --

/// Sizes that exercise full SIMD registers plus every tail length.
const std::size_t kOpSizes[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 33};

std::vector<double> random_doubles(Rng& rng, std::size_t n, double lo, double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = lo + (hi - lo) * rng.uniform();
  return v;
}

TEST(KernelOps, EveryTierBitIdenticalToScalarIncludingTails) {
  const simd::Kernel& ref = simd::scalar_kernel();
  Rng rng(4242);
  for (const std::size_t n : kOpSizes) {
    const auto num = random_doubles(rng, n, -10.0, 10.0);
    const auto den = random_doubles(rng, n, 0.1, 4.0);
    const auto s_re = random_doubles(rng, n, -7.0, 7.0);
    const auto s_im = random_doubles(rng, n, -7.0, 7.0);
    const auto inter = random_doubles(rng, 2 * n, -5.0, 5.0);  // Interleaved complex.
    const double r_re = rng.uniform() - 0.5, r_im = rng.uniform() - 0.5;
    const double a_re = rng.uniform() - 0.5, a_im = rng.uniform() - 0.5;
    const auto acc0_re = random_doubles(rng, n, -2.0, 2.0);
    const auto acc0_im = random_doubles(rng, n, -2.0, 2.0);
    const auto acc0_c = random_doubles(rng, 2 * n, -2.0, 2.0);

    std::vector<double> q_ref(n);
    std::vector<double> ca_re_ref = acc0_re, ca_im_ref = acc0_im, cm_ref = acc0_c;
    ref.quotients(num.data(), den.data(), q_ref.data(), n);
    ref.center_accum(r_re, r_im, s_re.data(), s_im.data(), ca_re_ref.data(),
                     ca_im_ref.data(), n);
    ref.cmul_accum(a_re, a_im, inter.data(), cm_ref.data(), n);

    for (const simd::Kernel* k : simd::supported_kernels()) {
      const std::string who = std::string(k->name) + " n=" + std::to_string(n);
      std::vector<double> q(n);
      std::vector<double> ca_re = acc0_re, ca_im = acc0_im, cm = acc0_c;
      k->quotients(num.data(), den.data(), q.data(), n);
      k->center_accum(r_re, r_im, s_re.data(), s_im.data(), ca_re.data(), ca_im.data(), n);
      k->cmul_accum(a_re, a_im, inter.data(), cm.data(), n);
      expect_bits_equal(q, q_ref, who + " quotients");
      expect_bits_equal(ca_re, ca_re_ref, who + " center_accum re");
      expect_bits_equal(ca_im, ca_im_ref, who + " center_accum im");
      expect_bits_equal(cm, cm_ref, who + " cmul_accum");
    }
  }
}

// ------------------------------------------------------------- rotation --

TEST(BatchedRotation, RotateTransposeMatchesLinalgBitExactOnEveryTier) {
  Rng rng(5151);
  simd::RotateScratch scratch;
  for (const std::size_t count : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                                  std::size_t{7}, std::size_t{48}}) {
    const auto a = random_channel(rng, 4, 4);
    const auto y = random_channel(rng, 4, count);  // Any complex data works.
    linalg::CMatrix want;
    multiply_transpose_into(a, y, want);
    for (const simd::Kernel* k : simd::supported_kernels()) {
      KernelGuard guard(k->name);
      linalg::CMatrix got;
      simd::rotate_transpose(a, y, got, scratch);
      ASSERT_EQ(got.rows(), want.rows()) << k->name;
      ASSERT_EQ(got.cols(), want.cols()) << k->name;
      for (std::size_t i = 0; i < got.rows(); ++i)
        for (std::size_t j = 0; j < got.cols(); ++j) {
          EXPECT_EQ(got(i, j).real(), want(i, j).real())
              << k->name << " count=" << count << " (" << i << "," << j << ")";
          EXPECT_EQ(got(i, j).imag(), want(i, j).imag())
              << k->name << " count=" << count << " (" << i << "," << j << ")";
        }

      // Packed root centers = the per-vector componentwise divide, lane by
      // lane.
      const double diag = 0.25 + rng.uniform();
      std::vector<cf64> centers;
      simd::packed_root_centers(want, a.rows() - 1, diag, centers, scratch);
      ASSERT_EQ(centers.size(), count) << k->name;
      for (std::size_t v = 0; v < count; ++v) {
        const cf64 z = want(v, a.rows() - 1);
        EXPECT_EQ(centers[v].real(), z.real() / diag) << k->name << " v=" << v;
        EXPECT_EQ(centers[v].imag(), z.imag() / diag) << k->name << " v=" << v;
      }
    }
  }
}

// ---------------------------------------------------- full-detector parity --

/// The tree-search detectors the bit-exactness acceptance criterion names,
/// plus the level-major packed searches (K-Best, FSD) and the composites
/// that embed a sphere search.
const char* kTreeSearchSpecs[] = {"geosphere", "geosphere-2dzz", "geosphere-sqrd",
                                  "eth-sd",    "shabany",        "rvd",
                                  "hybrid",    "kbest:8",        "fsd",
                                  "soft-geosphere"};

class TierParity : public ::testing::TestWithParam<const char*> {};

TEST_P(TierParity, EveryKernelTierMatchesScalarLoop) {
  const DetectorSpec spec = DetectorSpec::parse(GetParam());
  const double n0 = db_to_lin(-25.0);
  // W is the widest supported SIMD width: batch sizes {1, W-1, W, 48}
  // exercise sub-width, exact-width, and multi-round batches.
  const std::size_t w = simd::supported_kernels().back()->width;

  for (const unsigned qam : {16u, 64u, 256u}) {
    const Constellation& c = Constellation::qam(qam);
    Rng rng(7000 + qam);
    const auto h = random_channel(rng, 4, 4);

    std::vector<std::size_t> counts = {1, w, 48};
    if (w > 1) counts.push_back(w - 1);
    for (const std::size_t count : counts) {
      linalg::CMatrix y_batch(h.rows(), count);
      for (std::size_t v = 0; v < count; ++v) {
        const auto sent = random_indices(rng, c, h.cols());
        y_batch.set_col(v, transmit(rng, h, c, sent, n0));
      }

      // Reference: a per-vector loop on the scalar tier -- the
      // configuration the goldens pin.
      std::vector<unsigned> ref_indices;
      std::vector<double> ref_llrs;
      DetectionStats ref_stats;
      {
        KernelGuard kernel(simd::scalar_kernel().name);
        const auto det = spec.create(c);
        det->prepare(h, n0);
        CVector y;
        for (std::size_t v = 0; v < count; ++v) {
          y_batch.col_into(v, y);
          if (SoftDetector* soft = det->soft()) {
            const SoftDetectionResult r = soft->solve_soft(y);
            ref_indices.insert(ref_indices.end(), r.indices.begin(), r.indices.end());
            ref_llrs.insert(ref_llrs.end(), r.llrs.begin(), r.llrs.end());
            ref_stats += r.stats;
          } else {
            const DetectionResult r = det->solve(y);
            ref_indices.insert(ref_indices.end(), r.indices.begin(), r.indices.end());
            ref_stats += r.stats;
          }
        }
      }

      for (const simd::Kernel* k : simd::supported_kernels()) {
        const std::string who = spec.text() + " kernel=" + k->name +
                                " qam=" + std::to_string(qam) +
                                " count=" + std::to_string(count);
        KernelGuard kernel(k->name);
        const auto det = spec.create(c);
        det->prepare(h, n0);
        if (SoftDetector* soft = det->soft()) {
          SoftBatchResult out;
          soft->solve_soft_batch(y_batch, out);
          EXPECT_EQ(out.indices, ref_indices) << who;
          expect_bits_equal(out.llrs, ref_llrs, who + " llrs");
          expect_same_stats(out.stats, ref_stats, who);
        } else {
          BatchResult out;
          det->solve_batch(y_batch, out);
          EXPECT_EQ(out.indices, ref_indices) << who;
          expect_same_stats(out.stats, ref_stats, who);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTreeSearchDetectors, TierParity,
                         ::testing::ValuesIn(kTreeSearchSpecs),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& ch : name)
                             if (ch == ':' || ch == '-') ch = '_';
                           return name;
                         });

// ------------------------------------------------------------ edge cases --

TEST(TreeSearchEdgeCases, CornerCenterSlicesToConstellationEdgeOnAllTiers) {
  // A received vector far outside the constellation corner: slicing clamps
  // to the edge and every zigzag step is boundary-sideways (one direction
  // exhausted immediately). The detector must return the corner point, per
  // vector and batched, on every tier.
  const Constellation& c = Constellation::qam(16);
  const double n0 = db_to_lin(-20.0);
  linalg::CMatrix h(2, 2);  // Diagonal channel: streams decouple.
  h(0, 0) = cf64(1.0, 0.0);
  h(1, 1) = cf64(0.8, 0.1);

  // Find the corner index: the point with maximal re+im.
  unsigned corner = 0;
  for (unsigned i = 1; i < c.order(); ++i)
    if (c.point(i).real() + c.point(i).imag() >
        c.point(corner).real() + c.point(corner).imag())
      corner = i;

  CVector x(2);
  x[0] = c.point(corner) * 4.0;  // Far beyond the corner.
  x[1] = c.point(corner) * 4.0;
  CVector y = h * x;

  const std::size_t count = 5;
  linalg::CMatrix y_batch(2, count);
  for (std::size_t v = 0; v < count; ++v) y_batch.set_col(v, y);

  for (const char* name : {"geosphere", "geosphere-2dzz", "eth-sd", "shabany"}) {
    for (const simd::Kernel* k : simd::supported_kernels()) {
      KernelGuard kernel(k->name);
      const auto det = DetectorSpec::parse(name).create(c);
      det->prepare(h, n0);
      const DetectionResult r = det->solve(y);
      ASSERT_EQ(r.indices.size(), 2u) << name;
      EXPECT_EQ(r.indices[0], corner) << name << " " << k->name;
      EXPECT_EQ(r.indices[1], corner) << name << " " << k->name;
      const BatchResult b = det->solve_batch(y_batch);
      for (std::size_t v = 0; v < count; ++v) {
        EXPECT_EQ(b.indices[2 * v], corner) << name << " " << k->name << " v=" << v;
        EXPECT_EQ(b.indices[2 * v + 1], corner) << name << " " << k->name << " v=" << v;
      }
    }
  }
}

TEST(TreeSearchEdgeCases, RadiusPruneOnFirstCandidateClosesEnumeratorCleanly) {
  // A budget below the first (sliced, cheapest) candidate's cost: next()
  // must report exhaustion immediately and must not leave a half-open
  // column behind. Enumerators are seeded identically and must agree they
  // are exhausted, and a later call with the same budget stays exhausted.
  const Constellation& c = Constellation::qam(16);
  DetectionStats stats;

  sphere::GeoEnumerator geo;
  geo.attach(c);
  geo.reset(cf64(0.4, -0.3), stats);  // Between grid points: cost > 0.
  EXPECT_EQ(geo.next(1e-9, stats), std::nullopt);
  EXPECT_EQ(geo.next(1e-9, stats), std::nullopt);

  sphere::HessEnumerator hess;
  hess.attach(c);
  hess.reset(cf64(0.4, -0.3), stats);
  EXPECT_EQ(hess.next(1e-9, stats), std::nullopt);
  EXPECT_EQ(hess.next(1e-9, stats), std::nullopt);

  sphere::ShabanyEnumerator shab;
  shab.attach(c);
  shab.reset(cf64(0.4, -0.3), stats);
  EXPECT_EQ(shab.next(1e-9, stats), std::nullopt);
  EXPECT_EQ(shab.next(1e-9, stats), std::nullopt);

  // An exactly-on-grid center has first-candidate cost 0 < any positive
  // budget: the sliced point must still come out before exhaustion.
  sphere::GeoEnumerator exact;
  exact.attach(c);
  exact.reset(cf64(1.0, 1.0), stats);  // Grid point (odd coordinates).
  const auto child = exact.next(1e-9, stats);
  ASSERT_TRUE(child.has_value());
  EXPECT_EQ(child->cost_grid, 0.0);
}

TEST(TreeSearchEdgeCases, SingleStreamTreeMatchesBruteForceOnAllTiers) {
  // 1-stream channel: the "tree" is a single level and the root center is
  // the whole center computation, so every vector is an independent
  // slicing problem. Decisions must equal the brute-force ML argmin.
  const Constellation& c = Constellation::qam(64);
  const double n0 = db_to_lin(-18.0);
  Rng rng(8080);
  const auto h = random_channel(rng, 4, 1);

  const std::size_t count = 6;
  linalg::CMatrix y_batch(4, count);
  std::vector<unsigned> want(count);
  CVector y;
  for (std::size_t v = 0; v < count; ++v) {
    const auto sent = random_indices(rng, c, 1);
    y_batch.set_col(v, transmit(rng, h, c, sent, n0));
    y_batch.col_into(v, y);
    unsigned best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (unsigned i = 0; i < c.order(); ++i) {
      const double d = hypothesis_distance_sq(y, h, c, {i});
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    want[v] = best;
  }

  for (const char* name : {"geosphere", "eth-sd", "shabany", "kbest:8", "fsd"}) {
    for (const simd::Kernel* k : simd::supported_kernels()) {
      KernelGuard kernel(k->name);
      const auto det = DetectorSpec::parse(name).create(c);
      det->prepare(h, n0);
      const BatchResult b = det->solve_batch(y_batch);
      ASSERT_EQ(b.indices.size(), count) << name;
      for (std::size_t v = 0; v < count; ++v)
        EXPECT_EQ(b.indices[v], want[v]) << name << " " << k->name << " v=" << v;
    }
  }
}

}  // namespace
}  // namespace geosphere
