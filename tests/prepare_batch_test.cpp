// Tests for the channel-preparation phase. prepare_batch/select_prepared is
// every detector's one factorization path (prepare() is a batch of one),
// built on the packed drivers under src/detect/prepare/:
//  * the drivers are BIT-identical to the scalar linalg references they
//    transcribe -- householder_qr and the tree searches' rank test for
//    BatchQr, inverse and pseudo_inverse (and where they throw) for
//    BatchLinear -- at every supported SIMD kernel tier, for batch sizes
//    {1, W-1, W, 48}, on healthy and degenerate channels (PrepareDrivers),
//  * batch-prepared solves are BIT-identical to a prepare() loop pinned to
//    the scalar kernel tier -- decisions, symbols, LLRs and counters -- for
//    every registry detector, at 16/64/256-QAM, for batch sizes
//    {1, W-1, W, nsc} at every supported tier (GEOSPHERE_KERNEL override
//    hook),
//  * slots select in any order and re-select cleanly,
//  * a shape change between batches leaves no stale workspace behind,
//  * an empty batch prepares nothing and select fails loudly,
//  * a plain prepare() invalidates the batch,
//  * per-slot preparation failures (rank deficiency, singular filters)
//    surface at select with the exact exception prepare() throws for that
//    channel, leaving the other slots selectable, and
//  * the link layer's accounting invariant: a frame of nsc subcarriers
//    counts ONE prepare_batch_call and nsc preprocess_calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "channel/rayleigh.h"
#include "common/db.h"
#include "common/rng.h"
#include "detect/prepare/batch_linear.h"
#include "detect/prepare/batch_qr.h"
#include "detect/prepare/simd/dispatch.h"
#include "detect/spec.h"
#include "linalg/qr.h"
#include "linalg/solve.h"
#include "link/link_simulator.h"
#include "phy/frame.h"
#include "test_util.h"

namespace geosphere {
namespace {

using geosphere::testing::random_channel;
using geosphere::testing::random_indices;
using geosphere::testing::transmit;

/// Every registry detector in a creatable spec form (required parameters
/// get a representative value).
std::vector<std::string> all_registry_specs() {
  std::vector<std::string> out;
  for (const DetectorInfo& info : detector_registry())
    out.push_back(info.param_required ? info.name + ":8" : info.name);
  return out;
}

/// RAII kernel-tier override (restores env/auto selection on scope exit).
class KernelOverride {
 public:
  explicit KernelOverride(const char* name) { prepare::simd::set_kernel_override(name); }
  ~KernelOverride() { prepare::simd::set_kernel_override(nullptr); }
  KernelOverride(const KernelOverride&) = delete;
  KernelOverride& operator=(const KernelOverride&) = delete;
};

std::uint64_t bits_of(double v) {
  std::uint64_t out;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

/// Bitwise equality (distinguishes +0.0 from -0.0; the masked-lane contract
/// forbids sign flips, so "equal value" is not strong enough here).
void expect_bits_eq(const std::vector<double>& a, const std::vector<double>& b,
                    const std::string& who) {
  ASSERT_EQ(a.size(), b.size()) << who;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(bits_of(a[i]), bits_of(b[i])) << who << " llr[" << i << "]";
}

void expect_bits_eq(const CVector& a, const CVector& b, const std::string& who) {
  ASSERT_EQ(a.size(), b.size()) << who;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits_of(a[i].real()), bits_of(b[i].real())) << who << " sym[" << i << "]";
    EXPECT_EQ(bits_of(a[i].imag()), bits_of(b[i].imag())) << who << " sym[" << i << "]";
  }
}

void expect_same_stats(const DetectionStats& a, const DetectionStats& b,
                       const std::string& who) {
  EXPECT_EQ(a.ped_computations, b.ped_computations) << who;
  EXPECT_EQ(a.visited_nodes, b.visited_nodes) << who;
  EXPECT_EQ(a.lb_lookups, b.lb_lookups) << who;
  EXPECT_EQ(a.lb_prunes, b.lb_prunes) << who;
  EXPECT_EQ(a.slicer_ops, b.slicer_ops) << who;
  EXPECT_EQ(a.queue_ops, b.queue_ops) << who;
  EXPECT_EQ(a.tree_searches, b.tree_searches) << who;
  EXPECT_EQ(a.counter_updates, b.counter_updates) << who;
}

/// One detector's reference answers for a set of channels, computed by
/// preparing each channel alone on the scalar kernel tier (whose drivers
/// PrepareDrivers pins to the linalg references), so it is the
/// tier-independent truth.
struct Reference {
  std::vector<DetectionResult> hard;
  std::vector<SoftDetectionResult> soft;
};

struct Problem {
  std::vector<linalg::CMatrix> hs;
  std::vector<CVector> ys;
  double n0 = 0.0;
};

Problem make_problem(unsigned order, std::size_t count, std::size_t na, std::size_t nc,
                     std::uint64_t seed) {
  const Constellation& c = Constellation::qam(order);
  // High SNR keeps the 256-QAM tree searches tight; parity does not care.
  Problem p;
  p.n0 = db_to_lin(order >= 64 ? -24.0 : -14.0);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    p.hs.push_back(random_channel(rng, na, nc));
    p.ys.push_back(transmit(rng, p.hs.back(), c, random_indices(rng, c, nc), p.n0));
  }
  return p;
}

Reference solve_by_prepare_loop(Detector& det, const Problem& p) {
  KernelOverride scalar("scalar");
  Reference ref;
  const bool is_soft = det.soft() != nullptr;
  for (std::size_t i = 0; i < p.hs.size(); ++i) {
    det.prepare(p.hs[i], p.n0);
    if (is_soft)
      ref.soft.push_back(det.soft()->solve_soft(p.ys[i]));
    else
      ref.hard.push_back(det.solve(p.ys[i]));
  }
  return ref;
}

void expect_slot_matches(Detector& det, const Problem& p, const Reference& ref,
                         std::size_t i, const std::string& who) {
  if (det.soft() != nullptr) {
    const SoftDetectionResult got = det.soft()->solve_soft(p.ys[i]);
    EXPECT_EQ(got.indices, ref.soft[i].indices) << who;
    expect_bits_eq(got.llrs, ref.soft[i].llrs, who);
    expect_same_stats(got.stats, ref.soft[i].stats, who);
  } else {
    const DetectionResult got = det.solve(p.ys[i]);
    EXPECT_EQ(got.indices, ref.hard[i].indices) << who;
    expect_bits_eq(got.symbols, ref.hard[i].symbols, who);
    expect_same_stats(got.stats, ref.hard[i].stats, who);
  }
}

class PrepareBatchRegistry : public ::testing::TestWithParam<std::string> {};

TEST_P(PrepareBatchRegistry, BatchMatchesScalarLoopAtEveryKernelTierAndSize) {
  const DetectorSpec spec = DetectorSpec::parse(GetParam());
  // nsc of the default frame: the link layer's real batch size.
  const std::size_t nsc = phy::FrameConfig{}.data_subcarriers;

  for (const unsigned order : {16u, 64u, 256u}) {
    const Constellation& c = Constellation::qam(order);
    // Exhaustive ML at >= 64-QAM needs a narrower channel to stay cheap;
    // parity is per-detector, so dims only have to match between paths.
    const std::size_t nc = (spec.base() == "ml" && order >= 64) ? 2 : 4;
    const Problem p = make_problem(order, nsc, 4, nc, /*seed=*/900 + order);

    const auto scalar_det = spec.create(c);
    const Reference ref = solve_by_prepare_loop(*scalar_det, p);

    const auto batch_det = spec.create(c);
    for (const prepare::simd::Kernel* kernel : prepare::simd::supported_kernels()) {
      KernelOverride tier(kernel->name);
      std::vector<std::size_t> sizes{1, kernel->width, nsc};
      if (kernel->width > 1) sizes.push_back(kernel->width - 1);
      for (const std::size_t count : sizes) {
        const std::string who = spec.text() + "/" + std::to_string(order) + "qam/" +
                                kernel->name + "/n" + std::to_string(count);
        batch_det->prepare_batch(p.hs.data(), count, p.n0);
        EXPECT_EQ(batch_det->prepared_batch_size(), count) << who;
        for (std::size_t i = 0; i < count; ++i) {
          batch_det->select_prepared(i);
          expect_slot_matches(*batch_det, p, ref, i, who + "/slot" + std::to_string(i));
        }
      }
    }
  }
}

TEST_P(PrepareBatchRegistry, SlotsSelectInAnyOrderAndReselect) {
  const DetectorSpec spec = DetectorSpec::parse(GetParam());
  const Constellation& c = Constellation::qam(16);
  const Problem p = make_problem(16, 5, 4, 4, /*seed=*/77);

  const auto scalar_det = spec.create(c);
  const Reference ref = solve_by_prepare_loop(*scalar_det, p);

  const auto det = spec.create(c);
  det->prepare_batch(p.hs, p.n0);
  // Out of order, with a repeat: selecting must activate exactly slot i's
  // preparation regardless of history.
  for (const std::size_t i : {std::size_t{4}, std::size_t{1}, std::size_t{3},
                              std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    det->select_prepared(i);
    expect_slot_matches(*det, p, ref, i, spec.text() + "/slot" + std::to_string(i));
  }
}

TEST_P(PrepareBatchRegistry, ShapeChangeBetweenBatchesLeavesNoStaleState) {
  // Batch at 4x4, then batch the SAME instance at 4x2 and back: every
  // workspace dimension must be rewritten by the new batch (the batched
  // analogue of RepreparingReusesTheInstanceSafely).
  const DetectorSpec spec = DetectorSpec::parse(GetParam());
  const Constellation& c = Constellation::qam(16);
  const Problem big = make_problem(16, 3, 4, 4, /*seed=*/31);
  const Problem small = make_problem(16, 3, 4, 2, /*seed=*/32);

  const auto scalar_det = spec.create(c);
  const Reference ref_big = solve_by_prepare_loop(*scalar_det, big);
  const Reference ref_small = solve_by_prepare_loop(*scalar_det, small);

  const auto det = spec.create(c);
  for (const Problem* p : {&big, &small, &big}) {
    const Reference& ref = p == &small ? ref_small : ref_big;
    det->prepare_batch(p->hs, p->n0);
    for (std::size_t i = 0; i < p->hs.size(); ++i) {
      det->select_prepared(i);
      expect_slot_matches(*det, *p, ref, i, spec.text() + "/shape-change");
    }
  }
}

TEST_P(PrepareBatchRegistry, EmptyBatchAndOutOfRangeSelectFailLoudly) {
  const DetectorSpec spec = DetectorSpec::parse(GetParam());
  const auto det = spec.create(Constellation::qam(16));

  det->prepare_batch(std::vector<linalg::CMatrix>{}, 0.01);
  EXPECT_EQ(det->prepared_batch_size(), 0u);
  EXPECT_FALSE(det->prepared());
  EXPECT_THROW(det->select_prepared(0), std::logic_error) << spec.text();
  EXPECT_THROW(det->solve(CVector(4)), std::logic_error) << spec.text();

  const Problem p = make_problem(16, 2, 4, 4, /*seed=*/55);
  det->prepare_batch(p.hs, p.n0);
  EXPECT_THROW(det->select_prepared(2), std::logic_error) << spec.text();

  // A plain prepare() invalidates the batch entirely.
  det->prepare(p.hs[0], p.n0);
  EXPECT_EQ(det->prepared_batch_size(), 0u);
  EXPECT_THROW(det->select_prepared(0), std::logic_error) << spec.text();
  EXPECT_TRUE(det->prepared());  // ... but the one-shot preparation stands.
}

/// "" if `fn` returns, else "<dynamic type>: <what()>" -- the signature the
/// batched path must reproduce exactly at select time.
template <typename F>
std::string thrown_signature(F&& fn) {
  try {
    fn();
    return "";
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
}

TEST_P(PrepareBatchRegistry, FailingSlotRethrowsAtSelectLeavingOthersSelectable) {
  const DetectorSpec spec = DetectorSpec::parse(GetParam());
  const Constellation& c = Constellation::qam(16);
  Problem p = make_problem(16, 3, 4, 4, /*seed=*/41);
  // Slot 1 is exactly rank deficient (duplicated column). Detectors that
  // reject it alone in prepare() must throw the SAME exception at select;
  // detectors that tolerate it (e.g. MMSE's noise-regularized Gram) must
  // keep tolerating it.
  for (std::size_t i = 0; i < 4; ++i) p.hs[1](i, 2) = p.hs[1](i, 0);
  Rng yrng(42);
  p.ys[1] = transmit(yrng, p.hs[1], c, random_indices(yrng, c, 4), p.n0);

  const auto scalar_det = spec.create(c);
  std::vector<std::string> scalar_sig(3);
  {
    KernelOverride scalar("scalar");
    for (std::size_t i = 0; i < 3; ++i)
      scalar_sig[i] = thrown_signature([&] { scalar_det->prepare(p.hs[i], p.n0); });
  }
  ASSERT_EQ(scalar_sig[0], "") << spec.text();  // Random slots prepare fine.
  ASSERT_EQ(scalar_sig[2], "") << spec.text();

  for (const prepare::simd::Kernel* kernel : prepare::simd::supported_kernels()) {
    KernelOverride tier(kernel->name);
    const std::string who = spec.text() + "/" + kernel->name;
    const auto det = spec.create(c);
    det->prepare_batch(p.hs, p.n0);
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_EQ(thrown_signature([&] { det->select_prepared(i); }), scalar_sig[i])
          << who << "/slot" << i;
    // The failing slot (if any) leaves the healthy slots selectable.
    det->select_prepared(0);
    EXPECT_TRUE(det->prepared()) << who;
    det->select_prepared(2);
    EXPECT_TRUE(det->prepared()) << who;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistryDetectors, PrepareBatchRegistry,
                         ::testing::ValuesIn(all_registry_specs()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name)
                             if (ch == ':' || ch == '-') ch = '_';
                           return name;
                         });

TEST(PrepareBatch, LinkCountsOneBatchPerFrameAndOneSelectPerSubcarrier) {
  // The accounting invariant of the batched link path: a frame's nsc
  // subcarriers cost ONE prepare_batch_call and nsc preprocess_calls --
  // preprocess_calls stays the logical factorization count, so the
  // amortization ratio detection_calls / preprocess_calls is untouched.
  channel::RayleighChannel ch(4, 2);
  link::LinkScenario scenario;
  scenario.frame.qam_order = 16;
  scenario.frame.payload_bytes = 100;
  scenario.snr_db = 18.0;
  const phy::FrameCodec codec(scenario.frame);
  const std::size_t nsc = scenario.frame.data_subcarriers;
  const std::size_t syms = codec.ofdm_symbols_per_frame();

  link::LinkSimulator sim(ch, scenario);
  const std::size_t frames = 3;

  for (const char* name : {"zf", "geosphere", "soft-geosphere"}) {
    const DetectorSpec spec = DetectorSpec::parse(name);
    const auto det = spec.create(Constellation::qam(16));
    const link::LinkStats stats = sim.run(*det, spec.decision(), frames, /*seed=*/7);
    EXPECT_EQ(stats.detection.prepare_batch_calls, frames) << name;
    EXPECT_EQ(stats.detection.preprocess_calls, frames * nsc) << name;
    EXPECT_EQ(stats.detection_calls, frames * nsc * syms) << name;
  }
}

// ------------------------------------------------ packed drivers vs linalg --

/// Bitwise equality of two complex matrices: shape and every re/im bit.
bool same_bits(const linalg::CMatrix& a, const linalg::CMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(cf64)) == 0;
}

/// Kinds of channel the driver tests mix into every batch: healthy, and the
/// four degenerate cases the drivers mask per lane.
enum class SlotKind { kHealthy, kDuplicatedColumn, kZeroColumn, kAllZero, kTinyColumn };
constexpr int kSlotKinds = 5;

/// A channel of `kind`. 8x8 is the real-valued embedding of a random 4x4,
/// the shape RVD hands the QR driver.
linalg::CMatrix driver_channel(Rng& rng, std::size_t na, std::size_t nc, SlotKind kind) {
  linalg::CMatrix h;
  if (na == 8 && nc == 8) {
    const linalg::CMatrix c = random_channel(rng, 4, 4);
    h.assign_shape(8, 8);
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = 0; j < 4; ++j) {
        h(i, j) = c(i, j).real();
        h(i, 4 + j) = -c(i, j).imag();
        h(4 + i, j) = c(i, j).imag();
        h(4 + i, 4 + j) = c(i, j).real();
      }
  } else {
    h = random_channel(rng, na, nc);
  }
  // A one-column channel has no second column to duplicate: it stays
  // healthy.
  const std::size_t last = nc - 1;
  if (kind == SlotKind::kAllZero) h.assign_shape(na, nc);
  for (std::size_t i = 0; i < na; ++i) {
    if (kind == SlotKind::kDuplicatedColumn) h(i, last) = h(i, 0);
    if (kind == SlotKind::kZeroColumn) h(i, last) = cf64{};
    if (kind == SlotKind::kTinyColumn) h(i, last) *= 1e-9;
  }
  return h;
}

/// Runs `check(hs, who)` over every supported kernel tier, every
/// driver shape and batch sizes {1, W-1, W, 48}. Slot s of a batch has kind
/// (s + rotation) % kSlotKinds, and the rotation cycles through every kind,
/// so every kind also lands in a batch of one (the prepare() path).
template <typename Check>
void for_each_driver_batch(Check&& check) {
  const std::pair<std::size_t, std::size_t> shapes[] = {{1, 1}, {2, 2}, {4, 2},
                                                        {4, 4}, {8, 4}, {8, 8}};
  for (const prepare::simd::Kernel* kernel : prepare::simd::supported_kernels()) {
    KernelOverride tier(kernel->name);
    std::vector<std::size_t> sizes{1, kernel->width, 48};
    if (kernel->width > 1) sizes.push_back(kernel->width - 1);
    for (const auto& [na, nc] : shapes) {
      Rng rng(1000 * na + nc);
      for (const std::size_t count : sizes)
        for (int rotation = 0; rotation < kSlotKinds; ++rotation) {
          std::vector<linalg::CMatrix> hs;
          for (std::size_t s = 0; s < count; ++s)
            hs.push_back(driver_channel(
                rng, na, nc, static_cast<SlotKind>((s + rotation) % kSlotKinds)));
          check(hs, std::string(kernel->name) + "/" + std::to_string(na) + "x" +
                        std::to_string(nc) + "/n" + std::to_string(count) + "/rot" +
                        std::to_string(rotation));
        }
    }
  }
}

TEST(PrepareDrivers, BatchQrMatchesHouseholderQrAndRankTestOnEveryTier) {
  prepare::BatchQr driver;
  std::vector<prepare::QrSlot> slots;
  std::size_t verdicts[2] = {};  // Slots judged rank deficient / full rank.
  for_each_driver_batch([&](const std::vector<linalg::CMatrix>& hs, const std::string& who) {
    driver.run(hs.data(), hs.size(), slots);
    ASSERT_EQ(slots.size(), hs.size()) << who;
    for (std::size_t s = 0; s < hs.size(); ++s) {
      const auto [q, r] = linalg::householder_qr(hs[s]);
      EXPECT_TRUE(same_bits(slots[s].qh, q.hermitian())) << who << "/slot" << s;
      EXPECT_TRUE(same_bits(slots[s].r, r)) << who << "/slot" << s;
      const double rank_tol = 1e-10 * std::sqrt(std::max(hs[s].frobenius_norm_sq(), 1e-300));
      bool rank_ok = true;
      for (std::size_t l = 0; l < r.cols(); ++l)
        if (r(l, l).real() <= rank_tol) rank_ok = false;
      EXPECT_EQ(slots[s].rank_ok, rank_ok) << who << "/slot" << s;
      ++verdicts[rank_ok ? 1 : 0];
    }
  });
  EXPECT_GT(verdicts[0], 0u);  // The mix exercises both verdicts.
  EXPECT_GT(verdicts[1], 0u);
}

TEST(PrepareDrivers, GramInverseMatchesLinalgInverseOnEveryTier) {
  prepare::BatchLinear driver;
  std::vector<prepare::GramInvSlot> slots;
  // Unregularized (singular exactly where inverse throws) and MMSE's
  // noise-regularized Gram.
  for (const double n0 : {0.0, 0.05}) {
    const bool add_noise = n0 > 0.0;
    for_each_driver_batch([&](const std::vector<linalg::CMatrix>& hs, const std::string& who) {
      driver.gram_inverse(hs.data(), hs.size(), add_noise, n0, slots);
      ASSERT_EQ(slots.size(), hs.size()) << who;
      for (std::size_t s = 0; s < hs.size(); ++s) {
        const std::string at = who + "/n0=" + std::to_string(n0) + "/slot" + std::to_string(s);
        const linalg::CMatrix hh = hs[s].hermitian();
        linalg::CMatrix gram = hh * hs[s];
        if (add_noise)
          for (std::size_t d = 0; d < gram.rows(); ++d) gram(d, d) += n0;
        linalg::CMatrix inv;
        const std::string thrown = thrown_signature([&] { inv = linalg::inverse(gram); });
        EXPECT_TRUE(same_bits(slots[s].hh, hh)) << at;
        EXPECT_EQ(slots[s].singular, !thrown.empty()) << at;
        if (thrown.empty()) {
          EXPECT_TRUE(same_bits(slots[s].inv, inv)) << at;
        }
      }
    });
  }
}

TEST(PrepareDrivers, PseudoInverseMatchesLinalgPseudoInverseOnEveryTier) {
  prepare::BatchLinear driver;
  std::vector<linalg::CMatrix> filters;
  std::vector<std::uint8_t> singular;
  std::size_t verdicts[2] = {};  // Slots where pseudo_inverse throws / returns.
  for_each_driver_batch([&](const std::vector<linalg::CMatrix>& hs, const std::string& who) {
    driver.pseudo_inverse(hs.data(), hs.size(), filters, singular);
    ASSERT_EQ(filters.size(), hs.size()) << who;
    ASSERT_EQ(singular.size(), hs.size()) << who;
    for (std::size_t s = 0; s < hs.size(); ++s) {
      linalg::CMatrix pinv;
      const std::string thrown =
          thrown_signature([&] { pinv = linalg::pseudo_inverse(hs[s]); });
      EXPECT_EQ(singular[s] != 0, !thrown.empty()) << who << "/slot" << s;
      if (thrown.empty()) {
        EXPECT_TRUE(same_bits(filters[s], pinv)) << who << "/slot" << s;
      }
      ++verdicts[thrown.empty() ? 1 : 0];
    }
  });
  EXPECT_GT(verdicts[0], 0u);  // The mix exercises both verdicts.
  EXPECT_GT(verdicts[1], 0u);
}

}  // namespace
}  // namespace geosphere
