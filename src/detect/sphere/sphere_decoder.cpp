#include "detect/sphere/sphere_decoder.h"

#include <numeric>
#include <stdexcept>

namespace geosphere::sphere {

namespace {

/// Sorted QR's detection order, written into `perm`: position j of the
/// permuted channel holds original column perm[j], ascending in column
/// energy, so the strongest column sits at the top of the tree and is
/// decided first (V-BLAST-style). Equal energies keep their column order:
/// a stable insertion sort, which gives std::stable_sort's order without
/// its temporary buffer (a stable order is unique unless an energy is NaN,
/// and a NaN energy means a non-finite H, which the rank test rejects).
/// `energy` is scratch.
void column_norm_order(const linalg::CMatrix& h, std::vector<std::size_t>& perm,
                       std::vector<double>& energy) {
  const std::size_t nc = h.cols();
  energy.assign(nc, 0.0);
  for (std::size_t j = 0; j < nc; ++j)
    for (std::size_t i = 0; i < h.rows(); ++i) energy[j] += std::norm(h(i, j));
  perm.resize(nc);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t k = 1; k < nc; ++k) {
    const std::size_t col = perm[k];
    std::size_t j = k;
    for (; j > 0 && energy[col] < energy[perm[j - 1]]; --j) perm[j] = perm[j - 1];
    perm[j] = col;
  }
}

}  // namespace

template <class Enumerator>
void SphereDecoder<Enumerator>::do_prepare_batch(const linalg::CMatrix* hs,
                                                 std::size_t count, double /*noise_var*/) {
  if (!config_.sorted_qr) {
    problem_.prepare_batch(hs, count);
    return;
  }
  // Per-slot detection order, then QR of the permuted copies (the rank
  // tolerance inside the packed driver reads the permuted copy's Frobenius
  // norm). The buffers only grow; every slot is rewritten in place.
  if (slot_perm_.size() < count) slot_perm_.resize(count);
  if (batch_hp_.size() < count) batch_hp_.resize(count);
  for (std::size_t s = 0; s < count; ++s) {
    const linalg::CMatrix& h = hs[s];
    std::vector<std::size_t>& order = slot_perm_[s];
    column_norm_order(h, order, energy_);
    linalg::CMatrix& hp = batch_hp_[s];
    hp.resize_shape(h.rows(), order.size());
    for (std::size_t i = 0; i < h.rows(); ++i)
      for (std::size_t j = 0; j < order.size(); ++j) hp(i, j) = h(i, order[j]);
  }
  problem_.prepare_batch(batch_hp_.data(), count);
}

template <class Enumerator>
void SphereDecoder<Enumerator>::do_select_prepared(std::size_t i) {
  problem_.select(i);
  const std::size_t nc = problem_.nc;
  if (config_.sorted_qr) {
    perm_ = slot_perm_[i];
  } else {
    perm_.resize(nc);
    std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  }
  search_.resize(nc, prototype_);
}

template <class Enumerator>
void SphereDecoder<Enumerator>::do_solve_batch(const linalg::CMatrix& y_batch,
                                               BatchResult& out) {
  // Row v of (Q^H Y)^T is bit-identical to the mat-vec Q^H y_v, so every
  // search sees exactly its own vector's input, read in place from one
  // contiguous span, and starts from its packed root center.
  problem_.rotate(y_batch);
  const std::size_t nc = problem_.nc;
  const std::size_t count = y_batch.cols();
  out.count = count;
  out.streams = nc;
  out.indices.resize(count * nc);
  DetectionStats stats;
  for (std::size_t v = 0; v < count; ++v) {
    if (!search_.run(problem_, problem_.yhat_t.row_data(v), problem_.root_centers[v],
                     constellation(), stats))
      throw std::runtime_error(name_ + ": no solution found (unbounded search)");
    // Undo the detection-order permutation.
    unsigned* dst = out.indices.data() + v * nc;
    for (std::size_t j = 0; j < nc; ++j) dst[perm_[j]] = search_.best[j];
  }
  out.stats = stats;
}

template class SphereDecoder<GeoEnumerator>;
template class SphereDecoder<HessEnumerator>;
template class SphereDecoder<ShabanyEnumerator>;

std::unique_ptr<Detector> make_geosphere(const Constellation& c, SphereConfig config) {
  return std::make_unique<SphereDecoder<GeoEnumerator>>(
      c, GeoEnumerator({.geometric_pruning = true}),
      config.sorted_qr ? "Geosphere-SQRD" : "Geosphere", config);
}

std::unique_ptr<Detector> make_geosphere_zigzag_only(const Constellation& c,
                                                     SphereConfig config) {
  return std::make_unique<SphereDecoder<GeoEnumerator>>(
      c, GeoEnumerator({.geometric_pruning = false}), "Geosphere-2DZZ", config);
}

std::unique_ptr<Detector> make_eth_sd(const Constellation& c, SphereConfig config) {
  return std::make_unique<SphereDecoder<HessEnumerator>>(c, HessEnumerator{}, "ETH-SD",
                                                         config);
}

std::unique_ptr<Detector> make_shabany_sd(const Constellation& c, SphereConfig config) {
  return std::make_unique<SphereDecoder<ShabanyEnumerator>>(c, ShabanyEnumerator{},
                                                            "Shabany-SD", config);
}

}  // namespace geosphere::sphere
