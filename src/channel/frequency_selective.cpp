#include "channel/frequency_selective.h"

#include <cmath>
#include <stdexcept>

#include "common/types.h"

namespace geosphere::channel {

namespace {

/// e^{-j 2 pi bin l / N}: the factor TapSet::response applies to tap l. The
/// twiddle table holds exactly these values.
cf64 twiddle(std::size_t bin, std::size_t l, std::size_t fft_size) {
  const double phase = -2.0 * kPi * static_cast<double>(bin) * static_cast<double>(l) /
                       static_cast<double>(fft_size);
  return {std::cos(phase), std::sin(phase)};
}

}  // namespace

FrequencySelectiveChannel::FrequencySelectiveChannel(std::size_t na, std::size_t nc,
                                                     std::size_t taps, double decay,
                                                     std::size_t fft_size)
    : na_(na), nc_(nc), fft_size_(fft_size) {
  if (taps == 0) throw std::invalid_argument("FrequencySelectiveChannel: taps >= 1");
  if (decay <= 0.0 || decay > 1.0)
    throw std::invalid_argument("FrequencySelectiveChannel: decay must be in (0, 1]");
  if (taps > fft_size)
    throw std::invalid_argument("FrequencySelectiveChannel: taps exceed FFT size");
  tap_powers_.resize(taps);
  double total = 0.0;
  for (std::size_t l = 0; l < taps; ++l) {
    tap_powers_[l] = std::pow(decay, static_cast<double>(l));
    total += tap_powers_[l];
  }
  for (auto& p : tap_powers_) p /= total;  // Unit total power per entry.
  twiddles_.resize(fft_size * taps);
  for (std::size_t f = 0; f < fft_size; ++f)
    for (std::size_t l = 0; l < taps; ++l)
      twiddles_[f * taps + l] = twiddle(f, l, fft_size);
}

linalg::CMatrix TapSet::response(std::size_t bin, std::size_t fft_size) const {
  if (taps.empty()) return {};
  linalg::CMatrix h(taps.front().rows(), taps.front().cols());
  for (std::size_t l = 0; l < taps.size(); ++l) {
    const cf64 rot = twiddle(bin, l, fft_size);
    for (std::size_t i = 0; i < h.rows(); ++i)
      for (std::size_t j = 0; j < h.cols(); ++j) h(i, j) += rot * taps[l](i, j);
  }
  return h;
}

void TapSet::convolve_client(std::size_t client, const CVector& tx,
                             std::vector<CVector>& rx) const {
  for (std::size_t ant = 0; ant < rx.size(); ++ant) {
    CVector& out = rx[ant];
    for (std::size_t n = 0; n < tx.size(); ++n) {
      for (std::size_t l = 0; l < taps.size() && l <= n; ++l)
        out[n] += taps[l](ant, client) * tx[n - l];
    }
  }
}

TapSet FrequencySelectiveChannel::draw_taps(Rng& rng) const {
  TapSet set;
  set.taps.reserve(tap_powers_.size());
  for (const double power : tap_powers_) {
    linalg::CMatrix h(na_, nc_);
    for (std::size_t i = 0; i < na_; ++i)
      for (std::size_t j = 0; j < nc_; ++j) h(i, j) = rng.cgaussian(power);
    set.taps.push_back(std::move(h));
  }
  return set;
}

void FrequencySelectiveChannel::draw_link_into(Rng& rng, std::size_t nsc, Link& link) const {
  if (nsc > fft_size_)
    throw std::invalid_argument("FrequencySelectiveChannel: more subcarriers than FFT bins");
  link.subcarriers.resize(nsc);
  for (linalg::CMatrix& h : link.subcarriers) h.assign_shape(na_, nc_);
  // draw_taps' draw order; each coefficient goes straight into every
  // subcarrier's sum (see the header for why this is response()'s sum).
  const std::size_t taps = tap_powers_.size();
  for (std::size_t l = 0; l < taps; ++l)
    for (std::size_t i = 0; i < na_; ++i)
      for (std::size_t j = 0; j < nc_; ++j) {
        const cf64 g = rng.cgaussian(tap_powers_[l]);
        for (std::size_t f = 0; f < nsc; ++f)
          link.subcarriers[f](i, j) += twiddles_[f * taps + l] * g;
      }
}

}  // namespace geosphere::channel
