// Frequency-selective MIMO channel: an L-tap tapped-delay line with an
// exponential power-delay profile and i.i.d. Rayleigh tap matrices. The
// per-subcarrier response is the DFT of the taps, exactly what an OFDM
// receiver estimates per subcarrier.
//
// DFT equivalence: on the same Rng, draw_link(rng, nsc) equals, bit for
// bit, TapSet::response(f, fft_size) of draw_taps(rng) for every f < nsc,
// and leaves the Rng at the same position
// (FrequencySelective.DrawLinkIsTheDftOfDrawTaps). The draw does not build
// the taps: the channel computes its fft_size x taps twiddles once, with
// response()'s phase expression, and each drawn tap coefficient g is
// accumulated as twiddle(f, l) * g into every subcarrier f, tap by tap
// from zero -- response()'s per-element sum in its order.
#pragma once

#include "channel/channel_model.h"

namespace geosphere::channel {

/// A time-domain channel impulse response: one n_a x n_c matrix per delay
/// tap. The bridge between per-subcarrier detection and sample-level OFDM
/// simulation (integration tests, channel estimation).
struct TapSet {
  std::vector<linalg::CMatrix> taps;

  /// Frequency response at FFT bin `bin`: sum_l taps[l] e^{-j 2 pi bin l / N}.
  linalg::CMatrix response(std::size_t bin, std::size_t fft_size) const;

  /// Convolve one client's time-domain samples into per-antenna receive
  /// streams (accumulating into `rx`, which must hold num_rx streams of at
  /// least tx.size() samples).
  void convolve_client(std::size_t client, const CVector& tx,
                       std::vector<CVector>& rx) const;
};

class FrequencySelectiveChannel final : public ChannelModel {
 public:
  /// `taps` >= 1 delay taps, exponentially decaying with `decay` (power
  /// ratio between successive taps, in (0, 1]); total power normalized to 1.
  FrequencySelectiveChannel(std::size_t na, std::size_t nc, std::size_t taps,
                            double decay = 0.5, std::size_t fft_size = 64);

  std::size_t num_rx() const override { return na_; }
  std::size_t num_tx() const override { return nc_; }

  /// Throws std::invalid_argument for nsc > fft_size: a subcarrier index
  /// of fft_size or more names no FFT bin.
  void draw_link_into(Rng& rng, std::size_t nsc, Link& link) const override;

  /// Draw the underlying impulse response itself (for sample-level
  /// simulation); draw_link() is equivalent to DFT-ing these taps.
  TapSet draw_taps(Rng& rng) const;

  const std::vector<double>& tap_powers() const { return tap_powers_; }

 private:
  std::size_t na_;
  std::size_t nc_;
  std::size_t fft_size_;
  std::vector<double> tap_powers_;
  /// twiddles_[f * taps + l]: response()'s factor for tap l at bin f.
  std::vector<cf64> twiddles_;
};

}  // namespace geosphere::channel
