#include "channel/kronecker.h"

#include <cmath>
#include <stdexcept>

#include "linalg/hermitian.h"

namespace geosphere::channel {

namespace {

linalg::CMatrix exponential_correlation_sqrt(std::size_t n, double rho) {
  if (rho < 0.0 || rho >= 1.0)
    throw std::invalid_argument("KroneckerChannel: rho must be in [0, 1)");
  linalg::CMatrix r(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      r(i, j) = std::pow(rho, std::abs(static_cast<double>(i) - static_cast<double>(j)));
  // Matrix square root via the eigendecomposition (R is Hermitian PSD).
  const auto eig = linalg::hermitian_eig(r);
  linalg::CMatrix sqrt_r(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cf64 acc{};
      for (std::size_t k = 0; k < n; ++k)
        acc += eig.vectors(i, k) * std::sqrt(std::max(eig.values[k], 0.0)) *
               std::conj(eig.vectors(j, k));
      sqrt_r(i, j) = acc;
    }
  }
  return sqrt_r;
}

}  // namespace

KroneckerChannel::KroneckerChannel(std::size_t na, std::size_t nc, double rho_rx,
                                   double rho_tx)
    : na_(na),
      nc_(nc),
      sqrt_rx_(exponential_correlation_sqrt(na, rho_rx)),
      sqrt_tx_(exponential_correlation_sqrt(nc, rho_tx)) {}

void KroneckerChannel::draw_link_into(Rng& rng, std::size_t nsc, Link& link) const {
  linalg::CMatrix hw(na_, nc_);
  for (std::size_t i = 0; i < na_; ++i)
    for (std::size_t j = 0; j < nc_; ++j) hw(i, j) = rng.cgaussian(1.0);
  link.subcarriers.assign(nsc, sqrt_rx_ * hw * sqrt_tx_);  // Copy-assigns kept matrices.
}

}  // namespace geosphere::channel
