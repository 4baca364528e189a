#include "coding/puncture.h"

#include <stdexcept>

#include "coding/simd/viterbi_kernel.h"

namespace geosphere::coding {

double code_rate_value(CodeRate r) {
  switch (r) {
    case CodeRate::kHalf:
      return 0.5;
    case CodeRate::kTwoThirds:
      return 2.0 / 3.0;
    case CodeRate::kThreeQuarters:
      return 0.75;
  }
  throw std::invalid_argument("unknown CodeRate");
}

const char* code_rate_label(CodeRate r) {
  switch (r) {
    case CodeRate::kHalf:
      return "1/2";
    case CodeRate::kTwoThirds:
      return "2/3";
    case CodeRate::kThreeQuarters:
      return "3/4";
  }
  throw std::invalid_argument("unknown CodeRate");
}

Puncturer::Puncturer(CodeRate rate) : rate_(rate) {
  // Patterns over (A1 B1 A2 B2 ...) pairs, 802.11a Section 17.3.5.6.
  switch (rate) {
    case CodeRate::kHalf:
      pattern_ = {1, 1};
      break;
    case CodeRate::kTwoThirds:
      pattern_ = {1, 1, 1, 0};  // A1 B1 A2 (B2 stolen).
      break;
    case CodeRate::kThreeQuarters:
      pattern_ = {1, 1, 1, 0, 0, 1};  // A1 B1 A2 (B2, A3 stolen) B3.
      break;
  }
}

BitVector Puncturer::puncture(const BitVector& coded) const {
  BitVector out;
  out.reserve(punctured_length(coded.size()));
  std::size_t k = 0;  // Position in the pattern, wrapping.
  for (std::size_t i = 0; i < coded.size(); ++i) {
    if (pattern_[k]) out.push_back(coded[i]);
    if (++k == pattern_.size()) k = 0;
  }
  return out;
}

std::size_t Puncturer::punctured_length(std::size_t coded_bits) const {
  // Whole periods, then the kept bits of the remainder's pattern prefix.
  const std::size_t period = pattern_.size();
  std::size_t per_period = 0, prefix = 0;
  for (std::size_t k = 0; k < period; ++k) {
    per_period += pattern_[k];
    if (k < coded_bits % period) prefix += pattern_[k];
  }
  return (coded_bits / period) * per_period + prefix;
}

std::vector<double> Puncturer::depuncture(const std::vector<double>& received,
                                          std::size_t coded_bits) const {
  std::vector<double> out;
  depuncture(received, coded_bits, out);
  return out;
}

template <class T>
void Puncturer::depuncture_into(const std::vector<T>& received, std::size_t coded_bits,
                                T erasure, std::vector<T>& out) const {
  if (received.size() != punctured_length(coded_bits))
    throw std::invalid_argument("Puncturer::depuncture: length mismatch");
  out.assign(coded_bits, erasure);
  std::size_t r = 0;
  std::size_t k = 0;  // Position in the pattern, wrapping.
  for (std::size_t i = 0; i < coded_bits; ++i) {
    if (pattern_[k]) out[i] = received[r++];
    if (++k == pattern_.size()) k = 0;
  }
}

void Puncturer::depuncture(const std::vector<double>& received, std::size_t coded_bits,
                           std::vector<double>& out) const {
  depuncture_into(received, coded_bits, 0.5, out);
}

void Puncturer::depuncture(const std::vector<std::int16_t>& received, std::size_t coded_bits,
                           std::vector<std::int16_t>& out) const {
  depuncture_into(received, coded_bits, static_cast<std::int16_t>(simd::kQuantErasure), out);
}

}  // namespace geosphere::coding
