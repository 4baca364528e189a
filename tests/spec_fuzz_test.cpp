// Randomized robustness tests for the four strict spec parsers
// (DetectorSpec, ChannelSpec, CodeSpec and ServeSpec). Every registry form
// parses to a canonical text that parses back to itself. Then thousands of
// seeded mutations of valid strings -- byte flips, inserted, deleted or
// doubled separators, huge and negative numbers, and truncation at every
// length -- must each either parse to a fixed point
// (parse(s.text()).text() == s.text()) or throw std::invalid_argument. Any
// other exception fails the test, and CI runs this binary under
// ASan+UBSan, so a read past a split token fails it too.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "channel/spec.h"
#include "coding/spec.h"
#include "common/rng.h"
#include "detect/spec.h"
#include "serve/spec.h"

namespace geosphere {
namespace {

/// Mutated strings per parser, beside the truncations.
constexpr std::size_t kMutations = 2500;

/// The characters the grammars split on.
constexpr std::string_view kSeparators = ",;=:|";

/// Numbers that replace a digit run: bounds, overflows, negatives, and
/// more digits than any integer or double holds.
const std::vector<std::string>& extreme_numbers() {
  static const std::vector<std::string> numbers = {
      "0",
      "-0",
      "-1",
      "00000000000000000000008",
      "4294967295",
      "4294967296",
      "18446744073709551615",
      "18446744073709551616",
      "-18446744073709551616",
      "0.000000000000000000000000000000000000000000000000000000000001",
      "1.",
      ".5",
      "-.",
      std::string(400, '9'),
      "-" + std::string(400, '9'),
      "0." + std::string(400, '0') + "1",
  };
  return numbers;
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(static_cast<int>(n)));
}

/// One random edit of `s`.
void mutate_once(Rng& rng, std::string& s) {
  std::vector<std::size_t> at;  // Candidate positions for the chosen edit.
  switch (rng.uniform_int(5)) {
    case 0:  // Flip a byte to any value, NUL and high bytes included.
      if (!s.empty()) s[pick(rng, s.size())] = static_cast<char>(rng.uniform_int(256));
      return;
    case 1:  // Delete a byte.
      if (!s.empty()) s.erase(pick(rng, s.size()), 1);
      return;
    case 2:  // Insert a separator.
      s.insert(pick(rng, s.size() + 1), 1, kSeparators[pick(rng, kSeparators.size())]);
      return;
    case 3:  // Delete or double a separator.
      for (std::size_t i = 0; i < s.size(); ++i)
        if (kSeparators.find(s[i]) != std::string_view::npos) at.push_back(i);
      if (at.empty()) return;
      if (const std::size_t i = at[pick(rng, at.size())]; rng.uniform_int(2) == 0) {
        s.erase(i, 1);
      } else {
        s.insert(i, 1, s[i]);
      }
      return;
    default: {  // Replace a digit run with an extreme number.
      for (std::size_t i = 0; i < s.size(); ++i)
        if (s[i] >= '0' && s[i] <= '9' && (i == 0 || s[i - 1] < '0' || s[i - 1] > '9'))
          at.push_back(i);
      if (at.empty()) return;
      const std::size_t begin = at[pick(rng, at.size())];
      std::size_t end = begin;
      while (end < s.size() && s[end] >= '0' && s[end] <= '9') ++end;
      const std::vector<std::string>& numbers = extreme_numbers();
      s.replace(begin, end - begin, numbers[pick(rng, numbers.size())]);
      return;
    }
  }
}

/// Tallies of one parser's run.
struct Outcomes {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// Parses `text`: it must reach a fixed point or throw
/// std::invalid_argument.
template <class Spec>
void expect_fixed_point_or_rejection(const std::string& text, Outcomes& out) {
  std::string canonical;
  try {
    canonical = Spec::parse(text).text();
  } catch (const std::invalid_argument&) {
    ++out.rejected;
    return;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "\"" << text << "\" threw a non-invalid_argument: " << e.what();
    return;
  }
  ++out.accepted;
  EXPECT_EQ(Spec::parse(canonical).text(), canonical) << "parsed from \"" << text << "\"";
}

/// The whole check for one parser over its valid strings.
template <class Spec>
void fuzz_parser(const std::vector<std::string>& valid, std::uint64_t seed) {
  ASSERT_FALSE(valid.empty());
  Outcomes out;
  for (const std::string& form : valid) {
    const std::string canonical = Spec::parse(form).text();
    EXPECT_EQ(Spec::parse(canonical).text(), canonical) << "registry form \"" << form << "\"";
    for (std::size_t len = 0; len <= form.size(); ++len)
      expect_fixed_point_or_rejection<Spec>(form.substr(0, len), out);
  }
  Rng rng(seed);
  for (std::size_t i = 0; i < kMutations; ++i) {
    std::string s = valid[pick(rng, valid.size())];
    for (int edits = 1 + rng.uniform_int(3); edits > 0; --edits) mutate_once(rng, s);
    expect_fixed_point_or_rejection<Spec>(s, out);
  }
  EXPECT_GE(out.accepted + out.rejected, kMutations);
  EXPECT_GT(out.rejected, 0u);
}

std::vector<std::string> detector_forms() {
  std::vector<std::string> out;
  for (const DetectorInfo& info : detector_registry()) {
    out.push_back(info.name);
    if (info.takes_param)
      for (const unsigned p : {info.min_param, info.max_param})
        out.push_back(info.name + ":" + std::to_string(p));
  }
  return out;
}

std::vector<std::string> channel_forms() {
  std::vector<std::string> out;
  for (const channel::ChannelInfo& info : channel::channel_registry()) {
    if (!info.param_required) out.push_back(info.name);
    switch (info.param) {
      case channel::ChannelParam::kNone:
        break;
      case channel::ChannelParam::kReal:
        out.push_back(info.name + ":" + std::to_string(info.min_real));
        break;
      case channel::ChannelParam::kInt:
        for (const unsigned p : {info.min_int, info.max_int})
          out.push_back(info.name + ":" + std::to_string(p));
        break;
      case channel::ChannelParam::kPath:
        out.push_back(info.name + ":traces/run-1.geotrace");
        break;
    }
  }
  return out;
}

std::vector<std::string> code_forms() {
  std::vector<std::string> out;
  for (const coding::CodeInfo& info : coding::code_registry()) out.push_back(info.name);
  return out;
}

/// Serve specs: the fully spelled default cell, multi-cell specs that set
/// every key, and one cell per detector form so the nested registries'
/// errors are reached through the serve grammar too.
std::vector<std::string> serve_forms() {
  std::vector<std::string> out = {
      serve::CellSpec{}.text(),
      "users=24,antennas=4,load=0.7,detector=geosphere,snr=22,qams=4|16|64;"
      "users=12,antennas=4,load=0.4,detector=mmse,snr=18,qams=4|16",
      "users=4,antennas=2,load=0.6,payload=30,detector=soft-geosphere-sts,code=3/4,"
      "qams=4|16,snr=12;users=16,channel=freq-selective:8,detector=mmse-sic,snr=-3.5,"
      "spread=0,window=1.25,qams=256|16,payload=100000;users=1000000,antennas=64,"
      "load=1,channel=kronecker:0.25,code=none",
  };
  std::vector<std::string> channels;  // Fixed-dims (trace) channels are not servable.
  for (const std::string& c : channel_forms())
    if (!channel::ChannelSpec::parse(c).fixed_dims()) channels.push_back(c);
  const std::vector<std::string> codes = code_forms();
  std::size_t i = 0;
  for (const std::string& detector : detector_forms()) {
    out.push_back("detector=" + detector + ",channel=" + channels[i % channels.size()] +
                  ",code=" + codes[i % codes.size()]);
    ++i;
  }
  return out;
}

TEST(SpecFuzz, DetectorSpecRejectsOrReachesAFixedPoint) {
  fuzz_parser<DetectorSpec>(detector_forms(), 101);
}

TEST(SpecFuzz, ChannelSpecRejectsOrReachesAFixedPoint) {
  fuzz_parser<channel::ChannelSpec>(channel_forms(), 202);
}

TEST(SpecFuzz, CodeSpecRejectsOrReachesAFixedPoint) {
  fuzz_parser<coding::CodeSpec>(code_forms(), 303);
}

TEST(SpecFuzz, ServeSpecRejectsOrReachesAFixedPoint) {
  fuzz_parser<serve::ServeSpec>(serve_forms(), 404);
}

}  // namespace
}  // namespace geosphere
