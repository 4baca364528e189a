// Tests for the DetectorSpec parser and registry: the single surface
// through which the CLI, SweepSpec and the engine name detectors. Parsing
// is strict -- malformed parameters must fail loudly with a message that
// names the valid forms, never silently configure a different detector.
#include "detect/spec.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "detect/soft_sts.h"
#include "reference/soft_output.h"
#include "reference/test_detector_spec.h"

namespace geosphere {
namespace {

::testing::AssertionResult parse_fails_mentioning(const std::string& text,
                                                const std::string& fragment) {
  try {
    (void)DetectorSpec::parse(text);
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    if (what.find(fragment) == std::string::npos)
      return ::testing::AssertionFailure()
             << "\"" << text << "\" failed but message lacks \"" << fragment
             << "\": " << what;
    if (what.find("valid forms:") == std::string::npos)
      return ::testing::AssertionFailure()
             << "\"" << text << "\" error does not list the valid forms: " << what;
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "\"" << text << "\" parsed but should not";
}

TEST(DetectorSpec, ParsesPlainNames) {
  const DetectorSpec geo = DetectorSpec::parse("geosphere");
  EXPECT_EQ(geo.base(), "geosphere");
  EXPECT_EQ(geo.text(), "geosphere");
  EXPECT_EQ(geo.decision(), DecisionMode::kHard);
  EXPECT_FALSE(geo.soft_capable());
  EXPECT_NE(geo.create(Constellation::qam(16)), nullptr);
}

TEST(DetectorSpec, RejectsMalformedParameters) {
  // Zero, non-numeric, trailing-garbage, empty, negative, out-of-range,
  // overflowing and doubled parameters, and forbidden ones.
  EXPECT_TRUE(parse_fails_mentioning("soft-geosphere-sts:0", "[1, 1000]"));
  EXPECT_TRUE(parse_fails_mentioning("soft-geosphere-sts:8x", "[1, 1000]"));
  EXPECT_TRUE(parse_fails_mentioning("soft-geosphere-sts:x8", "[1, 1000]"));
  EXPECT_TRUE(parse_fails_mentioning("soft-geosphere-sts:", "[1, 1000]"));
  EXPECT_TRUE(parse_fails_mentioning("soft-geosphere-sts:-1", "[1, 1000]"));
  EXPECT_TRUE(parse_fails_mentioning("soft-geosphere-sts:1001", "[1, 1000]"));
  EXPECT_TRUE(
      parse_fails_mentioning("soft-geosphere-sts:99999999999999999999", "[1, 1000]"));
  EXPECT_TRUE(parse_fails_mentioning("soft-geosphere-sts:8:8", "[1, 1000]"));
  EXPECT_TRUE(parse_fails_mentioning("zf:4", "takes no parameter"));
  EXPECT_TRUE(parse_fails_mentioning("does-not-exist", "unknown detector"));
  EXPECT_TRUE(parse_fails_mentioning("", "unknown detector"));
  EXPECT_TRUE(parse_fails_mentioning(":8", "unknown detector"));
  EXPECT_TRUE(parse_fails_mentioning("GEOSPHERE", "unknown detector"));
}

TEST(DetectorSpec, SoftGeosphereIsARegistryDetector) {
  // The registry's soft Geosphere is the single tree search. The repeated
  // tree search is its test reference (tests/reference/), not a registry
  // detector: its name is unknown here.
  const DetectorSpec spec = DetectorSpec::parse("soft-geosphere-sts");
  EXPECT_EQ(spec.decision(), DecisionMode::kSoft);
  EXPECT_TRUE(spec.soft_capable());
  EXPECT_TRUE(spec.supports(DecisionMode::kHard));
  EXPECT_TRUE(spec.supports(DecisionMode::kSoft));

  const auto det = spec.create(Constellation::qam(16));
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->name(), "soft-geosphere-sts");
  ASSERT_NE(det->soft(), nullptr);
  // The default LLR clamp matches the optional-parameter default.
  const auto* soft = dynamic_cast<SoftGeosphereStsDetector*>(det.get());
  ASSERT_NE(soft, nullptr);
  EXPECT_DOUBLE_EQ(soft->llr_clamp(), 30.0);

  EXPECT_TRUE(parse_fails_mentioning("soft-geosphere", "unknown detector \"soft-geosphere\""));
  EXPECT_TRUE(parse_fails_mentioning("soft-geosphere:30", "unknown detector"));
}

TEST(DetectorSpec, SoftGeosphereOptionalClampParameter) {
  // An omitted optional parameter is the same configuration as its
  // explicit default: one canonical text, equal specs (and therefore one
  // per-worker cache entry in the engine).
  EXPECT_EQ(DetectorSpec::parse("soft-geosphere-sts").text(), "soft-geosphere-sts:30");
  EXPECT_TRUE(DetectorSpec::parse("soft-geosphere-sts") ==
              DetectorSpec::parse("soft-geosphere-sts:30"));

  const DetectorSpec spec = DetectorSpec::parse("soft-geosphere-sts:50");
  EXPECT_EQ(spec.text(), "soft-geosphere-sts:50");
  const auto det = spec.create(Constellation::qam(4));
  const auto* soft = dynamic_cast<SoftGeosphereStsDetector*>(det.get());
  ASSERT_NE(soft, nullptr);
  EXPECT_DOUBLE_EQ(soft->llr_clamp(), 50.0);
  EXPECT_TRUE(parse_fails_mentioning("soft-geosphere-sts:0", "[1, 1000]"));
  EXPECT_TRUE(parse_fails_mentioning("soft-geosphere-sts:30dB", "[1, 1000]"));

  // The tests name the reference with the same CLAMP grammar.
  using testing::TestDetectorSpec;
  EXPECT_EQ(TestDetectorSpec::parse("soft-geosphere").text(), "soft-geosphere:30");
  EXPECT_EQ(TestDetectorSpec::parse("soft-geosphere").decision(), DecisionMode::kSoft);
  const TestDetectorSpec ref = TestDetectorSpec::parse("soft-geosphere:50");
  EXPECT_EQ(ref.text(), "soft-geosphere:50");
  EXPECT_EQ(ref.base(), "soft-geosphere");
  const auto ref_det = ref.create(Constellation::qam(4));
  EXPECT_EQ(ref_det->name(), "soft-geosphere");
  const auto* ref_soft = dynamic_cast<SoftGeosphereDetector*>(ref_det.get());
  ASSERT_NE(ref_soft, nullptr);
  EXPECT_DOUBLE_EQ(ref_soft->llr_clamp(), 50.0);
  EXPECT_THROW(TestDetectorSpec::parse("soft-geosphere:0"), std::invalid_argument);
  EXPECT_THROW(TestDetectorSpec::parse("soft-geosphere:30dB"), std::invalid_argument);
  EXPECT_EQ(TestDetectorSpec::parse("soft-geosphere-sts").text(), "soft-geosphere-sts:30");
}

TEST(DetectorSpec, WithDecisionValidatesCapability) {
  const DetectorSpec zf = DetectorSpec::parse("zf");
  EXPECT_THROW(zf.with_decision(DecisionMode::kSoft), std::invalid_argument);
  EXPECT_EQ(zf.with_decision(DecisionMode::kHard).decision(), DecisionMode::kHard);

  const DetectorSpec soft = DetectorSpec::parse("soft-geosphere-sts");
  const DetectorSpec hardened = soft.with_decision(DecisionMode::kHard);
  EXPECT_EQ(hardened.decision(), DecisionMode::kHard);
  EXPECT_EQ(hardened.text(), soft.text());  // Same instance configuration.
  EXPECT_FALSE(hardened == soft);           // Different run mode.
}

TEST(DetectorSpec, RegistryListsEveryDetectorOnce) {
  // detector_names() is the registry's names in registry order, and every
  // one of them parses as it is.
  const std::vector<std::string> expected = {
      "zf",     "mmse",    "mmse-sic", "geosphere", "geosphere-2dzz", "geosphere-sqrd",
      "eth-sd", "shabany", "ml",       "soft-geosphere-sts"};
  EXPECT_EQ(detector_names(), expected);
  EXPECT_EQ(detector_registry().size(), expected.size());
  for (const std::string& name : expected) EXPECT_EQ(DetectorSpec::parse(name).base(), name);
  EXPECT_TRUE(parse_fails_mentioning(
      "nope", "(valid forms: zf mmse mmse-sic geosphere geosphere-2dzz geosphere-sqrd "
              "eth-sd shabany ml soft-geosphere-sts[:CLAMP])"));
}

}  // namespace
}  // namespace geosphere
