// Strict-parse suite for the serving layer's declarative surface
// (serve::CellSpec / serve::ServeSpec), in the same spirit as
// detect_spec_test / channel_spec_test: canonical round-trips, default
// filling, and loud rejection -- every parse error names the valid keys,
// and channel/detector typos surface those registries' valid forms.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "serve/spec.h"

namespace geosphere::serve {
namespace {

/// EXPECT that parsing `text` throws std::invalid_argument whose message
/// contains `needle` (and always the valid-keys listing).
void expect_reject(const std::string& text, const std::string& needle) {
  try {
    (void)ServeSpec::parse(text);
    FAIL() << "expected rejection of \"" << text << "\"";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos)
        << "message \"" << what << "\" lacks \"" << needle << "\"";
    EXPECT_NE(what.find("valid keys:"), std::string::npos)
        << "message \"" << what << "\" lacks the valid-keys listing";
  }
}

TEST(CellSpec, DefaultsAndCanonicalText) {
  const CellSpec spec = CellSpec::parse("users=8");
  EXPECT_EQ(spec.users, 8u);
  EXPECT_EQ(spec.antennas, 4u);
  EXPECT_DOUBLE_EQ(spec.load, 0.5);
  EXPECT_EQ(spec.channel, "rayleigh");
  EXPECT_EQ(spec.detector, "geosphere");
  EXPECT_EQ(spec.qams, (std::vector<unsigned>{4, 16, 64}));
  EXPECT_EQ(spec.code, "1/2");
  EXPECT_EQ(spec.text(),
            "users=8,antennas=4,load=0.5,channel=rayleigh,detector=geosphere,"
            "code=1/2,snr=20.0,spread=5.0,window=3.0,qams=4|16|64,payload=500");
}

TEST(CellSpec, RoundTripsAndCanonicalizesSpellings) {
  // Equivalent spellings (trailing zeros, detector defaults filled in)
  // collapse onto one canonical text, and parse(text()) is a fixed point.
  const CellSpec a =
      CellSpec::parse("load=0.50,detector=soft-geosphere-sts,snr=22.0,users=0012");
  const CellSpec b = CellSpec::parse(a.text());
  EXPECT_EQ(a.text(), b.text());
  EXPECT_EQ(a.users, 12u);
  EXPECT_NE(a.text().find("load=0.5,"), std::string::npos);
  EXPECT_NE(a.text().find("snr=22.0,"), std::string::npos);
  EXPECT_NE(a.text().find("detector=soft-geosphere-sts:30,"), std::string::npos);
}

TEST(CellSpec, CodeKeyCanonicalizesAndDefaultsApply) {
  EXPECT_EQ(CellSpec::parse("code=3/4").code, "3/4");
  EXPECT_EQ(CellSpec::parse("code=none").code, "none");

  // Defaults-aware parse: unspecified keys take the caller's defaults
  // (CLI --code/--detector), explicit per-cell keys still win.
  CellSpec defaults;
  defaults.code = "2/3";
  defaults.detector = "mmse";
  EXPECT_EQ(CellSpec::parse("users=8", defaults).code, "2/3");
  EXPECT_EQ(CellSpec::parse("users=8", defaults).detector, "mmse");
  EXPECT_EQ(CellSpec::parse("code=1/2", defaults).code, "1/2");
  const ServeSpec multi = ServeSpec::parse("users=4;users=2,code=3/4", defaults);
  EXPECT_EQ(multi.cells[0].code, "2/3");
  EXPECT_EQ(multi.cells[1].code, "3/4");
}

TEST(ServeSpec, BadCodeSurfacesRegistryForms) {
  expect_reject("code=1/3", "1/3");
  try {
    (void)ServeSpec::parse("code=1/3");
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("none"), std::string::npos) << what;
    EXPECT_NE(what.find("3/4"), std::string::npos) << what;
  }
}

TEST(ServeSpec, ParsesMultipleCellsAndRoundTrips) {
  const ServeSpec spec =
      ServeSpec::parse("users=32,load=0.6;users=8,detector=mmse,qams=16");
  ASSERT_EQ(spec.cells.size(), 2u);
  EXPECT_EQ(spec.cells[0].users, 32u);
  EXPECT_EQ(spec.cells[1].detector, "mmse");
  EXPECT_EQ(spec.cells[1].qams, (std::vector<unsigned>{16}));
  EXPECT_EQ(ServeSpec::parse(spec.text()).text(), spec.text());
}

TEST(ServeSpec, RejectsMalformedCells) {
  expect_reject("", "empty spec");
  expect_reject("users=4;;users=2", "empty cell");
  expect_reject("users", "expected key=value");
  expect_reject("=4", "expected key=value");
  expect_reject("frobnicate=1", "unknown key");
  expect_reject("users=4,users=8", "duplicate key");
}

TEST(ServeSpec, RejectsOutOfRangeValues) {
  expect_reject("users=0", "users must be an integer in [1, 1000000]");
  expect_reject("antennas=65", "antennas must be an integer in [1, 64]");
  expect_reject("load=0", "load must be in (0, 1]");
  expect_reject("load=1.5", "load must be in (0, 1]");
  expect_reject("load=0.5.5", "load must be a decimal number");
  expect_reject("snr=2e1", "snr must be a decimal number");
  expect_reject("snr=20dB", "snr must be a decimal number");
  expect_reject("spread=-1", "spread must be >= 0");
  expect_reject("window=0", "window must be > 0");
  expect_reject("qams=32", "qams entries must be 4, 16, 64 or 256");
  expect_reject("qams=", "qams entry must be an integer");
  expect_reject("qams=4|16|4", "duplicate qams entry \"4\"");
  expect_reject("payload=0", "payload must be an integer");
}

TEST(ServeSpec, BadChannelAndDetectorSurfaceRegistryForms) {
  // The nested registries' own valid-forms diagnostics must ride along in
  // the serve error, so one message explains the fix.
  expect_reject("channel=nosuch", "nosuch");
  try {
    (void)ServeSpec::parse("channel=nosuch");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rayleigh"), std::string::npos) << e.what();
  }
  expect_reject("detector=nosuch", "nosuch");
  try {
    (void)ServeSpec::parse("detector=nosuch");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("geosphere"), std::string::npos) << e.what();
  }
}

TEST(ServeSpec, RejectsFixedDimsChannels) {
  // Trace channels pin their own client count; the scheduler varies the
  // per-TTI stream count, so a servable cell cannot use one.
  expect_reject("channel=trace:tests/golden/does_not_matter.geotrace",
                "fixes its own dimensions");
}

}  // namespace
}  // namespace geosphere::serve
