#include "channel/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "channel/rayleigh.h"
#include "channel/testbed_ensemble.h"

namespace geosphere::channel {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Writes a version-1 trace header with the given dimensions, followed by
/// `payload` raw doubles -- a file save_trace would never produce.
void write_raw_trace(const std::string& path, std::uint64_t count, std::uint64_t nsc,
                     std::uint64_t na, std::uint64_t nc, const std::vector<double>& payload) {
  std::ofstream os(path, std::ios::binary);
  os.write("GEOTRACE", 8);
  const std::uint32_t version = 1;
  os.write(reinterpret_cast<const char*>(&version), sizeof version);
  for (const std::uint64_t v : {count, nsc, na, nc})
    os.write(reinterpret_cast<const char*>(&v), sizeof v);
  os.write(reinterpret_cast<const char*>(payload.data()),
           static_cast<std::streamsize>(payload.size() * sizeof(double)));
}

/// load_trace(path) must throw std::runtime_error with a "load_trace:"
/// message.
void expect_load_error(const std::string& path, const std::string& why) {
  try {
    load_trace(path);
    ADD_FAILURE() << why << ": load_trace accepted the file";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("load_trace:", 0), 0u) << why << ": " << e.what();
  }
}

TEST(Trace, SaveLoadRoundTrip) {
  RayleighChannel model(4, 2);
  Rng rng(1);
  const auto links = record_trace(model, 7, 12, rng);
  const std::string path = temp_path("geo_trace_roundtrip.bin");
  save_trace(path, links);
  const auto loaded = load_trace(path);

  ASSERT_EQ(loaded.size(), links.size());
  for (std::size_t l = 0; l < links.size(); ++l) {
    ASSERT_EQ(loaded[l].num_subcarriers(), 12u);
    for (std::size_t f = 0; f < 12; ++f)
      for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 2; ++j)
          EXPECT_EQ(loaded[l].subcarriers[f](i, j), links[l].subcarriers[f](i, j));
  }
  std::remove(path.c_str());
}

TEST(Trace, ReplayIsDeterministicPerSeed) {
  TestbedConfig tc;
  tc.clients = 2;
  tc.ap_antennas = 2;
  TestbedEnsemble ensemble(tc);
  Rng rec_rng(2);
  TraceChannelModel trace(record_trace(ensemble, 10, 8, rec_rng));
  EXPECT_EQ(trace.num_rx(), 2u);
  EXPECT_EQ(trace.num_tx(), 2u);
  EXPECT_EQ(trace.num_links(), 10u);

  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 20; ++i) {
    const Link la = trace.draw_link(a, 8);
    const Link lb = trace.draw_link(b, 8);
    for (std::size_t f = 0; f < 8; ++f)
      EXPECT_EQ(la.subcarriers[f](0, 0), lb.subcarriers[f](0, 0));
  }
}

TEST(Trace, SubcarrierTruncation) {
  RayleighChannel model(2, 2);
  Rng rng(3);
  TraceChannelModel trace(record_trace(model, 3, 16, rng));
  Rng draw(1);
  EXPECT_EQ(trace.draw_link(draw, 4).num_subcarriers(), 4u);
  EXPECT_THROW(trace.draw_link(draw, 17), std::invalid_argument);
}

TEST(Trace, RejectsBadInputs) {
  EXPECT_THROW(save_trace(temp_path("x.bin"), {}), std::invalid_argument);
  EXPECT_THROW(TraceChannelModel(std::vector<Link>{}), std::invalid_argument);
  EXPECT_THROW(load_trace(temp_path("geo_trace_nonexistent.bin")), std::runtime_error);

  // Garbage file: wrong magic.
  const std::string bad = temp_path("geo_trace_bad.bin");
  {
    std::ofstream os(bad, std::ios::binary);
    os << "NOTATRACEFILE____________";
  }
  EXPECT_THROW(load_trace(bad), std::runtime_error);
  std::remove(bad.c_str());
}

TEST(Trace, RejectsTruncatedFile) {
  RayleighChannel model(2, 2);
  Rng rng(4);
  const auto links = record_trace(model, 4, 8, rng);
  const std::string path = temp_path("geo_trace_trunc.bin");
  save_trace(path, links);
  // Chop the file in half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(load_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Trace, RejectsHostileHeaders) {
  const std::string path = temp_path("geo_trace_hostile.bin");
  // na * nc wraps to 0 in 64 bits: a 60-byte file whose matrices would get
  // no storage at all.
  write_raw_trace(path, 1, 1, std::uint64_t{1} << 62, 4, {0.5, -0.5});
  expect_load_error(path, "wrapping dimensions");
  // Dimensions the file cannot back (2^40 entries per matrix).
  write_raw_trace(path, 1, 1, std::uint64_t{1} << 20, std::uint64_t{1} << 20, {0.5, -0.5});
  expect_load_error(path, "oversized dimensions");
  // A valid trace with bytes appended after its payload.
  RayleighChannel model(2, 2);
  Rng rng(6);
  save_trace(path, record_trace(model, 2, 4, rng));
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write("trailing", 8);
  }
  expect_load_error(path, "trailing bytes");
  std::remove(path.c_str());
}

TEST(Trace, RejectsNonFiniteEntries) {
  const std::string path = temp_path("geo_trace_nonfinite.bin");
  RayleighChannel model(2, 2);
  Rng rng(7);
  const auto links = record_trace(model, 3, 8, rng);
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), std::numeric_limits<double>::infinity()}) {
    auto corrupt = links;
    corrupt[1].subcarriers[5](1, 0) = cf64{0.25, bad};
    save_trace(path, corrupt);
    expect_load_error(path, std::to_string(bad));
  }
  std::remove(path.c_str());
}

TEST(Trace, RejectsInhomogeneousLinks) {
  RayleighChannel big(4, 2);
  RayleighChannel small(2, 2);
  Rng rng(5);
  auto links = record_trace(big, 2, 8, rng);
  links.push_back(small.draw_link(rng, 8));
  EXPECT_THROW(save_trace(temp_path("geo_trace_mixed.bin"), links),
               std::invalid_argument);
}

}  // namespace
}  // namespace geosphere::channel
