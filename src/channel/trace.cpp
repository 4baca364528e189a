#include "channel/trace.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

namespace geosphere::channel {

namespace {

constexpr char kMagic[8] = {'G', 'E', 'O', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ofstream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw std::runtime_error("load_trace: truncated file");
  return value;
}

}  // namespace

void save_trace(const std::string& path, const std::vector<Link>& links) {
  if (links.empty()) throw std::invalid_argument("save_trace: no links");
  const std::size_t nsc = links.front().num_subcarriers();
  const std::size_t na = links.front().subcarriers.front().rows();
  const std::size_t nc = links.front().subcarriers.front().cols();
  for (const Link& link : links) {
    if (link.num_subcarriers() != nsc || link.subcarriers.front().rows() != na ||
        link.subcarriers.front().cols() != nc)
      throw std::invalid_argument("save_trace: inhomogeneous links");
  }

  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_trace: cannot open " + path);
  os.write(kMagic, sizeof(kMagic));
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint64_t>(links.size()));
  write_pod(os, static_cast<std::uint64_t>(nsc));
  write_pod(os, static_cast<std::uint64_t>(na));
  write_pod(os, static_cast<std::uint64_t>(nc));
  for (const Link& link : links)
    for (const auto& h : link.subcarriers)
      for (std::size_t i = 0; i < na; ++i)
        for (std::size_t j = 0; j < nc; ++j) {
          write_pod(os, h(i, j).real());
          write_pod(os, h(i, j).imag());
        }
  if (!os) throw std::runtime_error("save_trace: write failed");
}

std::vector<Link> load_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_trace: cannot open " + path);
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("load_trace: not a trace file");
  if (read_pod<std::uint32_t>(is) != kVersion)
    throw std::runtime_error("load_trace: unsupported version");

  const auto count = read_pod<std::uint64_t>(is);
  const auto nsc = read_pod<std::uint64_t>(is);
  const auto na = read_pod<std::uint64_t>(is);
  const auto nc = read_pod<std::uint64_t>(is);
  if (count == 0 || nsc == 0 || na == 0 || nc == 0 || count > 10'000'000)
    throw std::runtime_error("load_trace: implausible header");

  // Size the payload from the header before allocating anything (a wrapped
  // na * nc would size every matrix to zero elements and the reads below
  // would write past them), and require the file to hold exactly that.
  std::uint64_t bytes = 2 * sizeof(double);
  for (const std::uint64_t dim : {count, nsc, na, nc}) {
    if (dim > std::numeric_limits<std::uint64_t>::max() / bytes)
      throw std::runtime_error("load_trace: header dimensions overflow");
    bytes *= dim;
  }
  const std::streampos payload_start = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff left = is.tellg() - payload_start;
  is.seekg(payload_start);
  if (!is || left < 0 || static_cast<std::uint64_t>(left) != bytes)
    throw std::runtime_error("load_trace: header promises " + std::to_string(bytes) +
                             " payload bytes, file holds " + std::to_string(left));

  std::vector<Link> links(count);
  for (auto& link : links) {
    link.subcarriers.assign(nsc, linalg::CMatrix(na, nc));
    for (auto& h : link.subcarriers)
      for (std::size_t i = 0; i < na; ++i)
        for (std::size_t j = 0; j < nc; ++j) {
          const double re = read_pod<double>(is);
          const double im = read_pod<double>(is);
          // Detectors require a finite channel (see detect/detector.h).
          if (!std::isfinite(re) || !std::isfinite(im))
            throw std::runtime_error("load_trace: non-finite channel entry");
          h(i, j) = cf64{re, im};
        }
  }
  return links;
}

TraceChannelModel::TraceChannelModel(std::vector<Link> links) : links_(std::move(links)) {
  if (links_.empty()) throw std::invalid_argument("TraceChannelModel: empty trace");
  na_ = links_.front().subcarriers.front().rows();
  nc_ = links_.front().subcarriers.front().cols();
}

void TraceChannelModel::draw_link_into(Rng& rng, std::size_t nsc, Link& link) const {
  const Link& src = links_[static_cast<std::size_t>(
      rng.uniform_int(static_cast<int>(links_.size())))];
  if (nsc > src.num_subcarriers())
    throw std::invalid_argument("TraceChannelModel: trace has too few subcarriers");
  link.subcarriers.assign(src.subcarriers.begin(),
                          src.subcarriers.begin() + static_cast<std::ptrdiff_t>(nsc));
}

std::vector<Link> record_trace(const ChannelModel& model, std::size_t count,
                               std::size_t nsc, Rng& rng) {
  std::vector<Link> links;
  links.reserve(count);
  for (std::size_t i = 0; i < count; ++i) links.push_back(model.draw_link(rng, nsc));
  return links;
}

}  // namespace geosphere::channel
