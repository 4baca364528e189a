#include "serve/spec.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "channel/spec.h"
#include "coding/spec.h"
#include "detect/spec.h"

namespace geosphere::serve {

namespace {

/// Shortest plain-decimal spelling that round-trips exactly (the
/// channel-spec canonicalization rule): "0.50" and "0.5" share one
/// canonical text, and the output stays inside the parser's grammar.
std::string fmt_real(double value) {
  char buf[400];
  for (int precision = 1; precision <= 345; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

[[noreturn]] void fail(const std::string& cell_text, const std::string& why) {
  throw std::invalid_argument("ServeSpec: cannot parse cell \"" + cell_text + "\": " +
                              why + " (valid keys: " + cell_spec_keys() + ")");
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t pos = text.find(sep, start);
    out.push_back(text.substr(start, pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return out;
}

std::size_t parse_size(const std::string& cell, const std::string& key,
                       const std::string& value, std::size_t min, std::size_t max) {
  const bool all_digits =
      !value.empty() && value.find_first_not_of("0123456789") == std::string::npos;
  errno = 0;
  const unsigned long long v = all_digits ? std::strtoull(value.c_str(), nullptr, 10) : 0;
  if (!all_digits || errno == ERANGE || v < min || v > max)
    fail(cell, key + " must be an integer in [" + std::to_string(min) + ", " +
                   std::to_string(max) + "], got \"" + value + "\"");
  return static_cast<std::size_t>(v);
}

double parse_real(const std::string& cell, const std::string& key,
                  const std::string& value) {
  // Strict plain-decimal grammar (digits, one optional dot, optional
  // leading '-'): "2e1" or "20dB" must not silently configure a different
  // cell.
  const bool plain = !value.empty() &&
                     value.find_first_not_of("0123456789.-") == std::string::npos;
  std::size_t pos = 0;
  double v = 0.0;
  if (plain) {
    try {
      v = std::stod(value, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
  }
  if (!plain || pos != value.size())
    fail(cell, key + " must be a decimal number, got \"" + value + "\"");
  return v;
}

}  // namespace

const std::string& cell_spec_keys() {
  static const std::string keys =
      "users=N antennas=N load=P channel=SPEC detector=SPEC code=RATE snr=DB "
      "spread=DB window=DB qams=Q|Q|... payload=BYTES";
  return keys;
}

CellSpec CellSpec::parse(const std::string& text) { return parse(text, CellSpec{}); }

CellSpec CellSpec::parse(const std::string& text, const CellSpec& defaults) {
  CellSpec spec = defaults;
  if (text.empty()) fail(text, "empty cell");
  std::set<std::string> seen;
  for (const std::string& pair : split(text, ',')) {
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0)
      fail(text, "expected key=value, got \"" + pair + "\"");
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (!seen.insert(key).second) fail(text, "duplicate key \"" + key + "\"");

    if (key == "users") {
      spec.users = parse_size(text, key, value, 1, 1000000);
    } else if (key == "antennas") {
      spec.antennas = parse_size(text, key, value, 1, 64);
    } else if (key == "load") {
      spec.load = parse_real(text, key, value);
      if (!(spec.load > 0.0 && spec.load <= 1.0))
        fail(text, "load must be in (0, 1], got \"" + value + "\"");
    } else if (key == "channel") {
      // Delegate validation; the registry's own valid-forms message rides
      // along so a typo'd channel is diagnosed in one error.
      channel::ChannelSpec parsed = [&] {
        try {
          return channel::ChannelSpec::parse(value);
        } catch (const std::invalid_argument& e) {
          fail(text, e.what());
        }
      }();
      if (parsed.fixed_dims())
        fail(text, "channel \"" + value +
                       "\" fixes its own dimensions (the scheduler varies the "
                       "per-TTI stream count; record-and-replay is not servable)");
      spec.channel = parsed.text();
    } else if (key == "detector") {
      try {
        spec.detector = DetectorSpec::parse(value).text();
      } catch (const std::invalid_argument& e) {
        fail(text, e.what());
      }
    } else if (key == "code") {
      try {
        spec.code = coding::CodeSpec::parse(value).text();
      } catch (const std::invalid_argument& e) {
        fail(text, e.what());
      }
    } else if (key == "snr") {
      spec.snr_db = parse_real(text, key, value);
    } else if (key == "spread") {
      spec.snr_spread_db = parse_real(text, key, value);
      if (spec.snr_spread_db < 0.0) fail(text, "spread must be >= 0");
    } else if (key == "window") {
      spec.window_db = parse_real(text, key, value);
      if (spec.window_db <= 0.0) fail(text, "window must be > 0");
    } else if (key == "qams") {
      spec.qams.clear();
      for (const std::string& q : split(value, '|')) {
        const std::size_t order = parse_size(text, "qams entry", q, 4, 256);
        if (order != 4 && order != 16 && order != 64 && order != 256)
          fail(text, "qams entries must be 4, 16, 64 or 256, got \"" + q + "\"");
        // A repeat can never win the rate choice (a tie goes to the first
        // entry), yet it would cost a probe frame.
        if (std::find(spec.qams.begin(), spec.qams.end(), order) != spec.qams.end())
          fail(text, "duplicate qams entry \"" + std::to_string(order) + "\"");
        spec.qams.push_back(static_cast<unsigned>(order));
      }
      if (spec.qams.empty()) fail(text, "qams must name at least one QAM order");
    } else if (key == "payload") {
      spec.payload_bytes = parse_size(text, key, value, 1, 100000);
    } else {
      fail(text, "unknown key \"" + key + "\"");
    }
  }
  return spec;
}

std::string CellSpec::text() const {
  std::string qams_text;
  for (const unsigned q : qams) {
    if (!qams_text.empty()) qams_text += '|';
    qams_text += std::to_string(q);
  }
  return "users=" + std::to_string(users) + ",antennas=" + std::to_string(antennas) +
         ",load=" + fmt_real(load) + ",channel=" + channel + ",detector=" + detector +
         ",code=" + code + ",snr=" + fmt_real(snr_db) + ",spread=" +
         fmt_real(snr_spread_db) + ",window=" + fmt_real(window_db) +
         ",qams=" + qams_text + ",payload=" + std::to_string(payload_bytes);
}

ServeSpec ServeSpec::parse(const std::string& text) {
  return parse(text, CellSpec{});
}

ServeSpec ServeSpec::parse(const std::string& text, const CellSpec& defaults) {
  ServeSpec spec;
  if (text.empty())
    throw std::invalid_argument(
        "ServeSpec: empty spec; expected ';'-separated cells of key=value pairs "
        "(valid keys: " + cell_spec_keys() + ")");
  for (const std::string& cell : split(text, ';'))
    spec.cells.push_back(CellSpec::parse(cell, defaults));
  return spec;
}

std::string ServeSpec::text() const {
  std::string out;
  for (const CellSpec& cell : cells) {
    if (!out.empty()) out += ';';
    out += cell.text();
  }
  return out;
}

}  // namespace geosphere::serve
