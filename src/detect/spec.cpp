#include "detect/spec.h"

#include <cstdlib>
#include <stdexcept>

#include "detect/ml_exhaustive.h"
#include "detect/mmse.h"
#include "detect/mmse_sic.h"
#include "detect/soft_sts.h"
#include "detect/sphere/sphere_decoder.h"
#include "detect/zero_forcing.h"

namespace geosphere {

namespace {

DetectorInfo plain(std::string name, std::string summary,
                   std::function<std::unique_ptr<Detector>(const Constellation&)> make) {
  DetectorInfo info;
  info.name = std::move(name);
  info.summary = std::move(summary);
  info.make = [make = std::move(make)](const Constellation& c, unsigned) {
    return make(c);
  };
  return info;
}

std::vector<DetectorInfo> build_registry() {
  std::vector<DetectorInfo> out;
  out.push_back(plain("zf", "zero-forcing (linear)", [](const Constellation& c) {
    return std::make_unique<ZeroForcingDetector>(c);
  }));
  out.push_back(plain("mmse", "linear MMSE", [](const Constellation& c) {
    return std::make_unique<MmseDetector>(c);
  }));
  out.push_back(plain("mmse-sic", "MMSE with successive interference cancellation",
                      [](const Constellation& c) {
                        return std::make_unique<MmseSicDetector>(c);
                      }));
  out.push_back(plain("geosphere", "Geosphere: zigzag enumeration + geometric pruning",
                      [](const Constellation& c) { return sphere::make_geosphere(c); }));
  out.push_back(plain("geosphere-2dzz", "Geosphere without geometric pruning",
                      [](const Constellation& c) {
                        return sphere::make_geosphere_zigzag_only(c);
                      }));
  out.push_back(plain("geosphere-sqrd",
                      "Geosphere with column-norm-sorted QR preprocessing",
                      [](const Constellation& c) {
                        sphere::SphereConfig cfg;
                        cfg.sorted_qr = true;
                        return sphere::make_geosphere(c, cfg);
                      }));
  out.push_back(plain("eth-sd", "ETH depth-first sphere decoder (Burg et al.)",
                      [](const Constellation& c) { return sphere::make_eth_sd(c); }));
  out.push_back(plain("shabany", "Shabany-style neighbour-expansion sphere decoder",
                      [](const Constellation& c) { return sphere::make_shabany_sd(c); }));
  out.push_back(plain("ml", "exhaustive maximum-likelihood search (oracle)",
                      [](const Constellation& c) {
                        return std::make_unique<MlExhaustiveDetector>(c);
                      }));

  out.push_back(DetectorInfo{
      .name = "soft-geosphere-sts",
      .summary = "Geosphere with max-log LLR output (single tree search)",
      .decision = DecisionMode::kSoft,
      .soft_capable = true,
      .takes_param = true,
      .param_name = "CLAMP",
      .min_param = 1,
      .max_param = 1000,
      .default_param = 30,
      .make = [](const Constellation& c, unsigned clamp) {
        return std::make_unique<SoftGeosphereStsDetector>(c, static_cast<double>(clamp));
      },
  });
  return out;
}

/// "name[:PARAM]" for detectors that take a parameter, "name" otherwise.
std::string canonical_form(const DetectorInfo& info) {
  if (!info.takes_param) return info.name;
  return info.name + "[:" + info.param_name + "]";
}

std::string known_forms() {
  std::string out;
  for (const auto& info : detector_registry()) {
    if (!out.empty()) out += ' ';
    out += canonical_form(info);
  }
  return out;
}

[[noreturn]] void fail(const std::string& text, const std::string& why) {
  throw std::invalid_argument("DetectorSpec: cannot parse \"" + text + "\": " + why +
                              " (valid forms: " + known_forms() + ")");
}

}  // namespace

const std::vector<DetectorInfo>& detector_registry() {
  static const std::vector<DetectorInfo> registry = build_registry();
  return registry;
}

const std::vector<std::string>& detector_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& info : detector_registry()) out.push_back(info.name);
    return out;
  }();
  return names;
}

DetectorSpec DetectorSpec::parse(const std::string& text) {
  const std::size_t colon = text.find(':');
  const std::string base = text.substr(0, colon);
  const bool has_param_text = colon != std::string::npos;
  const std::string param_text = has_param_text ? text.substr(colon + 1) : "";

  const DetectorInfo* info = nullptr;
  for (const auto& entry : detector_registry())
    if (entry.name == base) {
      info = &entry;
      break;
    }
  if (info == nullptr) fail(text, "unknown detector \"" + base + "\"");

  if (!info->takes_param && has_param_text)
    fail(text, "\"" + base + "\" takes no parameter");

  unsigned param = info->default_param;
  if (has_param_text) {
    // Strict parse: all digits, bounded -- "soft-geosphere-sts:30x" and
    // overflowing values must not silently configure a different detector.
    const bool all_digits = !param_text.empty() &&
                            param_text.find_first_not_of("0123456789") ==
                                std::string::npos;
    const unsigned long value = all_digits ? std::strtoul(param_text.c_str(), nullptr, 10)
                                           : 0;
    if (!all_digits || value < info->min_param || value > info->max_param)
      fail(text, info->param_name + " must be an integer in [" +
                     std::to_string(info->min_param) + ", " +
                     std::to_string(info->max_param) + "], got \"" + param_text + "\"");
    param = static_cast<unsigned>(value);
  }

  // Canonical form always spells the resolved parameter out, so an
  // omitted optional parameter ("soft-geosphere-sts") and its explicit
  // default ("soft-geosphere-sts:30") are one configuration -- one text(),
  // one per-worker cache entry.
  const std::string canonical =
      info->takes_param ? info->name + ":" + std::to_string(param) : info->name;
  return DetectorSpec(info, param, canonical);
}

DetectorSpec DetectorSpec::with_decision(DecisionMode mode) const {
  if (!supports(mode))
    throw std::invalid_argument("DetectorSpec: detector \"" + text_ +
                                "\" cannot produce " + std::string(to_string(mode)) +
                                " decisions");
  DetectorSpec out = *this;
  out.decision_ = mode;
  return out;
}

std::unique_ptr<Detector> DetectorSpec::create(const Constellation& c) const {
  return info_->make(c, param_);
}

}  // namespace geosphere
