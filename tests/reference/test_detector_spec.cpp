#include "reference/test_detector_spec.h"

#include "reference/soft_output.h"

namespace geosphere::testing {

TestDetectorSpec TestDetectorSpec::parse(const std::string& text) {
  const std::string base = text.substr(0, text.find(':'));
  if (base != kReferenceName) {
    DetectorSpec spec = DetectorSpec::parse(text);
    std::string name = spec.base();
    std::string canonical = spec.text();
    const unsigned param = spec.param();
    const DecisionMode decision = spec.decision();
    return TestDetectorSpec(std::move(spec), std::move(name), std::move(canonical), param,
                            decision);
  }
  // The reference shares soft-geosphere-sts's CLAMP parameter, so that
  // entry validates it.
  const DetectorSpec sts = DetectorSpec::parse("soft-geosphere-sts" + text.substr(base.size()));
  return TestDetectorSpec(std::nullopt, base, base + ":" + std::to_string(sts.param()),
                          sts.param(), DecisionMode::kSoft);
}

std::unique_ptr<Detector> TestDetectorSpec::create(const Constellation& c) const {
  if (spec_) return spec_->create(c);
  return std::make_unique<SoftGeosphereDetector>(c, static_cast<double>(param_));
}

const std::vector<std::string>& test_detector_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out = detector_names();
    out.emplace_back(kReferenceName);
    return out;
  }();
  return names;
}

}  // namespace geosphere::testing
