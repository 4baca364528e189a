// Detectors by name for the tests and the soft parity benches: every
// registry detector, plus the repeated-tree-search reference
// (reference/soft_output.h), which is not in the registry.
//
// "soft-geosphere" and "soft-geosphere:CLAMP" name the reference, with the
// CLAMP grammar, bounds and default of soft-geosphere-sts; every other name
// is a DetectorSpec. A test that covers "every detector" iterates
// test_detector_names() and builds each through TestDetectorSpec, so the
// reference keeps the coverage it had as a registry detector.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "constellation/constellation.h"
#include "detect/detector.h"
#include "detect/spec.h"

namespace geosphere::testing {

/// The reference's name.
inline constexpr const char* kReferenceName = "soft-geosphere";

class TestDetectorSpec {
 public:
  /// The reference for its two forms, DetectorSpec::parse(text) otherwise.
  /// Throws std::invalid_argument as DetectorSpec::parse does.
  static TestDetectorSpec parse(const std::string& text);

  /// The registry name, or "soft-geosphere".
  const std::string& base() const { return base_; }
  /// The canonical text: DetectorSpec::text(), or "soft-geosphere:CLAMP".
  const std::string& text() const { return text_; }
  unsigned param() const { return param_; }
  /// The native decision mode; the reference runs soft.
  DecisionMode decision() const { return decision_; }

  /// One detector instance (one per thread).
  std::unique_ptr<Detector> create(const Constellation& c) const;

 private:
  TestDetectorSpec(std::optional<DetectorSpec> spec, std::string base, std::string text,
                   unsigned param, DecisionMode decision)
      : spec_(std::move(spec)), base_(std::move(base)), text_(std::move(text)),
        param_(param), decision_(decision) {}

  std::optional<DetectorSpec> spec_;  ///< Empty for the reference.
  std::string base_;
  std::string text_;
  unsigned param_;
  DecisionMode decision_;
};

/// detector_names(), then "soft-geosphere".
const std::vector<std::string>& test_detector_names();

}  // namespace geosphere::testing
