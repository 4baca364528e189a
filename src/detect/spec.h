// DetectorSpec: the one way everything in the repo names a detector.
//
// A spec is a parsed registry name plus an optional integer parameter and
// a decision mode (hard symbol indices vs max-log LLRs). It replaces the
// old split between ad-hoc DetectorFactory closures and string parsing:
// the CLI, sim::SweepSpec, link::FrameBatchRunner and sim::Engine all take
// a DetectorSpec (or the string it parses from) and create per-thread
// Detector instances through DetectorSpec::create().
//
// Grammar: "name" or "name:PARAM" (decimal integer). Examples:
//   "geosphere"               hard ML detection
//   "soft-geosphere-sts"      max-log LLR output (decision mode: soft)
//   "soft-geosphere-sts:50"   same, with the LLR clamp raised to 50
//
// The repeated-tree-search soft detector, which gives soft-geosphere-sts's
// LLRs bit for bit, is not registered: it is that detector's test reference
// (tests/reference/).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "detect/detector.h"

namespace geosphere {

/// One registry entry: everything the CLI needs to document a detector and
/// everything DetectorSpec needs to validate and create one.
struct DetectorInfo {
  std::string name;               ///< Registry name, e.g. "geosphere".
  std::string summary;            ///< One-line description for --list-detectors.
  DecisionMode decision = DecisionMode::kHard;  ///< Mode the detector runs in.
  bool soft_capable = false;      ///< Can serve DecisionMode::kSoft.
  bool takes_param = false;       ///< Accepts an optional ":PARAM" suffix.
  std::string param_name;         ///< e.g. "CLAMP"; for messages and listings.
  unsigned min_param = 0;         ///< Inclusive bounds on PARAM.
  unsigned max_param = 0;
  unsigned default_param = 0;     ///< Used when PARAM is omitted.
  /// Creates one detector instance (one per thread; Detector instances are
  /// not thread-safe). `param` is the validated PARAM or default_param.
  std::function<std::unique_ptr<Detector>(const Constellation&, unsigned param)> make;
};

/// The fixed detector registry, in a stable display order.
const std::vector<DetectorInfo>& detector_registry();

/// The registry names, in registry order. Each parses as it is: a detector
/// that takes a parameter then runs with its default.
const std::vector<std::string>& detector_names();

class DetectorSpec {
 public:
  /// Parses "name" or "name:PARAM". Throws std::invalid_argument with a
  /// message naming the valid forms on any malformed input: unknown name,
  /// forbidden parameter, non-numeric or trailing-garbage PARAM, or PARAM
  /// outside the registry entry's bounds.
  static DetectorSpec parse(const std::string& text);

  /// The registry name, e.g. "soft-geosphere-sts".
  const std::string& base() const { return info_->name; }

  /// The canonical text form, e.g. "soft-geosphere-sts:30" or "geosphere".
  /// Identifies the detector *instance* configuration (decision mode
  /// excluded: the same instance serves both modes when soft_capable).
  const std::string& text() const { return text_; }

  unsigned param() const { return param_; }

  /// The decision mode this spec runs in. Defaults to the registry
  /// entry's native mode ("soft-geosphere-sts" parses as kSoft).
  DecisionMode decision() const { return decision_; }

  bool soft_capable() const { return info_->soft_capable; }

  /// Every detector supports kHard; kSoft needs soft_capable().
  bool supports(DecisionMode mode) const {
    return mode == DecisionMode::kHard || info_->soft_capable;
  }

  /// Same detector, different decision mode. Throws std::invalid_argument
  /// if the detector cannot serve `mode`.
  DetectorSpec with_decision(DecisionMode mode) const;

  /// Creates one detector instance (one per thread).
  std::unique_ptr<Detector> create(const Constellation& c) const;

  friend bool operator==(const DetectorSpec& a, const DetectorSpec& b) {
    return a.text_ == b.text_ && a.decision_ == b.decision_;
  }

 private:
  DetectorSpec(const DetectorInfo* info, unsigned param, std::string text)
      : info_(info), param_(param), decision_(info->decision), text_(std::move(text)) {}

  const DetectorInfo* info_;  ///< Points into detector_registry() (static storage).
  unsigned param_;
  DecisionMode decision_;
  std::string text_;
};

}  // namespace geosphere
