// ChannelSpec: the one way everything in the repo names a channel model.
//
// Mirrors detect/spec.h's DetectorSpec on the channel axis: a spec is a
// parsed registry name plus an optional parameter, and every layer -- the
// CLI's --channel flag, sim::SweepSpec, sim::Engine's channel cache
// (Engine::channel) and link::LinkSimulator's owning constructor -- creates
// ChannelModel instances through ChannelSpec::create(clients, antennas).
// With it a sweep is a fully declarative scenario description: any channel
// x any detector x any decision mode from strings alone.
//
// Grammar: "name" or "name:PARAM". The parameter kind is per-model:
//   "rayleigh"              i.i.d. Rayleigh flat fading
//   "kronecker:0.7"         Kronecker-correlated Rayleigh, rho = 0.7
//   "geometric"             ray/cluster geometric channel
//   "freq-selective:6"      6-tap exponential power-delay profile
//   "indoor"                synthetic indoor testbed ensemble
//   "trace:FILE"            replay a recorded .geotrace ensemble
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "channel/channel_model.h"

namespace geosphere::channel {

class ChannelSpec;

/// Kind of the ":PARAM" suffix a channel model accepts.
enum class ChannelParam {
  kNone,  ///< Plain name only.
  kReal,  ///< Decimal real, e.g. the Kronecker correlation rho.
  kInt,   ///< Decimal integer, e.g. a tap count.
  kPath,  ///< A file path, e.g. a recorded trace.
};

/// One registry entry: everything the CLI needs to document a channel and
/// everything ChannelSpec needs to validate and create one.
struct ChannelInfo {
  std::string name;             ///< Registry name, e.g. "kronecker".
  std::string summary;          ///< One-line description for list-channels.
  ChannelParam param = ChannelParam::kNone;
  bool param_required = false;  ///< ":PARAM" is mandatory (e.g. trace:FILE).
  std::string param_name;       ///< e.g. "RHO"; for messages and listings.
  double min_real = 0.0;        ///< Inclusive lower bound on a kReal PARAM.
  double sup_real = 0.0;        ///< Exclusive upper bound on a kReal PARAM.
  double default_real = 0.0;    ///< Used when an optional kReal PARAM is omitted.
  unsigned min_int = 0;         ///< Inclusive bounds on a kInt PARAM.
  unsigned max_int = 0;
  unsigned default_int = 0;     ///< Used when an optional kInt PARAM is omitted.
  /// The model's dimensions are fixed by the parameter (trace files carry
  /// their own shape); create() ignores the requested clients/antennas.
  bool fixed_dims = false;
  /// Creates one model instance for `clients` single-antenna clients and
  /// `antennas` AP antennas. Instances are immutable and draw_link() is
  /// const, so one instance is safely shared across threads (unlike
  /// Detector instances, which are stateful and per-thread).
  std::function<std::unique_ptr<ChannelModel>(const ChannelSpec&, std::size_t clients,
                                              std::size_t antennas)>
      make;
};

/// The fixed channel registry, in a stable display order.
const std::vector<ChannelInfo>& channel_registry();

/// The entry's canonical spelling for listings and errors: "rayleigh",
/// "kronecker[:RHO]", "trace:FILE". The single source the CLI and the
/// parser's valid-forms message both render from.
std::string channel_canonical_form(const ChannelInfo& info);

/// The plain (unparameterized-form) registry names, in registry order.
/// Parameterized-only channels appear under their canonical form
/// ("trace:FILE") and are excluded here.
const std::vector<std::string>& channel_names();

class ChannelSpec {
 public:
  /// Parses "name" or "name:PARAM". Throws std::invalid_argument with a
  /// message naming the valid forms on any malformed input: unknown name,
  /// missing/forbidden parameter, non-numeric or out-of-range PARAM.
  static ChannelSpec parse(const std::string& text);

  /// The registry name, e.g. "kronecker".
  const std::string& base() const { return info_->name; }

  /// The canonical text form, e.g. "kronecker:0.7" or "rayleigh". An
  /// omitted optional parameter and its explicit default are one canonical
  /// text -- one engine cache entry.
  const std::string& text() const { return text_; }

  double param_real() const { return real_; }
  unsigned param_int() const { return int_; }
  const std::string& param_path() const { return path_; }

  /// True when the model's dimensions come from the parameter (trace
  /// files) and create() ignores the requested clients/antennas.
  bool fixed_dims() const { return info_->fixed_dims; }

  /// Creates the channel for `clients` single-antenna clients and
  /// `antennas` AP antennas (ignored when fixed_dims()). Throws
  /// std::invalid_argument on zero dimensions; trace creation throws
  /// std::runtime_error if the file cannot be loaded.
  std::unique_ptr<ChannelModel> create(std::size_t clients, std::size_t antennas) const;

  friend bool operator==(const ChannelSpec& a, const ChannelSpec& b) {
    return a.text_ == b.text_;
  }

 private:
  explicit ChannelSpec(const ChannelInfo* info) : info_(info) {}

  const ChannelInfo* info_;  ///< Points into channel_registry() (static storage).
  double real_ = 0.0;
  unsigned int_ = 0;
  std::string path_;
  std::string text_;
};

}  // namespace geosphere::channel
