// CellSpec / ServeSpec: the declarative surface of the streaming serving
// layer, mirroring DetectorSpec / ChannelSpec / sim::SweepSpec: a whole
// multi-cell serving scenario is parsed from strings, strictly validated,
// and serializable back to a canonical text form.
//
// Grammar: a ServeSpec is one or more cells separated by ';'. Each cell is
// a comma-separated list of key=value pairs (every key optional, order
// free, duplicates rejected):
//
//   users=N       user population of the cell              (default 16)
//   antennas=N    AP antennas = max spatial streams / TTI  (default 4)
//   load=P        P(user gets a new frame) per TTI, (0,1]  (default 0.5)
//   channel=SPEC  ChannelSpec registry form                (default rayleigh)
//   detector=SPEC DetectorSpec registry form               (default geosphere)
//   code=RATE     CodeSpec form: none, 1/2, 2/3, 3/4       (default 1/2)
//   snr=DB        cell target SNR (scheduler's window center, default 20)
//   spread=DB     user mean SNRs drawn uniform in snr +/- spread (default 5)
//   window=DB     user-selection SNR window around snr     (default 3)
//   qams=Q|Q|...  rate-adaptation candidate QAM orders, no repeats
//                                                          (default 4|16|64)
//   payload=BYTES per-user frame payload                   (default 500)
//
// Example (two cells):
//   "users=32,load=0.6,channel=indoor,detector=geosphere;users=8,load=0.3,
//    channel=rayleigh,detector=mmse,qams=16"
//
// Malformed input throws std::invalid_argument naming the valid keys (and,
// for channel=/detector= values, the registries' valid forms), matching
// the DetectorSpec error style.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace geosphere::serve {

/// One cell of a serving scenario: a user population with a traffic model,
/// over one channel, detected by one detector.
struct CellSpec {
  std::size_t users = 16;
  std::size_t antennas = 4;
  double load = 0.5;
  std::string channel = "rayleigh";    ///< Canonical ChannelSpec text.
  std::string detector = "geosphere";  ///< Canonical DetectorSpec text.
  std::string code = "1/2";            ///< Canonical CodeSpec text.
  double snr_db = 20.0;
  double snr_spread_db = 5.0;
  double window_db = 3.0;
  std::vector<unsigned> qams = {4, 16, 64};
  std::size_t payload_bytes = 500;

  /// Parses one cell ("users=8,load=0.5,..."). Strict: unknown or duplicate
  /// keys, repeated qams entries, malformed numbers, out-of-range values,
  /// invalid channel / detector specs and fixed-dims channels (traces pin
  /// their own client count; the scheduler varies it per TTI) all throw
  /// std::invalid_argument naming the valid keys.
  static CellSpec parse(const std::string& text);

  /// Like parse(text), but unspecified keys resolve to `defaults` instead
  /// of the built-in defaults -- the CLI's --code/--detector flags provide
  /// cell defaults this way without overriding explicit per-cell keys.
  static CellSpec parse(const std::string& text, const CellSpec& defaults);

  /// Canonical text: every key spelled out with its resolved value, fixed
  /// key order -- parse(text()) reproduces the spec, and equivalent
  /// spellings ("load=0.50", detector defaults filled in) share one text.
  std::string text() const;
};

/// A whole serving scenario: the cells served by one Server run.
struct ServeSpec {
  std::vector<CellSpec> cells;

  /// Parses ';'-separated cells. At least one cell is required; empty cell
  /// entries are rejected.
  static ServeSpec parse(const std::string& text);

  /// Defaults-aware variant (see CellSpec::parse overload).
  static ServeSpec parse(const std::string& text, const CellSpec& defaults);

  /// ';'-joined canonical cell texts.
  std::string text() const;
};

/// The one-line key grammar, used by parse errors and the CLI usage text.
const std::string& cell_spec_keys();

}  // namespace geosphere::serve
