// geosphere_cli: command-line front end to the library's experiment
// drivers, for downstream users who want numbers without writing C++.
// Every experiment runs on the thread-pooled deterministic engine: results
// are bit-identical for any --threads value.
//
//   geosphere_cli list-detectors
//   geosphere_cli list-channels
//   geosphere_cli list-rates
//   geosphere_cli conditioning [--links N] [--subcarriers N]
//   geosphere_cli throughput --clients N --antennas N --snr DB
//                 [--detector zf|geosphere|soft-geosphere-sts|...]
//                 [--channel indoor|rayleigh|kronecker:RHO|trace:FILE|...]
//                 [--code none|1/2|2/3|3/4] [--viterbi double|quantized]
//   geosphere_cli complexity --clients N --antennas N --qam M --snr DB
//                 [--channel NAME]
//   geosphere_cli sweep --clients N --antennas N
//                 [--detectors zf,geosphere,soft-geosphere-sts] [--snrs 15,20,25]
//                 [--qams 4,16,64] [--decision auto|hard|soft]
//                 [--channel NAME] [--code 1/2,3/4,...] [--viterbi double|quantized]
//   geosphere_cli serve --spec "users=32,load=0.6;users=8,detector=mmse"
//                 [--ttis N] [--json PATH] [--code RATE]
//   geosphere_cli trace-record --out FILE --links N --clients N --antennas N
//                 [--channel NAME]
//   geosphere_cli trace-info FILE
//
// Detector names are DetectorSpec registry forms (`list-detectors` prints
// them all); channel names are ChannelSpec registry forms (`list-channels`
// prints them all) -- a channel recorded with trace-record replays through
// any command via --channel trace:FILE. serve specs are ServeSpec forms
// (';'-separated cells of key=value pairs). --viterbi picks the soft
// decoder only: hard decisions decode to the same bits under both values.
// Common flags: --threads N (default: all cores), --frames N, --seed N.
// Flags accept both "--flag value" and "--flag=value".
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "channel/spec.h"
#include "channel/trace.h"
#include "coding/spec.h"
#include "detect/spec.h"
#include "serve/server.h"
#include "serve/spec.h"
#include "sim/complexity_experiment.h"
#include "sim/conditioning_experiment.h"
#include "sim/engine.h"
#include "sim/table.h"
#include "sim/throughput_experiment.h"

namespace {

using namespace geosphere;

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  // All numeric parsing is strict (the full token must parse): stol/stod
  // stopping at the first bad character would silently run a different
  // experiment than the user asked for.
  long get_int(const std::string& key, long fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    return parse_long("--" + key, it->second);
  }
  std::size_t get_size(const std::string& key, std::size_t fallback) const {
    const long v = get_int(key, static_cast<long>(fallback));
    if (v < 0) throw std::runtime_error("--" + key + " must be non-negative");
    return static_cast<std::size_t>(v);
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    return parse_double("--" + key, it->second);
  }

  static long parse_long(const std::string& what, const std::string& text) {
    std::size_t pos = 0;
    long v = 0;
    try {
      v = std::stol(text, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != text.size())
      throw std::runtime_error(what + " expects an integer, got \"" + text + "\"");
    return v;
  }
  static double parse_double(const std::string& what, const std::string& text) {
    std::size_t pos = 0;
    double v = 0.0;
    try {
      v = std::stod(text, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != text.size())
      throw std::runtime_error(what + " expects a number, got \"" + text + "\"");
    return v;
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }

  /// The shared engine, sized by --threads (0 = hardware concurrency).
  sim::Engine& engine() const {
    if (!engine_) {
      const long threads = get_int("threads", 0);
      if (threads < 0 || threads > 1024)
        throw std::runtime_error("--threads must be in [0, 1024] (0 = all cores)");
      engine_ = std::make_unique<sim::Engine>(static_cast<std::size_t>(threads));
    }
    return *engine_;
  }
  std::uint64_t seed() const {
    return static_cast<std::uint64_t>(get_size("seed", 1));
  }

 private:
  mutable std::unique_ptr<sim::Engine> engine_;
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::size_t eq = token.find('=');
      if (eq != std::string::npos) {  // --flag=value form
        args.flags[token.substr(2, eq - 2)] = token.substr(eq + 1);
      } else {
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + token);
        args.flags[token.substr(2)] = argv[++i];
      }
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(start, comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// The --channel flag, parsed through the ChannelSpec registry; malformed
/// names fail with a message listing every valid form.
channel::ChannelSpec channel_spec(const Args& args, const std::string& fallback) {
  return channel::ChannelSpec::parse(args.get("channel", fallback));
}

/// The --viterbi flag: which decoder soft-decision coded runs use. Hard
/// decisions always decode on the int16 kernel, bit-identical to double.
phy::ViterbiImpl viterbi_impl(const Args& args) {
  const std::string v = args.get("viterbi", "double");
  if (v == "double") return phy::ViterbiImpl::kDouble;
  if (v == "quantized") return phy::ViterbiImpl::kQuantized;
  throw std::runtime_error("--viterbi must be double or quantized, got \"" + v + "\"");
}

int cmd_conditioning(const Args& args) {
  sim::ConditioningConfig config;
  config.links = args.get_size("links", 300);
  config.subcarriers = args.get_size("subcarriers", 48);
  config.seed = args.seed();
  const auto series = sim::run_conditioning(args.engine(), config);

  sim::TablePrinter table({"config", "kappa2 median (dB)", "P(kappa2>10dB)",
                           "Lambda median (dB)", "P(Lambda>5dB)"});
  for (const auto& s : series)
    table.add_row({std::to_string(s.clients) + "x" + std::to_string(s.antennas),
                   sim::TablePrinter::fmt(s.kappa_sq_db.percentile(0.5), 1),
                   sim::TablePrinter::fmt(s.kappa_sq_db.fraction_above(10.0)),
                   sim::TablePrinter::fmt(s.lambda_db.percentile(0.5), 1),
                   sim::TablePrinter::fmt(s.lambda_db.fraction_above(5.0))});
  table.print(std::cout);
  return 0;
}

int cmd_throughput(const Args& args) {
  const auto chspec = channel_spec(args, "indoor");
  const channel::ChannelModel& model = args.engine().channel(
      chspec, args.get_size("clients", 4), args.get_size("antennas", 4));

  sim::ThroughputConfig config;
  config.frames = args.get_size("frames", 60);
  config.seed = args.seed();
  // Fails here with the registry's valid forms if the rate is malformed.
  config.code = coding::CodeSpec::parse(args.get("code", "1/2")).text();
  config.viterbi = viterbi_impl(args);
  const double snr = args.get_double("snr", 20.0);
  const std::string name = args.get("detector", "geosphere");
  const DetectorSpec spec = DetectorSpec::parse(name);

  const auto point =
      sim::measure_throughput(args.engine(), model, spec.text(), spec, snr, config);
  std::printf(
      "%zu clients x %zu antennas @ %.1f dB, channel=%s, detector=%s (%s), code=%s, "
      "threads=%zu\n",
      model.num_tx(), model.num_rx(), snr, chspec.text().c_str(), spec.text().c_str(),
      to_string(spec.decision()), point.code.c_str(), args.engine().threads());
  std::printf("best QAM: %u\nnet throughput: %.2f Mbps\ngoodput: %.2f Mbps\nFER: %.3f\n",
              point.best_qam, point.throughput_mbps, point.goodput_mbps, point.fer);
  return 0;
}

int cmd_complexity(const Args& args) {
  const auto chspec = channel_spec(args, "rayleigh");
  const channel::ChannelModel& model = args.engine().channel(
      chspec, args.get_size("clients", 4), args.get_size("antennas", 4));

  link::LinkScenario scenario;
  scenario.frame.qam_order = static_cast<unsigned>(args.get_int("qam", 64));
  scenario.frame.payload_bytes = 250;
  scenario.snr_db = args.get_double("snr", 20.0);

  const auto points = sim::measure_complexity(
      args.engine(), model, scenario,
      {{"ETH-SD", DetectorSpec::parse("eth-sd")},
       {"Geosphere-2DZZ", DetectorSpec::parse("geosphere-2dzz")},
       {"Geosphere", DetectorSpec::parse("geosphere")}},
      args.get_size("frames", 40), args.seed());

  sim::TablePrinter table({"detector", "PED/subcarrier", "nodes/subcarrier", "FER"});
  for (const auto& p : points)
    table.add_row({p.detector, sim::TablePrinter::fmt(p.avg_ped_per_subcarrier, 1),
                   sim::TablePrinter::fmt(p.avg_visited_nodes, 1),
                   sim::TablePrinter::fmt(p.fer)});
  table.print(std::cout);
  return 0;
}

int cmd_sweep(const Args& args) {
  sim::SweepSpec spec;
  spec.channel = channel_spec(args, "indoor").text();
  spec.clients = args.get_size("clients", 4);
  spec.antennas = args.get_size("antennas", 4);
  const std::string decision = args.get("decision", "auto");
  if (decision == "hard")
    spec.decision = DecisionMode::kHard;
  else if (decision == "soft")
    spec.decision = DecisionMode::kSoft;
  else if (decision != "auto")
    throw std::runtime_error("--decision must be auto, hard or soft");
  // --decision soft narrows the default detector list to the
  // soft-capable registry entries; hard-only defaults would refuse it.
  spec.detectors = split_list(
      args.get("detectors", decision == "soft" ? "soft-geosphere-sts" : "zf,geosphere"));
  // Validate eagerly so a typo'd detector fails here with the registry's
  // valid forms instead of surfacing mid-sweep.
  for (const auto& d : spec.detectors) DetectorSpec::parse(d);
  for (const auto& s : split_list(args.get("snrs", "15,20,25")))
    spec.snr_grid_db.push_back(Args::parse_double("--snrs", s));
  spec.candidate_qams.clear();
  for (const auto& q : split_list(args.get("qams", "4,16,64"))) {
    const long qam = Args::parse_long("--qams", q);
    if (qam != 4 && qam != 16 && qam != 64 && qam != 256)
      throw std::runtime_error("--qams entries must be 4, 16, 64 or 256, got \"" + q +
                               "\"");
    spec.candidate_qams.push_back(static_cast<unsigned>(qam));
  }
  if (spec.detectors.empty() || spec.snr_grid_db.empty() || spec.candidate_qams.empty())
    throw std::runtime_error("sweep needs non-empty --detectors, --snrs and --qams");
  // --code is a sweep axis like --detectors: a comma-separated list of
  // CodeSpec forms, each validated eagerly against the code registry.
  spec.codes = split_list(args.get("code", "1/2"));
  if (spec.codes.empty()) throw std::runtime_error("--code must name at least one rate");
  for (const auto& c : spec.codes) coding::CodeSpec::parse(c);
  spec.viterbi = viterbi_impl(args);
  spec.frames = args.get_size("frames", 60);
  spec.payload_bytes = args.get_size("payload", 500);
  spec.snr_jitter_db = args.get_double("jitter", 5.0);
  spec.seed = args.seed();

  const auto cells = args.engine().run_sweep(spec);

  // Dimensions come off the resolved model: trace channels fix their own.
  const channel::ChannelModel& model = args.engine().channel(
      channel::ChannelSpec::parse(spec.channel), spec.clients, spec.antennas);
  std::printf(
      "%zu clients x %zu antennas, channel %s, %zu frames/point, seed %llu, threads %zu\n\n",
      model.num_tx(), model.num_rx(), spec.channel.c_str(), spec.frames,
      static_cast<unsigned long long>(spec.seed), args.engine().threads());
  sim::TablePrinter table({"SNR (dB)", "channel", "detector", "code", "decision",
                           "best QAM", "throughput (Mbps)", "goodput (Mbps)", "FER",
                           "BER", "PED/sc"});
  for (const auto& cell : cells)
    table.add_row({sim::TablePrinter::fmt(cell.snr_db, 0), cell.channel, cell.detector,
                   cell.code, to_string(cell.decision), std::to_string(cell.best_qam),
                   sim::TablePrinter::fmt(cell.throughput_mbps),
                   sim::TablePrinter::fmt(cell.stats.goodput_mbps()),
                   sim::TablePrinter::fmt(cell.stats.fer()),
                   sim::TablePrinter::fmt(cell.stats.ber(), 4),
                   sim::TablePrinter::fmt(cell.stats.avg_ped_per_subcarrier(), 1)});
  table.print(std::cout);
  return 0;
}

void write_serve_json(const std::string& path, const serve::ServeResult& r,
                      const std::string& spec_text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot open " + path + " for writing");
  const auto latency = [f](const serve::LatencyRecorder& rec, const char* indent) {
    std::fprintf(f,
                 "%s\"latency_ns\": {\"count\": %llu, \"p50\": %.1f, \"p90\": %.1f, "
                 "\"p99\": %.1f, \"max\": %llu}",
                 indent, static_cast<unsigned long long>(rec.count()),
                 rec.percentile_ns(0.5), rec.percentile_ns(0.9), rec.percentile_ns(0.99),
                 static_cast<unsigned long long>(rec.max_ns()));
  };
  std::fprintf(f, "{\n  \"spec\": \"%s\",\n  \"ttis\": %llu,\n  \"seed\": %llu,\n",
               spec_text.c_str(), static_cast<unsigned long long>(r.ttis),
               static_cast<unsigned long long>(r.seed));
  std::fprintf(f, "  \"threads\": %zu,\n  \"cells\": [\n", r.threads);
  for (std::size_t c = 0; c < r.cells.size(); ++c) {
    const serve::CellCounters& cc = r.cells[c].counters;
    std::fprintf(f, "    {\n      \"spec\": \"%s\",\n", r.cells[c].spec.text().c_str());
    std::fprintf(f,
                 "      \"arrivals\": %llu,\n      \"scheduled_frames\": %llu,\n"
                 "      \"scheduled_users\": %llu,\n      \"user_frames_ok\": %llu,\n"
                 "      \"user_frames_error\": %llu,\n      \"bit_errors\": %llu,\n"
                 "      \"delivered_bits\": %llu,\n      \"backlog_end\": %llu,\n"
                 "      \"detection_calls\": %llu,\n      \"probe_frames\": %llu,\n"
                 "      \"schedule_hash\": \"%016llx\",\n"
                 "      \"fer\": %.6f,\n      \"goodput_mbps\": %.6f,\n",
                 static_cast<unsigned long long>(cc.arrivals),
                 static_cast<unsigned long long>(cc.scheduled_frames),
                 static_cast<unsigned long long>(cc.scheduled_users),
                 static_cast<unsigned long long>(cc.user_frames_ok),
                 static_cast<unsigned long long>(cc.user_frames_error),
                 static_cast<unsigned long long>(cc.bit_errors),
                 static_cast<unsigned long long>(cc.delivered_bits),
                 static_cast<unsigned long long>(cc.backlog_end),
                 static_cast<unsigned long long>(cc.detection_calls),
                 static_cast<unsigned long long>(cc.probe_frames),
                 static_cast<unsigned long long>(cc.schedule_hash), cc.fer(),
                 cc.goodput_mbps());
    latency(r.cells[c].latency, "      ");
    std::fprintf(f, "\n    }%s\n", c + 1 < r.cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  latency(r.latency, "  ");
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

int cmd_serve(const Args& args) {
  const std::string spec_text = args.get("spec", "");
  if (spec_text.empty())
    throw std::runtime_error(
        "serve needs --spec: ';'-separated cells of key=value pairs (valid keys: " +
        serve::cell_spec_keys() + ")");
  // --code supplies the default rate for cells that don't spell their own
  // code= key (explicit per-cell keys still win).
  serve::CellSpec defaults;
  defaults.code = coding::CodeSpec::parse(args.get("code", "1/2")).text();
  const serve::ServeSpec spec = serve::ServeSpec::parse(spec_text, defaults);
  const std::size_t ttis = args.get_size("ttis", 200);
  const long threads = args.get_int("threads", 0);
  if (threads < 0 || threads > 1024)
    throw std::runtime_error("--threads must be in [0, 1024] (0 = all cores)");

  serve::Server server(spec, static_cast<std::size_t>(threads));
  const serve::ServeResult result = server.run(ttis, args.seed());

  // First line carries the host-dependent context (thread count); every
  // line from the table to the "--- latency" separator is deterministic in
  // (spec, ttis, seed) -- CI byte-diffs that span across thread counts.
  std::printf("serving %zu cells for %llu TTIs, seed %llu, threads %zu\n",
              spec.cells.size(), static_cast<unsigned long long>(result.ttis),
              static_cast<unsigned long long>(result.seed), server.threads());
  sim::TablePrinter table({"cell", "users", "detector", "arrivals", "frames", "streams",
                           "probe frames", "FER", "goodput (Mbps)", "backlog",
                           "schedule hash"});
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const serve::CellReport& rep = result.cells[c];
    const serve::CellCounters& cc = rep.counters;
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(cc.schedule_hash));
    table.add_row({std::to_string(c), std::to_string(rep.spec.users), rep.spec.detector,
                   std::to_string(cc.arrivals), std::to_string(cc.scheduled_frames),
                   std::to_string(cc.scheduled_users), std::to_string(cc.probe_frames),
                   sim::TablePrinter::fmt(cc.fer()),
                   sim::TablePrinter::fmt(cc.goodput_mbps()),
                   std::to_string(cc.backlog_end), hash});
  }
  table.print(std::cout);

  std::printf("\n--- latency (host-dependent) ---\n");
  sim::TablePrinter lat({"cell", "frames", "p50 (us)", "p90 (us)", "p99 (us)", "max (us)"});
  const auto lat_row = [&lat](const std::string& name, const serve::LatencyRecorder& r) {
    lat.add_row({name, std::to_string(r.count()),
                 sim::TablePrinter::fmt(r.percentile_ns(0.5) / 1000.0, 1),
                 sim::TablePrinter::fmt(r.percentile_ns(0.9) / 1000.0, 1),
                 sim::TablePrinter::fmt(r.percentile_ns(0.99) / 1000.0, 1),
                 sim::TablePrinter::fmt(static_cast<double>(r.max_ns()) / 1000.0, 1)});
  };
  for (std::size_t c = 0; c < result.cells.size(); ++c)
    lat_row(std::to_string(c), result.cells[c].latency);
  lat_row("all", result.latency);
  lat.print(std::cout);

  const std::string json = args.get("json", "");
  if (!json.empty()) {
    write_serve_json(json, result, spec.text());
    std::printf("\nwrote %s\n", json.c_str());
  }
  return 0;
}

int cmd_trace_record(const Args& args) {
  const auto chspec = channel_spec(args, "indoor");
  const auto model =
      chspec.create(args.get_size("clients", 4), args.get_size("antennas", 4));
  Rng rng(args.seed());
  const auto links =
      channel::record_trace(*model, args.get_size("links", 100),
                            args.get_size("subcarriers", 48), rng);
  const std::string out = args.get("out", "channels.geotrace");
  channel::save_trace(out, links);
  std::printf("recorded %zu links (%zux%zu, %zu subcarriers) from %s -> %s\n",
              links.size(), model->num_tx(), model->num_rx(),
              links.front().num_subcarriers(), chspec.text().c_str(), out.c_str());
  return 0;
}

int cmd_trace_info(const Args& args) {
  if (args.positional.empty()) throw std::runtime_error("trace-info needs a file");
  const auto links = channel::load_trace(args.positional.front());
  const auto& first = links.front().subcarriers.front();
  std::printf("links: %zu\nsubcarriers: %zu\nshape: %zu rx x %zu tx\n", links.size(),
              links.front().num_subcarriers(), first.rows(), first.cols());
  return 0;
}

int cmd_list_channels() {
  sim::TablePrinter table({"name", "form", "dims", "description"});
  for (const auto& info : channel::channel_registry()) {
    const std::string form = channel::channel_canonical_form(info);
    std::string bounds;
    switch (info.param) {
      case channel::ChannelParam::kReal:
        bounds = " (" + info.param_name + " in [" +
                 sim::TablePrinter::fmt(info.min_real, 1) + ", " +
                 sim::TablePrinter::fmt(info.sup_real, 1) + "))";
        break;
      case channel::ChannelParam::kInt:
        bounds = " (" + info.param_name + " in [" + std::to_string(info.min_int) + ", " +
                 std::to_string(info.max_int) + "])";
        break;
      default:
        break;
    }
    table.add_row({info.name, form, info.fixed_dims ? "from file" : "--clients x --antennas",
                   info.summary + bounds});
  }
  table.print(std::cout);
  return 0;
}

int cmd_list_rates() {
  sim::TablePrinter table({"name", "rate", "puncture pattern", "description"});
  for (const auto& info : coding::code_registry())
    table.add_row({info.name, sim::TablePrinter::fmt(info.value, 2), info.pattern,
                   info.summary});
  table.print(std::cout);
  return 0;
}

int cmd_list_detectors() {
  sim::TablePrinter table({"name", "form", "decision", "soft-capable", "description"});
  for (const auto& info : detector_registry()) {
    std::string form = info.name;
    std::string bounds;
    if (info.takes_param) {
      form += "[:" + info.param_name + "]";
      // Parameters resolve to a default; spell it out so users don't have
      // to read spec.cpp to learn what bare "soft-geosphere-sts" means.
      bounds = " (" + info.param_name + " in [" + std::to_string(info.min_param) + ", " +
               std::to_string(info.max_param) + "], default " +
               std::to_string(info.default_param) + ")";
    }
    table.add_row({info.name, form, to_string(info.decision),
                   info.soft_capable ? "yes" : "no", info.summary + bounds});
  }
  table.print(std::cout);
  return 0;
}

void usage() {
  std::string detectors;
  for (const auto& n : detector_names()) {
    if (!detectors.empty()) detectors += ' ';
    detectors += n;
  }
  std::string channels;
  for (const auto& info : channel::channel_registry()) {
    if (!channels.empty()) channels += ' ';
    channels += channel::channel_canonical_form(info);
  }
  std::string rates;
  for (const auto& info : coding::code_registry()) {
    if (!rates.empty()) rates += ' ';
    rates += info.name;
  }
  std::puts(
      ("usage: geosphere_cli <command> [flags]\n"
       "  list-detectors (the detector registry: names, parameters, decision modes)\n"
       "  list-channels  (the channel registry: names, parameters, dimensions)\n"
       "  list-rates     (the code registry: rates, puncture patterns)\n"
       "  conditioning   [--links N] [--subcarriers N]\n"
       "  throughput     --clients N --antennas N --snr DB [--detector NAME]\n"
       "                 [--channel NAME] [--code RATE] [--viterbi double|quantized]\n"
       "  complexity     --clients N --antennas N --qam M --snr DB [--channel NAME]\n"
       "  sweep          --clients N --antennas N [--detectors A,B] [--snrs 15,20,25]\n"
       "                 [--qams 4,16,64] [--decision auto|hard|soft] [--payload BYTES]\n"
       "                 [--jitter DB] [--channel NAME] [--code R1,R2,...]\n"
       "                 [--viterbi double|quantized]\n"
       "  serve          --spec CELLS [--ttis N] [--json PATH] [--code RATE]\n"
       "                 (CELLS: ';'-separated cells of key=value pairs;\n"
       "                  keys: " +
       serve::cell_spec_keys() +
       ")\n"
       "  trace-record   --out FILE --links N --clients N --antennas N [--channel NAME]\n"
       "  trace-info     FILE\n"
       "common flags: --threads N (default all cores; results identical for any N),\n"
       "              --frames N, --seed N\n"
       "detectors: " +
       detectors +
       " (list-detectors shows optional :PARAM forms and defaults)\n"
       "channels:  " +
       channels + "\nrates:     " + rates +
       "\n--viterbi: the soft-decision decoder (default double); hard decisions\n"
       "           decode to the same bits under both values")
          .c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.command == "list-detectors" || args.command == "--list-detectors")
      return cmd_list_detectors();
    if (args.command == "list-channels" || args.command == "--list-channels")
      return cmd_list_channels();
    if (args.command == "list-rates" || args.command == "--list-rates")
      return cmd_list_rates();
    if (args.command == "conditioning") return cmd_conditioning(args);
    if (args.command == "throughput") return cmd_throughput(args);
    if (args.command == "complexity") return cmd_complexity(args);
    if (args.command == "sweep") return cmd_sweep(args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "trace-record") return cmd_trace_record(args);
    if (args.command == "trace-info") return cmd_trace_info(args);
    usage();
    return args.command.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
