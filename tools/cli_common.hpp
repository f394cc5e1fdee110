// Shared command-line plumbing for the tcfrun, tcfasm, tcfprof and tcfdbg
// drivers.
#pragma once

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "common/log.hpp"
#include "debug/postmortem.hpp"
#include "debug/recorder.hpp"
#include "machine/machine.hpp"
#include "machine/shapes.hpp"
#include "machine/telemetry.hpp"
#include "obs/bus.hpp"
#include "obs/stream_observer.hpp"

namespace tcfpn::cli {

// Exporter paths accept "-" for stdout. Any exporter that cannot write its
// destination makes the tool exit 2 (usage/IO contract), distinct from exit
// 1 (the simulated program faulted or did not complete).

struct Options {
  std::string input;
  machine::MachineConfig cfg;
  Word boot_thickness = 1;
  bool trace = false;
  bool listing = false;
  bool stats = true;
  std::string metrics_json;  ///< write the metrics document here (empty=off)
  std::string trace_json;    ///< write the Chrome trace here (empty=off)
  std::string profile_json;  ///< write the attribution profile here (empty=off)
  std::string post_mortem;   ///< write a fault post-mortem here (empty=off)
  std::uint64_t max_steps = 10'000'000;  ///< step watchdog budget
  /// True when --max-steps was given explicitly: hitting the limit is then
  /// a diagnosed non-termination (exit 3 + watchdog post-mortem) instead of
  /// the generic exit-1 "did not complete".
  bool max_steps_set = false;
  std::string inject_faults;  ///< --inject-faults spec (empty = off)
  std::string recover = "rollback";  ///< rollback | degrade | off
  std::string stream;  ///< tcfpn-stream-v1 destination: file, "-", unix:PATH
  std::uint64_t stream_every = 64;  ///< stream cadence in machine steps
};

/// Prints the shared usage text; the fault-injection flags only when the
/// tool reads them (`faults`).
inline void usage(const char* tool, const char* what, bool faults) {
  std::printf(
      "usage: %s <file> [options]\n"
      "  runs a %s on the extended PRAM-NUMA machine simulator\n\n"
      "options:\n"
      "  --variant=NAME    single-instruction (default), balanced,\n"
      "                    multi-instruction, single-operation,\n"
      "                    config-single-operation, fixed-thickness\n"
      "  --groups=P        processor groups (default 4)\n"
      "  --slots=T         TCF buffer slots / threads per group (default 16)\n"
      "  --shape=S         heterogeneous machine shape (DESIGN.md §12):\n"
      "                    uniform (default), fat-thin, gpu, or an explicit\n"
      "                    COUNT*slots=N,clock=N/D,fill=N,dist=a:b:... list\n"
      "                    joined by '+'; sets --groups for explicit lists\n"
      "  --thickness=T     boot thickness of the root flow (default 1)\n"
      "  --bound=B         balanced-variant operation bound (default 16)\n"
      "  --topology=NAME   mesh2d (default), ring, hypercube, crossbar\n"
      "  --fu=N            functional units per processor (default 1)\n"
      "  --trace           print the ASCII execution schedule\n"
      "  --listing         print the compiled/assembled instruction listing\n"
      "  --no-stats        suppress the statistics block\n"
      "  --metrics-json=F  write the metrics registry snapshot + run\n"
      "                    metadata to F as JSON (F='-' for stdout)\n"
      "  --trace-json=F    write a Chrome trace-event / Perfetto JSON trace\n"
      "                    to F (implies schedule recording and host-phase\n"
      "                    profiling; F='-' for stdout)\n"
      "  --profile=F       enable the cost-model attribution profiler and\n"
      "                    write the tcfpn-profile-v1 JSON document to F\n"
      "                    (F='-' for stdout); see tcfprof for reports\n"
      "  --post-mortem=F   on a fault, write a flight-record post-mortem\n"
      "                    JSON document to F (F='-' for stdout)\n"
      "  --sample-every=N  record a stats sample every N machine steps into\n"
      "                    the metrics document (default off)\n"
      "  --max-steps=N     watchdog: stop after N machine steps (default\n"
      "                    10000000); an explicit limit makes a timed-out\n"
      "                    run exit 3 with a watchdog post-mortem\n",
      tool, what);
  if (faults) {
    std::printf(
        "  --inject-faults=S deterministic fault injection (DESIGN.md §9);\n"
        "                    S = comma list of seed=U, rates drop/delay/stall/\n"
        "                    memfail/flip/kill=P, knobs retries/backoff/delayc/\n"
        "                    stallc/watchdog/scrubc=N, scripted\n"
        "                    at=STEP:KIND[:ARG] entries\n"
        "  --recover=MODE    recovery for injected faults: rollback (default,\n"
        "                    checkpoint restore + replay), degrade (retire\n"
        "                    dead groups, continue at P-1), off\n");
  }
  std::printf(
      "  --stream=DEST     stream live telemetry (tcfpn-stream-v1 NDJSON) to\n"
      "                    DEST: a file, '-' for stdout, or unix:PATH to\n"
      "                    connect to a listening socket (tcfmon --listen).\n"
      "                    Never blocks the engine; overflow drops records\n"
      "                    and reports them on the stream's run_end line\n"
      "  --stream-every=N  stream cadence in machine steps (default 64)\n"
      "  --log-level=LVL   stderr log threshold: debug, info (default),\n"
      "                    warn, error; the stream sees every line\n");
}

inline bool parse_flag(const std::string& arg, const char* name,
                       std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// Parses `v` as an unsigned decimal into *out ∈ [min, max]. Prints a
/// diagnostic naming `flag` and returns false on junk, trailing characters,
/// overflow, or range violation — no exception ever escapes to main().
inline bool parse_uint(const std::string& v, const char* flag,
                       std::uint64_t min, std::uint64_t max,
                       std::uint64_t* out) {
  if (v.empty()) {
    std::fprintf(stderr, "--%s needs a number\n", flag);
    return false;
  }
  std::uint64_t value = 0;
  for (char c : v) {
    if (c < '0' || c > '9') {
      std::fprintf(stderr, "--%s: '%s' is not a non-negative integer\n", flag,
                   v.c_str());
      return false;
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      std::fprintf(stderr, "--%s: '%s' is out of range\n", flag, v.c_str());
      return false;
    }
    value = value * 10 + digit;
  }
  if (value < min || value > max) {
    std::fprintf(stderr, "--%s must be in [%llu, %llu], got %s\n", flag,
                 static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), v.c_str());
    return false;
  }
  *out = value;
  return true;
}

/// parse_uint into a narrower integer type.
template <typename T>
inline bool parse_uint_as(const std::string& v, const char* flag,
                          std::uint64_t min, std::uint64_t max, T* out) {
  std::uint64_t wide = 0;
  if (!parse_uint(v, flag, min, max, &wide)) return false;
  *out = static_cast<T>(wide);
  return true;
}

/// Parses argv; returns false (after printing a diagnostic or usage) on
/// bad input. Only a tool that runs injected faults (`faults`, tcfrun)
/// accepts --inject-faults and --recover; the others reject them rather
/// than run fault-free as if they had been honoured.
inline bool parse_args(int argc, char** argv, const char* tool,
                       const char* what, Options* opt, bool faults = false) {
  if (argc < 2) {
    usage(tool, what, faults);
    return false;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    const std::string flag = arg.substr(0, arg.find('='));
    if (!faults && (flag == "--inject-faults" || flag == "--recover")) {
      std::fprintf(stderr, "%s: %s is not supported; fault injection runs "
                   "under tcfrun\n", tool, flag.c_str());
      return false;
    }
    if (arg == "--help" || arg == "-h") {
      usage(tool, what, faults);
      return false;
    } else if (arg == "--trace") {
      opt->trace = true;
      opt->cfg.record_trace = true;
    } else if (arg == "--listing") {
      opt->listing = true;
    } else if (arg == "--no-stats") {
      opt->stats = false;
    } else if (parse_flag(arg, "variant", &v)) {
      using machine::Variant;
      if (v == "single-instruction") opt->cfg.variant = Variant::kSingleInstruction;
      else if (v == "balanced") opt->cfg.variant = Variant::kBalanced;
      else if (v == "multi-instruction") opt->cfg.variant = Variant::kMultiInstruction;
      else if (v == "single-operation") opt->cfg.variant = Variant::kSingleOperation;
      else if (v == "config-single-operation") opt->cfg.variant = Variant::kConfigSingleOperation;
      else if (v == "fixed-thickness") opt->cfg.variant = Variant::kFixedThickness;
      else {
        std::fprintf(stderr, "unknown variant '%s'\n", v.c_str());
        return false;
      }
    } else if (parse_flag(arg, "topology", &v)) {
      using net::TopologyKind;
      if (v == "mesh2d") opt->cfg.topology = TopologyKind::kMesh2D;
      else if (v == "ring") opt->cfg.topology = TopologyKind::kRing;
      else if (v == "hypercube") opt->cfg.topology = TopologyKind::kHypercube;
      else if (v == "crossbar") opt->cfg.topology = TopologyKind::kCrossbar;
      else {
        std::fprintf(stderr, "unknown topology '%s'\n", v.c_str());
        return false;
      }
    } else if (parse_flag(arg, "groups", &v)) {
      if (!parse_uint_as(v, "groups", 1, 4096, &opt->cfg.groups)) return false;
    } else if (parse_flag(arg, "slots", &v)) {
      if (!parse_uint_as(v, "slots", 1, 1u << 20,
                         &opt->cfg.slots_per_group)) {
        return false;
      }
    } else if (parse_flag(arg, "shape", &v)) {
      try {
        machine::apply_shape(opt->cfg, v);
      } catch (const SimError& e) {
        std::fprintf(stderr, "--shape: %s\n", e.what());
        return false;
      }
    } else if (parse_flag(arg, "thickness", &v)) {
      std::uint64_t t = 0;
      if (!parse_uint(v, "thickness", 1,
                      std::uint64_t{1} << 32, &t)) {
        return false;
      }
      opt->boot_thickness = static_cast<Word>(t);
    } else if (parse_flag(arg, "bound", &v)) {
      if (!parse_uint_as(v, "bound", 1, 1u << 20, &opt->cfg.balanced_bound)) {
        return false;
      }
    } else if (parse_flag(arg, "fu", &v)) {
      if (!parse_uint_as(v, "fu", 1, 1024, &opt->cfg.functional_units)) {
        return false;
      }
    } else if (parse_flag(arg, "sample-every", &v)) {
      if (!parse_uint_as(v, "sample-every", 1,
                         std::numeric_limits<std::uint32_t>::max(),
                         &opt->cfg.sample_every)) {
        return false;
      }
    } else if (parse_flag(arg, "metrics-json", &v)) {
      if (v.empty()) {
        std::fprintf(stderr, "--metrics-json needs a file name\n");
        return false;
      }
      opt->metrics_json = v;
    } else if (parse_flag(arg, "trace-json", &v)) {
      if (v.empty()) {
        std::fprintf(stderr, "--trace-json needs a file name\n");
        return false;
      }
      opt->trace_json = v;
      // A useful trace needs both the simulated schedule and the host-side
      // phase spans; switch both recorders on.
      opt->cfg.record_trace = true;
      opt->cfg.profile_host = true;
    } else if (parse_flag(arg, "profile", &v)) {
      if (v.empty()) {
        std::fprintf(stderr, "--profile needs a file name\n");
        return false;
      }
      opt->profile_json = v;
      opt->cfg.profile = true;
    } else if (parse_flag(arg, "post-mortem", &v)) {
      if (v.empty()) {
        std::fprintf(stderr, "--post-mortem needs a file name\n");
        return false;
      }
      opt->post_mortem = v;
    } else if (parse_flag(arg, "max-steps", &v)) {
      if (!parse_uint(v, "max-steps", 1,
                      std::numeric_limits<std::uint64_t>::max(),
                      &opt->max_steps)) {
        return false;
      }
      opt->max_steps_set = true;
    } else if (parse_flag(arg, "inject-faults", &v)) {
      if (v.empty()) {
        std::fprintf(stderr, "--inject-faults needs a fault spec\n");
        return false;
      }
      opt->inject_faults = v;
    } else if (parse_flag(arg, "stream", &v)) {
      if (v.empty()) {
        std::fprintf(stderr, "--stream needs a destination\n");
        return false;
      }
      opt->stream = v;
    } else if (parse_flag(arg, "stream-every", &v)) {
      if (!parse_uint(v, "stream-every", 1,
                      std::numeric_limits<std::uint32_t>::max(),
                      &opt->stream_every)) {
        return false;
      }
    } else if (parse_flag(arg, "log-level", &v)) {
      obs::LogLevel lv;
      if (!obs::log_level_from_string(v, &lv)) {
        std::fprintf(stderr,
                     "--log-level must be debug, info, warn or error, got "
                     "'%s'\n",
                     v.c_str());
        return false;
      }
      obs::set_log_level(lv);
    } else if (parse_flag(arg, "recover", &v)) {
      if (v != "rollback" && v != "degrade" && v != "off") {
        std::fprintf(stderr,
                     "--recover must be rollback, degrade or off, got '%s'\n",
                     v.c_str());
        return false;
      }
      opt->recover = v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(tool, what, faults);
      return false;
    } else {
      opt->input = arg;
    }
  }
  if (opt->input.empty()) {
    std::fprintf(stderr, "no input file given\n");
    return false;
  }
  if (opt->cfg.variant == machine::Variant::kFixedThickness) {
    opt->cfg.groups = 1;
  }
  // A --shape preset fixes one spec per group; a later --groups (or the
  // fixed-thickness override) can leave the two counts disagreeing, or
  // give a hypercube a group count it cannot join.
  try {
    machine::validate_shape(opt->cfg);
    machine::validate_topology(opt->cfg);
  } catch (const SimError& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return false;
  }
  return true;
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) TCFPN_FAULT("cannot open '", path, "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

inline void print_outcome(const machine::Machine& m,
                          const machine::RunResult& run,
                          const Options& opt) {
  if (!m.debug_output().empty()) {
    std::printf("output:");
    for (Word w : m.debug_output()) {
      std::printf(" %lld", static_cast<long long>(w));
    }
    std::printf("\n");
  }
  if (opt.stats) {
    const auto& st = m.stats();
    std::printf(
        "%s after %llu steps / %llu cycles on %s (P=%u, Tp=%u)\n"
        "  TCF instructions %llu, lane ops %llu, fetches %llu\n"
        "  utilization %.3f, memory-wait %llu, task-switch %llu\n",
        run.completed ? "halted" : "STOPPED (step limit)",
        static_cast<unsigned long long>(run.steps),
        static_cast<unsigned long long>(run.cycles),
        machine::to_string(m.config().variant), m.config().groups,
        m.config().slots_per_group,
        static_cast<unsigned long long>(st.tcf_instructions),
        static_cast<unsigned long long>(st.operations),
        static_cast<unsigned long long>(st.instruction_fetches),
        st.utilization(),
        static_cast<unsigned long long>(st.memory_wait_cycles),
        static_cast<unsigned long long>(st.task_switch_cycles));
  }
  if (opt.trace) {
    std::printf("schedule:\n%s", m.trace().render().c_str());
  }
}

/// Outcome of a run that may have faulted: the fault is captured, not
/// rethrown, so the tool can still export telemetry and a post-mortem from
/// the dying machine before exiting non-zero.
struct RunOutcome {
  machine::RunResult run;
  bool faulted = false;
  std::string fault_message;
};

/// m.run() with SimError capture. On a fault the RunResult carries the
/// stats the machine had accumulated when it died.
inline RunOutcome run_with_fault_capture(machine::Machine& m,
                                         std::uint64_t max_steps = 10'000'000) {
  RunOutcome o;
  try {
    o.run = m.run(max_steps);
  } catch (const SimError& e) {
    o.faulted = true;
    o.fault_message = e.what();
    o.run.completed = false;
    o.run.steps = m.stats().steps;
    o.run.cycles = m.stats().cycles;
  }
  return o;
}

/// Writes `content` to `path`, with "-" meaning stdout. Returns false (with
/// a diagnostic) when the destination cannot be opened — the caller exits 2.
inline bool write_document(const std::string& path, const std::string& content,
                           const char* tool) {
  if (path == "-") {
    std::cout << content;
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    obs::error(tool, "cannot write '" + path + "'");
    return false;
  }
  out << content;
  return true;
}

/// Writes the telemetry documents requested by --metrics-json/--trace-json.
/// A faulted run still exports both documents — the fault message and class
/// land in the run metadata, so CI keeps its telemetry even for red runs.
/// Returns false if a destination cannot be written (exit 2).
inline bool export_telemetry(const machine::Machine& m, const RunOutcome& o,
                             const Options& opt, const char* tool) {
  machine::MetaPairs meta = {{"tool", tool}, {"input", opt.input}};
  if (o.faulted) {
    meta.emplace_back("fault", o.fault_message);
    meta.emplace_back("fault_class", debug::classify_fault(o.fault_message));
  }
  if (!opt.metrics_json.empty() &&
      !write_document(
          opt.metrics_json,
          machine::metrics_json_document(m, o.run, meta), tool)) {
    return false;
  }
  if (!opt.trace_json.empty() &&
      !write_document(opt.trace_json, machine::trace_json_document(m, meta),
                      tool)) {
    return false;
  }
  if (!opt.profile_json.empty() &&
      !write_document(
          opt.profile_json,
          machine::profile_json_document(m, o.run, opt.input, meta), tool)) {
    return false;
  }
  return true;
}

/// Owns a tool's --stream attachment: the Bus plus the cadenced
/// StreamObserver chained onto whatever observer the tool already installed
/// (flight recorder, resilient executor). Usage contract:
///
///   StreamSession stream;
///   // ... attach recorder / construct ResilientExecutor first ...
///   if (!stream.open(opt, tool, m)) return 2;
///   // ... run ...
///   stream.finish(m, outcome);   // before the recorder/executor detaches
///
/// finish() emits the tail window, writes the run_end line carrying the
/// cumulative metrics (byte-identical values to the --metrics-json
/// document), and tears the bus down. A no-op when --stream was not given.
class StreamSession {
 public:
  bool open(const Options& opt, const char* tool, machine::Machine& m) {
    if (opt.stream.empty()) return true;
    obs::Bus::Config cfg;
    cfg.destination = opt.stream;
    cfg.run_meta = {{"tool", tool},
                    {"input", opt.input},
                    {"variant", machine::to_string(opt.cfg.variant)},
                    {"groups", std::to_string(opt.cfg.groups)},
                    {"slots", std::to_string(opt.cfg.slots_per_group)},
                    {"stream_every", std::to_string(opt.stream_every)}};
    std::string err;
    bus_ = obs::Bus::open(cfg, &err);
    if (!bus_) {
      std::fprintf(stderr, "%s: --stream: %s\n", tool, err.c_str());
      return false;
    }
    observer_ = std::make_unique<obs::StreamObserver>(
        *bus_, static_cast<StepId>(opt.stream_every));
    observer_->attach(m);
    return true;
  }

  void finish(const machine::Machine& m, const RunOutcome& o) {
    if (!bus_) return;
    observer_->detach();
    observer_.reset();
    bus_->finish(m.stats().steps, m.stats().cycles,
                 o.run.completed && !o.faulted, o.fault_message,
                 m.metrics_snapshot(), m.stats());
    bus_.reset();
  }

  bool active() const { return bus_ != nullptr; }

 private:
  std::unique_ptr<obs::Bus> bus_;
  std::unique_ptr<obs::StreamObserver> observer_;
};

/// Writes the --post-mortem document from a recorder that captured a fault.
/// Returns false if the destination cannot be written (exit 2).
inline bool export_post_mortem(const machine::Machine& m,
                               const debug::FlightRecorder& rec,
                               const Options& opt, const char* tool) {
  const std::vector<std::pair<std::string, std::string>> meta = {
      {"tool", tool}, {"input", opt.input}};
  return write_document(opt.post_mortem, debug::post_mortem_json(m, rec, meta),
                        tool);
}

}  // namespace tcfpn::cli
