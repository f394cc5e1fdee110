#include "conformance/scenario.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>

#include "baseline/frontends.hpp"
#include "common/check.hpp"
#include "conformance/gen.hpp"
#include "conformance/oracle.hpp"
#include "lang/codegen.hpp"
#include "machine/machine.hpp"
#include "machine/shapes.hpp"
#include "resil/recovery.hpp"
#include "sched/allocation.hpp"

namespace tcfpn::conformance {

namespace {

using machine::Variant;

// ---------------------------------------------------------------------------
// Sequential reference implementations. Each recomputes, in plain C++, the
// PRINT stream its scenario program emits. They share no code with the
// oracle interpreter (let alone the machine), so agreement of all three is
// two independent checks, not one.

std::vector<Word> ref_sort() {
  constexpr int n = 128;
  Word keys[n], out[n];
  for (int i = 0; i < n; ++i) keys[i] = (i * 73 + 41) % 97;
  for (int i = 0; i < n; ++i) {
    Word rank = 0;
    for (int j = 0; j < n; ++j) {
      rank += (keys[j] < keys[i]) || (keys[j] == keys[i] && j < i);
    }
    out[rank] = keys[i];
  }
  Word chk = 0;
  for (int i = 0; i < n; ++i) chk += out[i] * (i + 1);
  return {out[0], out[n - 1], chk};
}

std::vector<Word> ref_bfs() {
  constexpr int n = 64;
  Word level[n], next[n];
  for (int i = 0; i < n; ++i) level[i] = 9999;
  level[0] = 0;
  for (int r = 0; r < 12; ++r) {
    for (int i = 0; i < n; ++i) next[i] = level[i];
    for (int u = 0; u < n; ++u) {
      const int vs[3] = {(2 * u) % n, (2 * u + 1) % n, (u + 7) % n};
      for (int v : vs) next[v] = std::min(next[v], level[u] + 1);
    }
    for (int i = 0; i < n; ++i) level[i] = next[i];
  }
  Word sum = 0;
  for (int i = 0; i < n; ++i) sum += level[i];
  return {sum, level[37], level[n - 1]};
}

std::vector<Word> ref_histogram() {
  constexpr int n = 256;
  Word hist[16] = {};
  for (int i = 0; i < n; ++i) hist[((i * 131 + 89) ^ (i >> 2)) % 16] += 1;
  Word cdf[16], total = 0;
  for (int b = 0; b < 16; ++b) {
    cdf[b] = total;
    total += hist[b];
  }
  return {cdf[0], cdf[4], cdf[8], cdf[12], total};
}

std::vector<Word> ref_spmv() {
  constexpr int n = 96;
  Word x[n], y[n] = {};
  for (int i = 0; i < n; ++i) x[i] = (i % 7) + 1;
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 4; ++k) {
      y[i] += (((i * 5 + k * 13) % 9) + 1) * x[(i * 31 + k * 17) % n];
    }
  }
  Word chk = 0;
  for (int i = 0; i < n; ++i) chk += y[i];
  return {chk, y[0], y[n - 1]};
}

std::vector<Word> ref_compact() {
  constexpr int n = 160;
  Word data[n], out[2 * n] = {};
  Word count = 0;
  for (int i = 0; i < n; ++i) data[i] = (i * 97 + 13) % 200;
  for (int i = 0; i < n; ++i) {
    if (data[i] % 3 == 0) {
      out[count++] = data[i];
    } else {
      out[n + i - count] = data[i];
    }
  }
  Word chk = 0;
  for (int i = 0; i < n; ++i) chk += i < count ? out[i] : 0;
  return {count, chk, out[0]};
}

std::vector<Word> reference_prints(const std::string& name) {
  if (name == "sort") return ref_sort();
  if (name == "bfs") return ref_bfs();
  if (name == "histogram") return ref_histogram();
  if (name == "spmv") return ref_spmv();
  if (name == "compact") return ref_compact();
  throw SimError("no reference implementation for scenario '" + name + "'");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SimError("cannot open scenario source " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------------
// Lane execution. Mirrors the differential harness' runner, but with a
// machine shape applied and the host-thread count / placement hook swept.

struct RunImage {
  bool completed = false;
  bool faulted = false;
  std::string fault;
  std::vector<Word> shared;
  std::vector<Word> debug;
  Cycle cycles = 0;
  StepId steps = 0;
};

RunImage run_lane(const Scenario& s, const machine::MachineConfig& cfg,
                  std::uint64_t max_steps, bool lpt_hook,
                  std::uint64_t fault_seed) {
  RunImage o;
  machine::Machine m(cfg);
  try {
    m.load(s.program);
    if (lpt_hook) sched::install_throughput_lpt_hook(m);
    m.boot(s.boot_thickness);
    if (fault_seed != 0) {
      resil::ResilConfig rc;
      rc.spec = resil::default_spec_for_seed(fault_seed);
      rc.mode = resil::RecoverMode::kRollback;
      rc.max_steps = max_steps;
      resil::ResilientExecutor ex(m, rc);
      const auto r = ex.run();
      o.completed = r.run.completed;
      o.faulted = r.faulted;
      o.fault = r.fault_message;
      o.cycles = r.run.cycles;
      o.steps = r.run.steps;
    } else {
      const auto r = m.run(max_steps);
      o.completed = r.completed;
      o.cycles = r.cycles;
      o.steps = r.steps;
    }
  } catch (const SimError& e) {
    o.faulted = true;
    o.fault = e.what();
  }
  o.shared.resize(kSharedWords);
  for (Addr a = 0; a < kSharedWords; ++a) o.shared[a] = m.shared().peek(a);
  o.debug = m.debug_output();
  return o;
}

/// Bit-identity against the oracle: full shared memory, the PRINT stream,
/// and clean completion.
std::optional<std::string> against_oracle(const OracleResult& want,
                                          const RunImage& got) {
  if (got.faulted) return "unexpected machine fault [" + got.fault + "]";
  if (!got.completed) return std::string("machine did not complete");
  const std::size_t words = std::min(want.shared.size(), got.shared.size());
  for (Addr a = 0; a < words; ++a) {
    if (want.shared[a] != got.shared[a]) {
      std::ostringstream os;
      os << "shared[" << a << "] = " << got.shared[a] << ", oracle has "
         << want.shared[a];
      return os.str();
    }
  }
  if (want.debug != got.debug) {
    std::ostringstream os;
    os << "PRINT mismatch: oracle " << want.debug.size() << " values, machine "
       << got.debug.size();
    for (std::size_t i = 0;
         i < std::min(want.debug.size(), got.debug.size()); ++i) {
      if (want.debug[i] != got.debug[i]) {
        os << "; first diff at [" << i << "]: " << got.debug[i] << " vs "
           << want.debug[i];
        break;
      }
    }
    return os.str();
  }
  return std::nullopt;
}

/// Determinism contract within a lane: host threads (and nothing else)
/// vary, so the runs must agree down to the cycle count.
std::optional<std::string> identical(const RunImage& a, const RunImage& b) {
  if (a.faulted != b.faulted || a.fault != b.fault) {
    return std::string("fault mismatch");
  }
  if (a.completed != b.completed) return std::string("completion mismatch");
  if (a.shared != b.shared) return std::string("shared memory mismatch");
  if (a.debug != b.debug) return std::string("PRINT output mismatch");
  if (a.cycles != b.cycles || a.steps != b.steps) {
    std::ostringstream os;
    os << "cycle/step mismatch: " << a.cycles << "/" << a.steps << " vs "
       << b.cycles << "/" << b.steps;
    return os.str();
  }
  return std::nullopt;
}

machine::MachineConfig lane_config(const ScenarioOptions& opt, Variant v,
                                   std::uint32_t bound) {
  machine::MachineConfig cfg;
  cfg.variant = v;
  cfg.groups = 4;
  cfg.slots_per_group = 32;
  cfg.shared_words = kSharedWords;
  cfg.local_words = kLocalWords;
  cfg.crcw = mem::CrcwPolicy::kArbitrary;
  cfg.balanced_bound = bound;
  machine::apply_shape(cfg, opt.shape);
  return cfg;
}

std::string lane_tag(const Scenario& s, const ScenarioOptions& opt,
                     const std::string& lane) {
  return s.name + " shape=" + opt.shape + " " + lane;
}

}  // namespace

std::vector<Scenario> scenario_suite(const std::string& dir) {
  static const char* const kNames[] = {"sort", "bfs", "histogram", "spmv",
                                       "compact"};
  std::vector<Scenario> suite;
  for (const char* name : kNames) {
    Scenario s;
    s.name = name;
    s.path = dir + "/" + name + ".tcf";
    s.program = lang::compile_source(read_file(s.path)).program;
    s.expected_prints = reference_prints(s.name);
    suite.push_back(std::move(s));
  }
  return suite;
}

ScenarioVerdict run_scenario(const Scenario& s, const ScenarioOptions& opt) {
  ScenarioVerdict v;
  auto fail = [&](const std::string& lane, const std::string& why) {
    v.ok = false;
    v.detail = lane_tag(s, opt, lane) + ": " + why;
    return v;
  };

  // Stage 1: the oracle itself must land on the independent C++ reference
  // before it is trusted as the yardstick for any machine lane.
  OracleOptions oopt;
  oopt.shared_words = kSharedWords;
  oopt.local_words = kLocalWords;
  oopt.max_steps = opt.max_steps;
  const OracleResult want = run_oracle(s.program, s.boot_thickness,
                                       /*boot_flows=*/0, /*esm_boot=*/false,
                                       oopt);
  if (want.faulted) return fail("oracle", "raised [" + want.fault + "]");
  if (!want.completed) return fail("oracle", "did not complete");
  if (want.debug != s.expected_prints) {
    std::ostringstream os;
    os << "oracle PRINT stream disagrees with the reference:";
    for (Word w : want.debug) os << ' ' << w;
    os << " vs expected";
    for (Word w : s.expected_prints) os << ' ' << w;
    return fail("oracle", os.str());
  }

  // Stage 2: machine lanes. Scenario programs set their own thickness via
  // `#n`, so only the variants that honor SETTHICK apply; the balanced
  // lanes exercise lane-sliced execution at two very different bounds.
  struct Lane {
    Variant variant;
    std::uint32_t bound;
  };
  static const Lane kLanes[] = {{Variant::kSingleInstruction, 16},
                                {Variant::kBalanced, 16},
                                {Variant::kBalanced, 4096}};

  for (const Lane& lane : kLanes) {
    const machine::MachineConfig cfg =
        lane_config(opt, lane.variant, lane.bound);
    std::string lname = machine::to_string(lane.variant);
    if (lane.variant == Variant::kBalanced) {
      lname += ':' + std::to_string(lane.bound);
    }
    const std::vector<std::uint32_t> hts =
        machine::is_step_synchronous(lane.variant)
            ? opt.host_threads
            : std::vector<std::uint32_t>{1};
    // The fault-free lane, then, with opt.fault_seed, the default fault
    // schedule for that seed recovered by rollback: each must land exactly
    // on the fault-free oracle and stay host-thread invariant.
    std::vector<std::uint64_t> fault_seeds{0};
    if (opt.fault_seed != 0) fault_seeds.push_back(opt.fault_seed);
    for (const std::uint64_t fault_seed : fault_seeds) {
      std::optional<RunImage> first;
      for (std::uint32_t ht : hts) {
        const machine::MachineConfig run_cfg =
            baseline::with_host_threads(cfg, ht);
        const std::string tag = lname + (fault_seed != 0 ? "+faults" : "") +
                                " ht=" + std::to_string(ht);
        const RunImage got = run_lane(s, run_cfg, opt.max_steps,
                                      /*lpt_hook=*/false, fault_seed);
        if (auto d = against_oracle(want, got)) return fail(tag, *d);
        if (!first) {
          first = got;
        } else if (auto d = identical(*first, got)) {
          return fail(tag + " vs ht=" + std::to_string(hts.front()), *d);
        }
      }
    }
  }

  // Stage 3: placement-aware LPT. The hook may move spawns between groups
  // (on heterogeneous shapes it should), but placement must never be
  // observable in memory or PRINT output.
  if (opt.throughput_lpt_lane) {
    const machine::MachineConfig cfg =
        lane_config(opt, Variant::kSingleInstruction, 16);
    std::optional<RunImage> first;
    for (std::uint32_t ht : opt.host_threads) {
      const machine::MachineConfig run_cfg =
          baseline::with_host_threads(cfg, ht);
      const std::string tag = "lpt-placement ht=" + std::to_string(ht);
      const RunImage got = run_lane(s, run_cfg, opt.max_steps,
                                    /*lpt_hook=*/true, /*fault_seed=*/0);
      if (auto d = against_oracle(want, got)) return fail(tag, *d);
      if (!first) {
        first = got;
      } else if (auto d = identical(*first, got)) {
        return fail(tag + " vs ht=" + std::to_string(opt.host_threads.front()),
                    *d);
      }
    }
  }

  return v;
}

}  // namespace tcfpn::conformance
