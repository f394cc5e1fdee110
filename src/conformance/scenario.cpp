#include "conformance/scenario.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/check.hpp"
#include "conformance/diff.hpp"
#include "conformance/gen.hpp"
#include "conformance/oracle.hpp"
#include "lang/codegen.hpp"
#include "machine/machine.hpp"
#include "machine/shapes.hpp"

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
  // A scenario is race-free, so every lane is judged non-aligned.
  DiffCase c;
  c.program = s.program;
  c.boot_thickness = s.boot_thickness;
  c.lanes = {{Variant::kSingleInstruction, 16, false},
             {Variant::kBalanced, 16, false},
             {Variant::kBalanced, 4096, false}};
  const auto shaped = [&](const LaneSpec& lane) {
    machine::MachineConfig cfg =
        lane_config(lane.variant, lane.balanced_bound, c.policy);
    machine::apply_shape(cfg, opt.shape);
    return cfg;
  };

  for (const LaneSpec& lane : c.lanes) {
    // The fault-free lane, then, with opt.fault_seed, the default fault
    // schedule for that seed recovered by rollback: each must land exactly
    // on the fault-free oracle.
    std::vector<std::uint64_t> fault_seeds{0};
    if (opt.fault_seed != 0) fault_seeds.push_back(opt.fault_seed);
    for (const std::uint64_t fault_seed : fault_seeds) {
      machine::Machine m(shaped(lane));
      if (auto d = compare(want, run_lane(m, c, opt.max_steps, fault_seed),
                           /*aligned=*/false, c.uses_local)) {
        return fail(lane.name() + (fault_seed != 0 ? "+faults" : ""), *d);
      }
    }
  }

  // Stage 3: placement-aware LPT. The hook may move spawns between groups
  // (on heterogeneous shapes it should), but placement must never be
  // observable in memory or PRINT output.
  machine::Machine m(shaped(c.lanes.front()));
  if (auto d = compare(want,
                       run_lane(m, c, opt.max_steps, /*fault_seed=*/0,
                                /*lpt_placement=*/true),
                       /*aligned=*/false, c.uses_local)) {
    return fail("lpt-placement", *d);
  }

  return v;
}

}  // namespace tcfpn::conformance
