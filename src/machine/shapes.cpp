#include "machine/shapes.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace tcfpn::machine {

namespace {

// Hard bounds on what a shape may ask for: large enough for every preset
// and any interesting fuzzer draw, small enough that a typo'd spec fails
// loudly instead of allocating gigabytes of slot state.
constexpr std::uint32_t kMaxGroupSlots = 4096;
constexpr std::uint32_t kMaxClock = 64;
constexpr std::uint32_t kMaxFill = 256;
constexpr std::uint32_t kMaxDistance = 1u << 20;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::uint32_t parse_u32(const std::string& s, const std::string& what) {
  if (s.empty()) throw SimError("shape: empty " + what + " value");
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      throw SimError("shape: non-numeric " + what + " value '" + s + "'");
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (v > 0xffffffffull) throw SimError("shape: " + what + " overflows");
  }
  return static_cast<std::uint32_t>(v);
}

// One '+'-separated term: `COUNT*key=val[,key=val...]`.
void parse_term(const std::string& term, std::vector<GroupSpec>& out) {
  const auto star = term.find('*');
  if (star == std::string::npos) {
    throw SimError("shape: term '" + term + "' missing COUNT* prefix");
  }
  const std::uint32_t count = parse_u32(term.substr(0, star), "group count");
  if (count == 0) throw SimError("shape: zero group count in '" + term + "'");
  GroupSpec spec;
  for (const std::string& kv : split(term.substr(star + 1), ',')) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos) {
      throw SimError("shape: expected key=value, got '" + kv + "'");
    }
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    if (key == "slots") {
      spec.slots = parse_u32(val, "slots");
    } else if (key == "clock") {
      const auto slash = val.find('/');
      if (slash == std::string::npos) {
        spec.clock_num = parse_u32(val, "clock");
        spec.clock_den = 1;
      } else {
        spec.clock_num = parse_u32(val.substr(0, slash), "clock numerator");
        spec.clock_den = parse_u32(val.substr(slash + 1), "clock denominator");
      }
    } else if (key == "fill") {
      spec.pipeline_fill = parse_u32(val, "fill");
    } else if (key == "dist") {
      spec.numa_row.clear();
      for (const std::string& d : split(val, ':')) {
        spec.numa_row.push_back(parse_u32(d, "distance"));
      }
    } else {
      throw SimError("shape: unknown key '" + key + "' (want slots/clock/fill/dist)");
    }
  }
  out.insert(out.end(), count, spec);
}

void apply_specs(MachineConfig& cfg, std::vector<GroupSpec> specs) {
  cfg.groups = static_cast<std::uint32_t>(specs.size());
  cfg.group_specs = std::move(specs);
  validate_shape(cfg);
}

// The two non-trivial presets of ISSUE 8's acceptance bar. Both are 8-group
// machines so the scenario bench compares shapes at equal P.
void preset_fat_thin(MachineConfig& cfg) {
  std::vector<GroupSpec> specs;
  // Two fat NUMA-style groups: 64 slots, 3x clock, deeper pipeline, and a
  // distance row that keeps the fat pair close while the thin groups sit a
  // full mesh diameter away.
  GroupSpec fat;
  fat.slots = 64;
  fat.clock_num = 3;
  fat.clock_den = 1;
  fat.pipeline_fill = 6;
  fat.numa_row = {1, 1, 4, 4, 4, 4, 4, 4};
  specs.insert(specs.end(), 2, fat);
  // Six thin PRAM-mode groups: 4 slots, base clock, shallow pipeline,
  // uniformly far from everything (classic emulated-shared-memory rows).
  GroupSpec thin;
  thin.slots = 4;
  thin.clock_num = 1;
  thin.clock_den = 1;
  thin.pipeline_fill = 2;
  thin.numa_row = {4, 4, 2, 2, 2, 2, 2, 2};
  specs.insert(specs.end(), 6, thin);
  apply_specs(cfg, std::move(specs));
}

void preset_gpu(MachineConfig& cfg) {
  // Eight identical GPU-like groups: wide fixed thickness per group, double
  // clock, a deep pipeline (latency-hiding via thickness, as in the paper's
  // Fig. 12 discussion), and crossbar-flat distance rows.
  GroupSpec sm;
  sm.slots = 32;
  sm.clock_num = 2;
  sm.clock_den = 1;
  sm.pipeline_fill = 12;
  sm.numa_row = {1, 1, 1, 1, 1, 1, 1, 1};
  apply_specs(cfg, std::vector<GroupSpec>(8, sm));
}

}  // namespace

void apply_shape(MachineConfig& cfg, const std::string& spec) {
  if (spec.empty() || spec == "uniform") {
    cfg.group_specs.clear();
    return;
  }
  if (spec == "fat-thin") {
    preset_fat_thin(cfg);
    return;
  }
  if (spec == "gpu") {
    preset_gpu(cfg);
    return;
  }
  std::vector<GroupSpec> specs;
  for (const std::string& term : split(spec, '+')) parse_term(term, specs);
  apply_specs(cfg, std::move(specs));
}

std::string shape_summary(const MachineConfig& cfg) {
  if (!cfg.is_heterogeneous()) return "uniform";
  std::ostringstream os;
  bool first_term = true;
  for (std::size_t i = 0; i < cfg.group_specs.size();) {
    std::size_t run = 1;
    while (i + run < cfg.group_specs.size() &&
           cfg.group_specs[i + run] == cfg.group_specs[i]) {
      ++run;
    }
    const GroupSpec& s = cfg.group_specs[i];
    if (!first_term) os << '+';
    first_term = false;
    os << run << '*';
    bool first_kv = true;
    auto kv = [&](const char* key) -> std::ostringstream& {
      if (!first_kv) os << ',';
      first_kv = false;
      os << key;
      return os;
    };
    if (s.slots != 0) kv("slots=") << s.slots;
    if (s.clock_num != 1 || s.clock_den != 1) {
      kv("clock=") << s.clock_num;
      if (s.clock_den != 1) os << '/' << s.clock_den;
    }
    if (s.pipeline_fill != kInheritFill) kv("fill=") << s.pipeline_fill;
    if (!s.numa_row.empty()) kv("dist");
    if (first_kv) kv("default");
    i += run;
  }
  return os.str();
}

void sample_shape(MachineConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t groups = cfg.groups;
  std::vector<GroupSpec> specs(groups);
  // Draw a small palette of group kinds and tile it over the machine, so
  // sampled shapes look like real heterogeneous parts (a few kinds, many
  // groups) instead of per-group noise.
  const std::uint32_t kinds =
      1 + static_cast<std::uint32_t>(rng.below(std::min<std::uint32_t>(groups, 3)));
  std::vector<GroupSpec> palette(kinds);
  for (GroupSpec& k : palette) {
    // Slot counts around the uniform T_p: 1/4x .. 4x, clamped to >= 1.
    static constexpr std::uint32_t kSlotChoices[] = {0, 1, 2, 4, 8, 16, 32, 64};
    k.slots = kSlotChoices[rng.below(8)];
    static constexpr std::uint32_t kNums[] = {1, 1, 2, 3, 4};
    static constexpr std::uint32_t kDens[] = {1, 1, 1, 2, 4};
    k.clock_num = kNums[rng.below(5)];
    k.clock_den = kDens[rng.below(5)];
    if (rng.chance(0.5)) {
      k.pipeline_fill = static_cast<std::uint32_t>(rng.range(1, 12));
    }
    if (rng.chance(0.5)) {
      k.numa_row.resize(groups);
      for (std::uint32_t m = 0; m < groups; ++m) {
        k.numa_row[m] = static_cast<std::uint32_t>(rng.range(1, 8));
      }
    }
  }
  for (std::uint32_t g = 0; g < groups; ++g) {
    specs[g] = palette[rng.below(kinds)];
  }
  cfg.group_specs = std::move(specs);
  validate_shape(cfg);
}

void validate_topology(const MachineConfig& cfg) {
  if (cfg.topology == net::TopologyKind::kHypercube &&
      !std::has_single_bit(cfg.groups)) {
    throw SimError("topology hypercube needs a power-of-two group count, "
                   "got " + std::to_string(cfg.groups) + " groups");
  }
}

void validate_shape(const MachineConfig& cfg) {
  if (!cfg.is_heterogeneous()) return;
  if (cfg.group_specs.size() != cfg.groups) {
    throw SimError("shape: " + std::to_string(cfg.group_specs.size()) +
                   " group specs for " + std::to_string(cfg.groups) +
                   " groups");
  }
  for (std::size_t g = 0; g < cfg.group_specs.size(); ++g) {
    const GroupSpec& s = cfg.group_specs[g];
    const std::string where = "shape: group " + std::to_string(g);
    if (s.slots > kMaxGroupSlots) {
      throw SimError(where + ": slots " + std::to_string(s.slots) + " > " +
                     std::to_string(kMaxGroupSlots));
    }
    if (s.clock_num == 0 || s.clock_den == 0) {
      throw SimError(where + ": clock multiplier must be >= 1/N with N >= 1");
    }
    if (s.clock_num > kMaxClock || s.clock_den > kMaxClock) {
      throw SimError(where + ": clock multiplier out of range");
    }
    if (s.pipeline_fill != kInheritFill && s.pipeline_fill > kMaxFill) {
      throw SimError(where + ": pipeline fill out of range");
    }
    if (!s.numa_row.empty()) {
      if (s.numa_row.size() != cfg.groups) {
        throw SimError(where + ": NUMA row has " +
                       std::to_string(s.numa_row.size()) + " entries for " +
                       std::to_string(cfg.groups) + " groups");
      }
      for (std::uint32_t d : s.numa_row) {
        if (d > kMaxDistance) throw SimError(where + ": distance out of range");
      }
    }
  }
}

}  // namespace tcfpn::machine
