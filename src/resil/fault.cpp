#include "resil/fault.hpp"

#include <cstdlib>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace tcfpn::resil {

namespace {

/// splitmix64 finalizer: the occurrence-seed mixer. Every fault draw seeds
/// a fresh Rng from mix(seed, step, group, kind), so the schedule depends
/// on nothing but those four values — the determinism contract.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t occurrence_seed(std::uint64_t seed, StepId step, GroupId group,
                              FaultKind kind) {
  return mix64(seed ^ mix64(step) ^
               mix64((static_cast<std::uint64_t>(group) << 8) |
                     static_cast<std::uint64_t>(kind)));
}

constexpr FaultKind kAllKinds[] = {
    FaultKind::kNetDrop,  FaultKind::kNetDelay, FaultKind::kGroupStall,
    FaultKind::kMemFail,  FaultKind::kBitFlip,  FaultKind::kGroupKill,
};

double rate_for(const FaultSpec& s, FaultKind k) {
  switch (k) {
    case FaultKind::kNetDrop: return s.drop_rate;
    case FaultKind::kNetDelay: return s.delay_rate;
    case FaultKind::kGroupStall: return s.stall_rate;
    case FaultKind::kMemFail: return s.memfail_rate;
    case FaultKind::kBitFlip: return s.flip_rate;
    case FaultKind::kGroupKill: return s.kill_rate;
  }
  return 0;
}

bool parse_u64(const std::string& v, std::uint64_t* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (errno != 0 || end != v.c_str() + v.size()) return false;
  *out = static_cast<std::uint64_t>(x);
  return true;
}

bool parse_rate(const std::string& v, double* out) {
  if (v.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v.c_str(), &end);
  if (errno != 0 || end != v.c_str() + v.size()) return false;
  if (!(x >= 0.0 && x <= 1.0)) return false;
  *out = x;
  return true;
}

FaultKind parse_kind(const std::string& name) {
  if (name == "drop") return FaultKind::kNetDrop;
  if (name == "delay") return FaultKind::kNetDelay;
  if (name == "stall") return FaultKind::kGroupStall;
  if (name == "memfail") return FaultKind::kMemFail;
  if (name == "flip") return FaultKind::kBitFlip;
  if (name == "kill") return FaultKind::kGroupKill;
  TCFPN_FAULT("fault spec: unknown fault kind '", name, "'");
}

}  // namespace

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kNetDrop: return "net-drop";
    case FaultKind::kNetDelay: return "net-delay";
    case FaultKind::kGroupStall: return "group-stall";
    case FaultKind::kMemFail: return "mem-fail";
    case FaultKind::kBitFlip: return "bit-flip";
    case FaultKind::kGroupKill: return "group-kill";
  }
  return "?";
}

FaultSpec parse_fault_spec(const std::string& spec) {
  FaultSpec out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      TCFPN_FAULT("fault spec: expected key=value, got '", tok, "'");
    }
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);

    auto want_u64 = [&](std::uint64_t* dst) {
      if (!parse_u64(val, dst)) {
        TCFPN_FAULT("fault spec: bad integer for '", key, "': '", val, "'");
      }
    };
    auto want_rate = [&](double* dst) {
      if (!parse_rate(val, dst)) {
        TCFPN_FAULT("fault spec: '", key,
                    "' needs a probability in [0,1], got '", val, "'");
      }
    };

    if (key == "seed") {
      want_u64(&out.seed);
    } else if (key == "drop") {
      want_rate(&out.drop_rate);
    } else if (key == "delay") {
      want_rate(&out.delay_rate);
    } else if (key == "stall") {
      want_rate(&out.stall_rate);
    } else if (key == "memfail") {
      want_rate(&out.memfail_rate);
    } else if (key == "flip") {
      want_rate(&out.flip_rate);
    } else if (key == "kill") {
      want_rate(&out.kill_rate);
    } else if (key == "retries") {
      std::uint64_t v = 0;
      want_u64(&v);
      if (v > 16) TCFPN_FAULT("fault spec: retries must be <= 16, got ", v);
      out.retries = static_cast<std::uint32_t>(v);
    } else if (key == "backoff") {
      want_u64(&out.backoff_base);
    } else if (key == "delayc") {
      want_u64(&out.delay_cycles);
    } else if (key == "stallc") {
      want_u64(&out.stall_cycles);
    } else if (key == "watchdog") {
      want_u64(&out.watchdog_cycles);
    } else if (key == "scrubc") {
      want_u64(&out.scrub_cycles);
    } else if (key == "at") {
      // at=STEP:KIND[:ARG]
      const std::size_t c1 = val.find(':');
      if (c1 == std::string::npos) {
        TCFPN_FAULT("fault spec: at= needs STEP:KIND[:ARG], got '", val, "'");
      }
      const std::size_t c2 = val.find(':', c1 + 1);
      ScriptedFault sf;
      if (!parse_u64(val.substr(0, c1), &sf.step)) {
        TCFPN_FAULT("fault spec: bad step in at='", val, "'");
      }
      sf.kind = parse_kind(val.substr(
          c1 + 1, (c2 == std::string::npos ? val.size() : c2) - c1 - 1));
      if (c2 != std::string::npos && !parse_u64(val.substr(c2 + 1), &sf.arg)) {
        TCFPN_FAULT("fault spec: bad argument in at='", val, "'");
      }
      out.scripted.push_back(sf);
    } else {
      TCFPN_FAULT("fault spec: unknown key '", key, "'");
    }
  }
  return out;
}

FaultSpec default_spec_for_seed(std::uint64_t seed) {
  FaultSpec s;
  s.seed = seed;
  // Every kind exercised; rates tuned so a few-hundred-step run sees a
  // handful of faults and a few rollbacks, not a fault storm.
  s.drop_rate = 0.010;
  s.delay_rate = 0.010;
  s.stall_rate = 0.006;
  s.memfail_rate = 0.001;
  s.flip_rate = 0.004;
  s.kill_rate = 0.002;
  return s;
}

FaultInjector::FaultInjector(FaultSpec spec, std::uint32_t groups,
                             std::size_t shared_words)
    : spec_(std::move(spec)), groups_(groups), shared_words_(shared_words) {
  TCFPN_CHECK(groups_ >= 1, "fault injector needs at least one group");
  TCFPN_CHECK(shared_words_ >= 1, "fault injector needs shared memory");
}

std::vector<FaultEvent> FaultInjector::pending(StepId step) {
  std::vector<FaultEvent> out;

  auto finish = [&](FaultEvent& ev, Rng& r) {
    switch (ev.kind) {
      case FaultKind::kNetDelay:
        ev.magnitude = spec_.delay_cycles * (1 + r.below(4));
        break;
      case FaultKind::kGroupStall:
        ev.magnitude = spec_.stall_cycles * (1 + r.below(8));
        break;
      case FaultKind::kBitFlip:
        ev.bit = static_cast<std::uint32_t>(r.below(64));
        break;
      default:
        break;
    }
  };

  // Scripted occurrences first, in spec order.
  for (std::size_t i = 0; i < spec_.scripted.size(); ++i) {
    const ScriptedFault& sf = spec_.scripted[i];
    if (sf.step != step) continue;
    FaultEvent ev;
    ev.kind = sf.kind;
    ev.step = step;
    ev.key = (1ull << 63) | i;
    if (fired_.count(ev.key)) continue;
    if (sf.kind == FaultKind::kBitFlip) {
      ev.addr = static_cast<Addr>(sf.arg % shared_words_);
    } else {
      ev.group = static_cast<GroupId>(sf.arg % groups_);
    }
    // Magnitudes still come from the occurrence stream so scripted and
    // random faults share one derivation path.
    Rng r(occurrence_seed(spec_.seed, step, ev.group, sf.kind));
    finish(ev, r);
    out.push_back(ev);
  }

  // The random draws depend on nothing but (seed, step): a step whose
  // draws all came out empty once does so on every replay.
  if (step < quiet_.size() && quiet_[step]) return out;
  bool drawn = false;

  // Random occurrences: one Bernoulli draw per (group, kind), both in
  // ascending order.
  for (GroupId g = 0; g < groups_; ++g) {
    for (FaultKind kind : kAllKinds) {
      const double rate = rate_for(spec_, kind);
      if (rate <= 0) continue;
      Rng r(occurrence_seed(spec_.seed, step, g, kind));
      if (!r.chance(rate)) continue;
      drawn = true;
      FaultEvent ev;
      ev.kind = kind;
      ev.step = step;
      ev.group = g;
      ev.key = (step << 20) | (static_cast<std::uint64_t>(g) << 8) |
               static_cast<std::uint64_t>(kind);
      if (fired_.count(ev.key)) continue;
      if (kind == FaultKind::kBitFlip) {
        ev.addr = static_cast<Addr>(r.below(shared_words_));
      }
      finish(ev, r);
      out.push_back(ev);
    }
  }

  if (step == quiet_.size()) quiet_.push_back(!drawn);
  return out;
}

}  // namespace tcfpn::resil
