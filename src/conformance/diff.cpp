#include "conformance/diff.hpp"

#include <algorithm>
#include <sstream>

#include "debug/postmortem.hpp"
#include "machine/machine.hpp"
#include "machine/shapes.hpp"
#include "resil/recovery.hpp"
#include "sched/allocation.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::conformance {

namespace {

using machine::Variant;

std::string describe_fault(const LaneRun& o) {
  return o.faulted ? "fault [" + o.fault + "]"
                   : (o.completed ? "completed" : "did not complete");
}

std::string describe_fault_oracle(const OracleResult& o) {
  return o.faulted ? "raised [" + o.fault + "]"
                   : (o.completed ? "completed" : "did not complete");
}

std::optional<std::string> identical(const LaneRun& a, const LaneRun& b) {
  if (a.faulted != b.faulted || a.fault != b.fault) {
    return "fault mismatch: " + describe_fault(a) + " vs " + describe_fault(b);
  }
  if (a.completed != b.completed) return std::string("completion mismatch");
  if (a.shared != b.shared) return std::string("shared memory mismatch");
  if (a.local != b.local) return std::string("local memory mismatch");
  if (a.debug != b.debug) return std::string("debug output mismatch");
  if (a.cycles != b.cycles || a.steps != b.steps) {
    std::ostringstream os;
    os << "cycle/step mismatch: " << a.cycles << "/" << a.steps << " vs "
       << b.cycles << "/" << b.steps;
    return os.str();
  }
  return std::nullopt;
}

/// Whether --variants (DiffOptions::only_variants) lets variant `v` run.
bool enabled(Variant v, const DiffOptions& opt) {
  if (opt.only_variants.empty()) return true;
  return std::find(opt.only_variants.begin(), opt.only_variants.end(), v) !=
         opt.only_variants.end();
}

}  // namespace

machine::MachineConfig lane_config(Variant variant, std::uint32_t bound,
                                   mem::CrcwPolicy policy) {
  machine::MachineConfig cfg;
  cfg.variant = variant;
  cfg.groups = variant == Variant::kFixedThickness ? 1u : 4u;
  cfg.slots_per_group = 32;
  cfg.shared_words = kSharedWords;
  cfg.local_words = kLocalWords;
  cfg.crcw = policy;
  cfg.balanced_bound = bound;
  return cfg;
}

LaneRun run_lane(machine::Machine& m, const DiffCase& c,
                 std::uint64_t max_steps, std::uint64_t fault_seed,
                 bool lpt_placement) {
  LaneRun o;
  try {
    m.load(c.program);
    if (lpt_placement) sched::install_throughput_lpt_hook(m);
    if (c.esm_boot) {
      tcf::kernels::boot_esm_threads(m, c.program.entry(), c.boot_flows);
    } else {
      m.boot(c.boot_thickness);
    }
    machine::RunResult r;
    if (fault_seed != 0) {
      resil::ResilConfig rc;
      rc.spec = resil::default_spec_for_seed(fault_seed);
      rc.mode = resil::RecoverMode::kRollback;
      rc.max_steps = max_steps;
      resil::ResilientExecutor ex(m, rc);
      const resil::ResilResult rr = ex.run();
      r = rr.run;
      o.faulted = rr.faulted;
      o.fault = rr.fault_message;
    } else {
      r = m.run(max_steps);
    }
    o.completed = r.completed;
    o.cycles = r.cycles;
    o.steps = r.steps;
  } catch (const SimError& e) {
    o.faulted = true;
    o.fault = e.what();
  }
  o.shared.resize(kSharedWords);
  for (Addr a = 0; a < kSharedWords; ++a) o.shared[a] = m.shared().peek(a);
  if (c.uses_local) {
    o.local.resize(kLocalWords);
    for (Addr a = 0; a < kLocalWords; ++a) o.local[a] = m.local(0).read(a);
  }
  o.debug = m.debug_output();
  return o;
}

std::optional<std::string> compare(const OracleResult& want,
                                   const LaneRun& got, bool aligned,
                                   bool uses_local) {
  if (aligned) {
    if (want.faulted != got.faulted) {
      return "oracle " + describe_fault_oracle(want) + " but machine " +
             describe_fault(got);
    }
    if (want.faulted && fault_class(want.fault) != fault_class(got.fault)) {
      return "fault class mismatch: oracle [" + want.fault + "] vs machine [" +
             got.fault + "]";
    }
  } else if (got.faulted) {
    return "unexpected machine fault [" + got.fault + "]";
  }
  if (!want.faulted && want.completed != got.completed) {
    return std::string("completion mismatch: oracle ") +
           (want.completed ? "completed" : "timed out") + ", machine " +
           describe_fault(got);
  }
  for (Addr a = 0; a < want.shared.size(); ++a) {
    if (want.shared[a] != got.shared[a]) {
      std::ostringstream os;
      os << "shared[" << a << "] = " << got.shared[a] << ", oracle has "
         << want.shared[a];
      return os.str();
    }
  }
  if (uses_local) {
    for (Addr a = 0; a < want.local.size(); ++a) {
      if (want.local[a] != got.local[a]) {
        std::ostringstream os;
        os << "local[" << a << "] = " << got.local[a] << ", oracle has "
           << want.local[a];
        return os.str();
      }
    }
  }
  if (want.debug != got.debug) {
    std::ostringstream os;
    os << "debug output mismatch: oracle " << want.debug.size()
       << " values, machine " << got.debug.size();
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

std::string LaneSpec::name() const {
  std::string n = machine::to_string(variant);
  if (variant == Variant::kBalanced) {
    n.push_back(':');
    n += std::to_string(balanced_bound);
  }
  return n;
}

std::string fault_class(const std::string& message) {
  return debug::classify_fault(message);
}

std::string flight_record_json(const DiffCase& c, const Divergence& d,
                               std::uint64_t max_steps) {
  // Checkpoints off: a flight record only needs the tape and the corpse.
  debug::FlightRecorder rec(
      debug::RecorderConfig{.journal_capacity = 4096, .checkpoint_every = 0});
  machine::Machine m(d.config);
  rec.attach(m);
  // A fault is captured by rec.on_fault; render it below.
  const StepId steps = run_lane(m, c, max_steps).steps;
  const std::vector<std::pair<std::string, std::string>> meta = {
      {"tool", "tcffuzz"}, {"lane", d.lane}};
  if (rec.fault()) {
    return debug::post_mortem_json(m, rec, meta);
  }
  // The lane ran to completion but its results disagree with the oracle:
  // synthesize a divergence-class fault so the document shape is uniform.
  debug::FaultRecord fr;
  fr.message = d.lane + ": " + d.detail;
  fr.fault_class = "divergence";
  fr.step = steps;
  return debug::post_mortem_json(m, rec.journal(), fr, meta);
}

std::vector<LaneSpec> lanes_for(const Profile& p, const GenProgram& gp) {
  std::vector<LaneSpec> lanes;
  const bool single_flow = !p.uses_spawn && gp.boot_flows == 1;
  const bool racy = p.conflicting || p.expects_error;

  // Single-instruction: the oracle's schedule exactly.
  lanes.push_back({Variant::kSingleInstruction, 16, true});

  // Balanced never runs racy programs: its budget either merges several
  // instructions into one step (large bound — the race and the surrounding
  // stores commit together, so the at-fault image differs) or splits one
  // thick instruction across steps (small bound — the race disappears).
  // Multi-flow multiprefix is also excluded: group-local budgets can move a
  // higher-key flow's contribution into an earlier step, which reorders
  // tickets.
  if (!racy &&
      !(p.uses_prefix && (gp.boot_flows > 1 || p.prefix_in_spawn))) {
    const std::uint32_t bounds[] = {2, 3, 8, 16};
    lanes.push_back({Variant::kBalanced, bounds[gp.seed % 4], false});
  }

  const bool xmt_ok = !p.uses_numa && !p.uses_setthick && !racy &&
                      !(p.uses_prefix &&
                        (p.prefix_in_loop || p.prefix_in_spawn ||
                         gp.boot_flows > 1));
  if (xmt_ok) lanes.push_back({Variant::kMultiInstruction, 16, false});

  if (p.max_thickness <= 1 && !p.uses_numa) {
    lanes.push_back({Variant::kSingleOperation, 16, true});
  }
  if (p.max_thickness <= 1) {
    lanes.push_back({Variant::kConfigSingleOperation, 16, true});
  }
  if (single_flow && !p.uses_setthick) {
    lanes.push_back({Variant::kFixedThickness, 16, true});
  }
  return lanes;
}

DiffCase to_case(const GenProgram& gp) {
  const Profile p = profile_of(gp);
  DiffCase c;
  c.program = materialize(gp).program;
  c.boot_thickness = gp.boot_thickness;
  c.boot_flows = gp.boot_flows;
  c.esm_boot = gp.esm_boot;
  c.policy = gp.policy;
  c.expect_error = p.expects_error;
  c.uses_local = p.uses_local;
  c.lanes = lanes_for(p, gp);
  return c;
}

std::optional<Divergence> run_differential(const DiffCase& c,
                                           const DiffOptions& opt) {
  OracleOptions oo;
  oo.policy = c.policy;
  oo.shared_words = kSharedWords;
  oo.local_words = kLocalWords;
  oo.max_steps = opt.max_steps;
  oo.skip_common_check = opt.oracle_skip_common;
  oo.reverse_prefix_order = opt.oracle_reverse_prefix;
  const OracleResult want =
      run_oracle(c.program, c.boot_thickness, c.boot_flows, c.esm_boot, oo);

  // Note: c.expect_error is advisory (it restricts lanes); a program that
  // no longer faults — e.g. after the shrinker reduced its thickness — is
  // judged like any other, so minimization can never "succeed" by merely
  // destroying the error.

  for (const LaneSpec& lane : c.lanes) {
    if (!enabled(lane.variant, opt)) continue;
    if (!lane.aligned && want.faulted) continue;

    const machine::MachineConfig cfg =
        lane_config(lane.variant, lane.balanced_bound, c.policy);
    machine::Machine m(cfg);
    if (auto d = compare(want, run_lane(m, c, opt.max_steps), lane.aligned,
                         c.uses_local)) {
      return Divergence{lane.name(), *d, cfg};
    }

    // Fault-tolerance conformance (DESIGN.md §9): under an injected fault
    // schedule with rollback recovery, the lane must still land exactly on
    // the fault-free oracle. Oracle-faulting programs are skipped: a
    // rollback can rewind across the program's own fault point, which
    // changes when (not whether) it fires — the aligned fault-step
    // comparison would be meaningless.
    if (opt.fault_seed != 0 && !want.faulted) {
      machine::Machine fm(cfg);
      if (auto d = compare(want, run_lane(fm, c, opt.max_steps, opt.fault_seed),
                           lane.aligned, c.uses_local)) {
        return Divergence{lane.name() + "+faults", *d, cfg};
      }
    }
  }

  const machine::MachineConfig uni =
      lane_config(Variant::kSingleInstruction, 16, c.policy);

  // Cost-model invariance: knobs move cycles, never results.
  if (enabled(Variant::kSingleInstruction, opt)) {
    machine::MachineConfig cfg = uni;
    cfg.functional_units = 3;
    cfg.pipeline_fill = 9;
    cfg.operand_storage = machine::OperandStorage::kMemoryToMemory;
    cfg.detailed_network = true;
    cfg.topology = net::TopologyKind::kRing;
    machine::Machine m(cfg);
    if (auto d = compare(want, run_lane(m, c, opt.max_steps),
                         /*aligned=*/true, c.uses_local)) {
      return Divergence{"single-instruction (perturbed costs)", *d, cfg};
    }
  }

  // Heterogeneous machine shapes (DESIGN.md §12).
  if (opt.shape_seed == 0) return std::nullopt;

  // Declared-but-default shape: a vector of default GroupSpecs inherits
  // every uniform value, so the run must be bit-identical — fault, memory,
  // PRINT, cycles and steps — to the undeclared machine. This holds for
  // every program, faulting ones included.
  if (enabled(Variant::kSingleInstruction, opt)) {
    machine::MachineConfig shaped = uni;
    shaped.group_specs.assign(shaped.groups, machine::GroupSpec{});
    machine::Machine plain(uni);
    machine::Machine with_shape(shaped);
    if (auto d = identical(run_lane(plain, c, opt.max_steps),
                           run_lane(with_shape, c, opt.max_steps))) {
      return Divergence{"single-instruction (default-spec shape)", *d,
                        shaped};
    }
  }
  // Sampled shapes on the schedule-robust lanes. Non-aligned applicability
  // (lanes_for) already certifies the program's result is independent of
  // how instructions land on steps, which is exactly the freedom a shape
  // exercises: T_p=1 groups overflow and evict, 3x-clock groups race ahead,
  // NUMA rows move the memory term. Results must not.
  if (want.faulted) return std::nullopt;
  for (const LaneSpec& lane : c.lanes) {
    if (lane.aligned || !enabled(lane.variant, opt)) continue;
    machine::MachineConfig cfg =
        lane_config(lane.variant, lane.balanced_bound, c.policy);
    machine::sample_shape(cfg, opt.shape_seed);
    machine::Machine m(cfg);
    if (auto d = compare(want, run_lane(m, c, opt.max_steps),
                         /*aligned=*/false, c.uses_local)) {
      return Divergence{lane.name() + "+shape", *d, cfg};
    }
  }
  return std::nullopt;
}

std::optional<Divergence> run_differential(const GenProgram& gp,
                                           const DiffOptions& opt) {
  return run_differential(to_case(gp), opt);
}

}  // namespace tcfpn::conformance
