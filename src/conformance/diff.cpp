#include "conformance/diff.hpp"

#include <algorithm>
#include <sstream>

#include "baseline/frontends.hpp"
#include "debug/postmortem.hpp"
#include "machine/machine.hpp"
#include "machine/shapes.hpp"
#include "resil/recovery.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::conformance {

namespace {

using machine::Variant;

/// Snapshot of one machine (or frontend) execution, shaped like an
/// OracleResult so the comparators are shared.
struct Observed {
  bool completed = false;
  bool faulted = false;
  std::string fault;
  std::vector<Word> shared;
  std::vector<Word> local;
  std::vector<Word> debug;
  Cycle cycles = 0;
  StepId steps = 0;
  bool has_memory = true;  ///< frontends expose no memory image
};

machine::MachineConfig base_config(const DiffCase& c, const LaneSpec& lane) {
  machine::MachineConfig cfg;
  cfg.variant = lane.variant;
  cfg.groups = lane.variant == Variant::kFixedThickness ? 1u : 4u;
  cfg.slots_per_group = 32;
  cfg.shared_words = kSharedWords;
  cfg.local_words = kLocalWords;
  cfg.crcw = c.policy;
  cfg.balanced_bound = lane.balanced_bound;
  return cfg;
}

Observed run_machine(const DiffCase& c, machine::MachineConfig cfg,
                     std::uint64_t max_steps) {
  Observed o;
  machine::Machine m(cfg);
  try {
    m.load(c.program);
    if (c.esm_boot) {
      tcf::kernels::boot_esm_threads(m, c.program.entry(), c.boot_flows);
    } else {
      m.boot(c.boot_thickness);
    }
    const auto r = m.run(max_steps);
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

/// Like run_machine, but through the resilience layer: the default all-kinds
/// fault schedule for `fault_seed`, recovered by checkpoint rollback.
Observed run_machine_resilient(const DiffCase& c, machine::MachineConfig cfg,
                               std::uint64_t max_steps,
                               std::uint64_t fault_seed) {
  Observed o;
  machine::Machine m(cfg);
  try {
    m.load(c.program);
    if (c.esm_boot) {
      tcf::kernels::boot_esm_threads(m, c.program.entry(), c.boot_flows);
    } else {
      m.boot(c.boot_thickness);
    }
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

Observed from_outcome(const baseline::Outcome& out) {
  Observed o;
  o.completed = out.completed;
  o.debug = out.debug_output;
  o.has_memory = false;
  return o;
}

std::string describe_fault(const Observed& o) {
  return o.faulted ? "fault [" + o.fault + "]"
                   : (o.completed ? "completed" : "did not complete");
}

std::string describe_fault_oracle(const OracleResult& o) {
  return o.faulted ? "raised [" + o.fault + "]"
                   : (o.completed ? "completed" : "did not complete");
}

/// Compares one execution against the oracle. `aligned` additionally
/// requires fault presence/class agreement; non-aligned lanes only run
/// programs the oracle finished cleanly.
std::optional<std::string> compare(const OracleResult& want, const Observed& got,
                                   bool aligned, bool uses_local) {
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
  if (got.has_memory) {
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

std::optional<std::string> identical(const Observed& a, const Observed& b) {
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

bool lane_enabled(const LaneSpec& lane, const DiffOptions& opt) {
  if (opt.only_variants.empty()) return true;
  return std::find(opt.only_variants.begin(), opt.only_variants.end(),
                   lane.variant) != opt.only_variants.end();
}

}  // namespace

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
  const machine::MachineConfig cfg =
      d.config ? *d.config
               : base_config(c, {Variant::kSingleInstruction, 16, true});
  // Checkpoints off: a flight record only needs the tape and the corpse.
  debug::FlightRecorder rec(
      debug::RecorderConfig{.journal_capacity = 4096, .checkpoint_every = 0});
  machine::Machine m(cfg);
  m.load(c.program);
  rec.attach(m);
  StepId steps = 0;
  try {
    if (c.esm_boot) {
      tcf::kernels::boot_esm_threads(m, c.program.entry(), c.boot_flows);
    } else {
      m.boot(c.boot_thickness);
    }
    steps = m.run(max_steps).steps;
  } catch (const SimError&) {
    // rec.on_fault captured the record; fall through to render it.
  }
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

  // Note: c.expect_error is advisory (it restricts lanes and skips the
  // frontends); a program that no longer faults — e.g. after the shrinker
  // reduced its thickness — is judged like any other, so minimization can
  // never "succeed" by merely destroying the error.

  bool xmt_applicable = false;
  bool fixed_applicable = false;
  bool single_op_applicable = false;
  bool config_single_op_applicable = false;

  for (const LaneSpec& lane : c.lanes) {
    if (lane.variant == Variant::kMultiInstruction) xmt_applicable = true;
    if (lane.variant == Variant::kFixedThickness) fixed_applicable = true;
    if (lane.variant == Variant::kSingleOperation) single_op_applicable = true;
    if (lane.variant == Variant::kConfigSingleOperation) {
      config_single_op_applicable = true;
    }
    if (!lane_enabled(lane, opt)) continue;
    if (!lane.aligned && want.faulted) continue;

    const machine::MachineConfig cfg = base_config(c, lane);
    const Observed got = run_machine(c, cfg, opt.max_steps);
    if (auto d = compare(want, got, lane.aligned, c.uses_local)) {
      return Divergence{lane.name(), *d, cfg};
    }

    // Fault-tolerance conformance (DESIGN.md §9): under an injected fault
    // schedule with rollback recovery, the lane must still land exactly on
    // the fault-free oracle. Oracle-faulting programs are skipped: a
    // rollback can rewind across the program's own fault point, which
    // changes when (not whether) it fires — the aligned fault-step
    // comparison would be meaningless.
    if (opt.fault_seed != 0 && !want.faulted) {
      const Observed fgot =
          run_machine_resilient(c, cfg, opt.max_steps, opt.fault_seed);
      if (auto d = compare(want, fgot, lane.aligned, c.uses_local)) {
        return Divergence{lane.name() + "+faults", *d, cfg};
      }
    }
  }

  // Cost-model invariance: knobs move cycles, never results.
  if (opt.perturb_costs &&
      (opt.only_variants.empty() ||
       lane_enabled({Variant::kSingleInstruction, 16, true}, opt))) {
    machine::MachineConfig cfg =
        base_config(c, {Variant::kSingleInstruction, 16, true});
    cfg.functional_units = 3;
    cfg.pipeline_fill = 9;
    cfg.operand_storage = machine::OperandStorage::kMemoryToMemory;
    cfg.detailed_network = true;
    cfg.topology = net::TopologyKind::kRing;
    const Observed got = run_machine(c, cfg, opt.max_steps);
    if (auto d = compare(want, got, /*aligned=*/true, c.uses_local)) {
      return Divergence{"single-instruction (perturbed costs)", *d, cfg};
    }
  }

  // Heterogeneous machine shapes (DESIGN.md §12).
  if (opt.shape_seed != 0) {
    // Declared-but-default shape: a vector of default GroupSpecs inherits
    // every uniform value, so the run must be bit-identical — fault, memory,
    // PRINT, cycles and steps — to the undeclared machine. This holds for
    // every program, faulting ones included.
    if (lane_enabled({Variant::kSingleInstruction, 16, true}, opt)) {
      const machine::MachineConfig uni =
          base_config(c, {Variant::kSingleInstruction, 16, true});
      machine::MachineConfig shaped = uni;
      shaped.group_specs.assign(shaped.groups, machine::GroupSpec{});
      const Observed plain = run_machine(c, uni, opt.max_steps);
      const Observed with_shape = run_machine(c, shaped, opt.max_steps);
      if (auto d = identical(plain, with_shape)) {
        return Divergence{"single-instruction (default-spec shape)", *d,
                          shaped};
      }
    }
    // Sampled shapes on the schedule-robust lanes. Non-aligned
    // applicability (lanes_for) already certifies the program's result is
    // independent of how instructions land on steps, which is exactly the
    // freedom a shape exercises: T_p=1 groups overflow and evict, 3x-clock
    // groups race ahead, NUMA rows move the memory term. Results must not.
    if (!want.faulted) {
      for (const LaneSpec& lane : c.lanes) {
        if (lane.aligned || !lane_enabled(lane, opt)) continue;
        machine::MachineConfig cfg = base_config(c, lane);
        machine::sample_shape(cfg, opt.shape_seed);
        const Observed got = run_machine(c, cfg, opt.max_steps);
        if (auto d = compare(want, got, /*aligned=*/false, c.uses_local)) {
          return Divergence{lane.name() + "+shape", *d, cfg};
        }
      }
    }
  }

  // Frontends expose completion + debug output only; skip faulting programs
  // (Outcome has no fault channel — the helpers would just rethrow).
  if (opt.frontends && !c.expect_error && !want.faulted) {
    auto check_frontend = [&](const char* name,
                              const baseline::Outcome& out)
        -> std::optional<Divergence> {
      const Observed got = from_outcome(out);
      if (auto d = compare(want, got, /*aligned=*/false, false)) {
        return Divergence{name, *d, std::nullopt};
      }
      return std::nullopt;
    };
    try {
      const machine::MachineConfig tcf_cfg =
          base_config(c, {Variant::kSingleInstruction, 16, true});
      if (c.boot_flows == 1 && !c.esm_boot) {
        if (auto d = check_frontend(
                "frontend:run_tcf",
                baseline::run_tcf(tcf_cfg, c.program, c.boot_thickness))) {
          return d;
        }
      }
      if (c.esm_boot && single_op_applicable) {
        machine::MachineConfig cfg =
            base_config(c, {Variant::kSingleOperation, 16, true});
        if (auto d = check_frontend(
                "frontend:run_threaded_esm",
                baseline::run_threaded_esm(cfg, c.program, c.boot_flows))) {
          return d;
        }
      }
      if (c.esm_boot && config_single_op_applicable) {
        machine::MachineConfig cfg =
            base_config(c, {Variant::kConfigSingleOperation, 16, true});
        if (auto d = check_frontend(
                "frontend:run_pram_numa",
                baseline::run_pram_numa(cfg, c.program, c.boot_flows))) {
          return d;
        }
      }
      if (xmt_applicable && c.boot_thickness == 1 && !c.esm_boot) {
        machine::MachineConfig cfg =
            base_config(c, {Variant::kMultiInstruction, 16, false});
        if (auto d = check_frontend("frontend:run_xmt",
                                    baseline::run_xmt(cfg, c.program))) {
          return d;
        }
      }
      if (fixed_applicable && !c.esm_boot) {
        machine::MachineConfig cfg =
            base_config(c, {Variant::kFixedThickness, 16, true});
        if (auto d = check_frontend(
                "frontend:run_simd",
                baseline::run_simd(cfg, c.program, c.boot_thickness))) {
          return d;
        }
      }
    } catch (const SimError& e) {
      return Divergence{"frontend",
                        std::string("unexpected fault [") + e.what() + "]",
                        std::nullopt};
    }
  }

  return std::nullopt;
}

std::optional<Divergence> run_differential(const GenProgram& gp,
                                           const DiffOptions& opt) {
  return run_differential(to_case(gp), opt);
}

}  // namespace tcfpn::conformance
