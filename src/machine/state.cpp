#include "machine/state.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace tcfpn::machine {

namespace {

// FNV-1a over a stream of 64-bit values, folded byte-wise so the hash does
// not depend on host struct layout.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

}  // namespace

std::uint64_t config_fingerprint(const MachineConfig& cfg) {
  Fnv1a fp;
  fp.mix(cfg.groups);
  fp.mix(cfg.slots_per_group);
  fp.mix(cfg.shared_words);
  fp.mix(cfg.local_words);
  fp.mix(static_cast<std::uint64_t>(cfg.crcw));
  fp.mix(static_cast<std::uint64_t>(cfg.topology));
  fp.mix(cfg.net.link_bandwidth);
  fp.mix(cfg.net.ejection_bandwidth);
  fp.mix(cfg.net.wire_latency);
  fp.mix(cfg.detailed_network ? 1 : 0);
  fp.mix(cfg.local_latency);
  fp.mix(static_cast<std::uint64_t>(cfg.variant));
  fp.mix(cfg.balanced_bound);
  fp.mix(cfg.pipeline_fill);
  fp.mix(cfg.spawn_cost);
  fp.mix(cfg.join_cost);
  fp.mix(cfg.registers_per_context);
  fp.mix(cfg.register_cache_words);
  fp.mix(static_cast<std::uint64_t>(cfg.operand_storage));
  fp.mix(cfg.register_spill_penalty);
  fp.mix(cfg.functional_units);
  // record_trace, sample_every, profile_host, profile: observation
  // settings, not semantics — excluded so checkpoints move across them.
  //
  // The heterogeneous shape is semantics: per-group T_p changes buffer
  // capacity, clocks and fills change every step's cost, NUMA rows change
  // the memory term. Mixed only when present so every uniform config keeps
  // its pre-shape fingerprint (existing TCFCKPT images stay loadable).
  if (cfg.is_heterogeneous()) {
    fp.mix(0x5348415045ull);  // "SHAPE" tag: uniform vs [default specs]
    fp.mix(cfg.group_specs.size());
    for (const GroupSpec& s : cfg.group_specs) {
      fp.mix(s.slots);
      fp.mix(s.clock_num);
      fp.mix(s.clock_den);
      fp.mix(s.pipeline_fill);
      fp.mix(s.numa_row.size());
      for (std::uint32_t d : s.numa_row) fp.mix(d);
    }
  }
  return fp.h;
}

std::uint64_t program_fingerprint(const isa::Program& program) {
  Fnv1a fp;
  fp.mix(program.code.size());
  for (const auto& instr : program.code) fp.mix(instr.encode());
  fp.mix(program.data.size());
  for (const auto& init : program.data) {
    fp.mix(init.addr);
    fp.mix(init.words.size());
    for (Word w : init.words) fp.mix(static_cast<std::uint64_t>(w));
  }
  return fp.h;
}

FlowState capture_flow_state(const TcfDescriptor& f) {
  TCFPN_CHECK(f.step_writes.empty(),
              "flow ", f.id,
              " has uncommitted step writes: checkpoint requires a step "
              "boundary");
  FlowState fs;
  fs.id = f.id;
  fs.parent = f.parent;
  fs.home = f.home;
  fs.pc = f.pc;
  fs.mode = f.mode;
  fs.thickness = f.thickness;
  fs.numa_block = f.numa_block;
  fs.status = f.status;
  fs.live_children = f.live_children;
  fs.next_unexecuted = f.next_unexecuted;
  fs.lane_regs = f.lane_regs.to_aos();
  fs.call_stack.assign(f.call_stack.begin(), f.call_stack.end());
  fs.instr_writes = f.instr_writes.items();
  std::sort(fs.instr_writes.begin(), fs.instr_writes.end());
  fs.multiop_blocked = f.multiop_blocked;
  fs.evicted_once = f.evicted_once;
  return fs;
}

void install_flow_state(TcfDescriptor& f, const FlowState& fs) {
  f.id = fs.id;
  f.parent = fs.parent;
  f.home = fs.home;
  f.pc = fs.pc;
  f.mode = fs.mode;
  f.thickness = fs.thickness;
  f.numa_block = fs.numa_block;
  f.status = fs.status;
  f.live_children = fs.live_children;
  f.next_unexecuted = fs.next_unexecuted;
  f.lane_regs.from_aos(fs.lane_regs);
  f.call_stack.assign(fs.call_stack.begin(), fs.call_stack.end());
  f.step_writes.clear();
  f.instr_writes.clear();
  for (const auto& [a, v] : fs.instr_writes) f.instr_writes.put(a, v);
  f.multiop_blocked = fs.multiop_blocked;
  f.evicted_once = fs.evicted_once;
}

MachineState Machine::save_state() const {
  MachineState s;
  s.config_fingerprint = config_fingerprint(cfg_);
  s.program_fingerprint = program_fingerprint(program_);
  s.stats = stats_;

  s.flows.reserve(flows_.size());
  for (const auto& fp : flows_) {
    s.flows.push_back(capture_flow_state(*fp));
  }

  s.groups.reserve(groups_.size());
  for (const auto& g : groups_) {
    s.groups.push_back(GroupQueueState{g.resident, g.overflow});
  }
  s.pending_spawns = pending_spawns_;
  s.dead_groups = dead_;

  s.shared = shared_.save_state();
  s.locals.reserve(locals_.size());
  for (const auto& lm : locals_) s.locals.push_back(lm.save_state());
  s.net = net_->save_state();
  s.metrics = metrics_.save_raw();
  s.debug_out = debug_out_;
  s.step_samples = step_samples_;
  s.profile = profile_;
  return s;
}

void Machine::restore_state(const MachineState& s) {
  TCFPN_CHECK(s.config_fingerprint == config_fingerprint(cfg_),
              "checkpoint was taken under a different machine configuration");
  TCFPN_CHECK(s.program_fingerprint == program_fingerprint(program_),
              "checkpoint was taken with a different program loaded");
  TCFPN_CHECK(s.groups.size() == groups_.size(),
              "checkpoint group count mismatch");
  TCFPN_CHECK(s.locals.size() == locals_.size(),
              "checkpoint local-memory count mismatch");

  stats_ = s.stats;

  flows_.clear();
  flows_.reserve(s.flows.size());
  for (const FlowState& fs : s.flows) {
    TCFPN_CHECK(fs.id == flows_.size(),
                "checkpoint flow ids must be dense, got ", fs.id, " at index ",
                flows_.size());
    auto f = std::make_unique<TcfDescriptor>();
    install_flow_state(*f, fs);
    flows_.push_back(std::move(f));
  }

  for (GroupId g = 0; g < groups_.size(); ++g) {
    groups_[g].resident = s.groups[g].resident;
    groups_[g].overflow = s.groups[g].overflow;
    groups_[g].step_ops = 0;
  }
  pending_spawns_ = s.pending_spawns;
  if (s.dead_groups.empty()) {
    dead_.assign(cfg_.groups, 0);  // pre-resilience image: all groups alive
  } else {
    TCFPN_CHECK(s.dead_groups.size() == cfg_.groups,
                "checkpoint dead-group vector size mismatch");
    dead_ = s.dead_groups;
  }
  recompute_step_fill();  // dead-group set may differ from pre-restore

  // Mid-step staging is never part of a checkpoint; clear it unconditionally
  // since a restore may land on a machine whose step a fault aborted.
  pending_prefixes_.clear();
  step_refs_.clear();
  std::fill(net_loads_.begin(), net_loads_.end(), 0);
  net_refs_ = 0;
  net_max_dist_ = 0;
  step_bins_.clear();
  step_spawns_.clear();
  step_halted_.clear();
  ctx_.reset();

  shared_.restore_state(s.shared);
  for (GroupId g = 0; g < locals_.size(); ++g) {
    locals_[g].restore_state(s.locals[g]);
  }
  net_->restore_state(s.net);
  metrics_.restore_raw(s.metrics);
  debug_out_ = s.debug_out;
  step_samples_ = s.step_samples;
  profile_ = s.profile;
}

}  // namespace tcfpn::machine
