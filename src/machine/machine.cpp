#include "machine/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>

#include "common/log.hpp"
#include "machine/cost_model.hpp"
#include "machine/shapes.hpp"

namespace tcfpn::machine {

namespace {

// Priority-CRCW lane keys order accesses by (flow id, lane): lower flow ids
// and lower lanes win ties deterministically.
LaneId lane_key(FlowId flow, LaneId lane) { return (flow << 40) | lane; }

// The effective address base + imm (+ lane), computed in wrapping 64-bit
// arithmetic: signed overflow would be undefined, and a sum that wraps past
// INT64_MAX comes back negative, which the callers fault on.
Word effective_word(Word base, const isa::Instr& instr, LaneId lane) {
  std::uint64_t ea =
      static_cast<std::uint64_t>(base) + static_cast<std::uint64_t>(instr.imm);
  if (instr.lane_addr()) ea += lane;
  return static_cast<Word>(ea);
}

// How many lanes of [start, start + count) precede the first zero divisor
// (all of them when there is none); `b` is the divisor bank, or null for an
// immediate divisor `imm`.
std::uint64_t lanes_before_zero(const Word* b, Word imm, std::uint64_t start,
                                std::uint64_t count) {
  if (b == nullptr) return imm == 0 ? 0 : count;
  return static_cast<std::uint64_t>(
      std::find(b + start, b + start + count, Word{0}) - (b + start));
}

constexpr std::uint64_t kUnlimited = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kLaneOpGuard = 4'000'000;  // runaway-lane guard (XMT)

// Host-profiling span cap: a span is ~50 bytes, so this bounds the buffer at
// a few tens of MB even for million-step runs.
constexpr std::size_t kMaxHostSpans = 1u << 20;

// Sorts a step's profiler bins into canonical key order (group first) and
// folds equal keys into one bin, summing their cycles. The fold is not
// cosmetic: the apportionment of a slot term below the step's work shares
// remainders per bin, so eight unit bins of one key would not get what one
// bin of eight gets.
void fold_bins(std::vector<std::pair<prof::Key, Cycle>>& bins) {
  std::sort(bins.begin(), bins.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (kept > 0 && bins[kept - 1].first == bins[i].first) {
      bins[kept - 1].second += bins[i].second;
    } else {
      bins[kept++] = bins[i];
    }
  }
  bins.resize(kept);
}

}  // namespace

const char* to_string(DebugEventKind k) {
  switch (k) {
    case DebugEventKind::kFlowCreated: return "flow_created";
    case DebugEventKind::kFlowHalted: return "flow_halted";
    case DebugEventKind::kThicknessChanged: return "thickness_changed";
    case DebugEventKind::kSpawn: return "spawn";
    case DebugEventKind::kJoin: return "join";
    case DebugEventKind::kSuspend: return "suspend";
    case DebugEventKind::kResume: return "resume";
    case DebugEventKind::kEvict: return "evict";
    case DebugEventKind::kPrint: return "print";
    case DebugEventKind::kStepCommitted: return "step_committed";
    case DebugEventKind::kFault: return "fault";
    case DebugEventKind::kFaultInjected: return "fault_injected";
    case DebugEventKind::kRetry: return "retry";
    case DebugEventKind::kRollback: return "rollback";
    case DebugEventKind::kGroupRetired: return "group_retired";
  }
  return "?";
}

void Machine::emit(DebugEventKind kind, const TcfDescriptor& f, Word a,
                   Word b) {
  if (observer_ == nullptr) return;
  ctx_.events.push_back(DebugEvent{kind, stats_.steps, f.id, f.home, a, b});
}

void Machine::emit_now(DebugEventKind kind, FlowId flow, GroupId group, Word a,
                       Word b) {
  if (observer_ == nullptr) return;
  observer_->on_event(DebugEvent{kind, stats_.steps, flow, group, a, b});
}

namespace {

// The machine's topology: the physical network, wrapped in an
// OverrideTopology when any group of a heterogeneous shape carries a
// private NUMA distance row. Routing stays physical; the distance metric
// (analytic latency bound, dist_cache_, diameter) sees the override.
// Validates the shape and the topology first: it runs in the constructor's
// initializer list, before any other check, and the rows below assume one
// spec per group.
std::unique_ptr<net::Topology> make_machine_topology(
    const MachineConfig& cfg) {
  validate_shape(cfg);
  validate_topology(cfg);
  auto base = net::make_topology(cfg.topology, cfg.groups);
  bool any_row = false;
  for (const auto& spec : cfg.group_specs) {
    if (!spec.numa_row.empty()) any_row = true;
  }
  if (!any_row) return base;
  std::vector<std::vector<std::uint32_t>> rows(cfg.groups);
  for (std::uint32_t g = 0; g < cfg.groups && g < cfg.group_specs.size();
       ++g) {
    rows[g] = cfg.group_specs[g].numa_row;
  }
  return std::make_unique<net::OverrideTopology>(std::move(base),
                                                 std::move(rows));
}

}  // namespace

Machine::Machine(MachineConfig cfg)
    : cfg_(cfg),
      shared_(cfg.shared_words, cfg.groups, cfg.crcw),
      net_(std::make_unique<net::Network>(make_machine_topology(cfg),
                                          cfg.net)) {
  TCFPN_CHECK(cfg_.groups >= 1, "machine needs at least one group");
  TCFPN_CHECK(cfg_.slots_per_group >= 1, "machine needs at least one slot");
  TCFPN_CHECK(cfg_.variant != Variant::kFixedThickness || cfg_.groups == 1,
              "the fixed-thickness (vector/SIMD) variant has one processor");
  TCFPN_CHECK(cfg_.balanced_bound >= 1, "balanced bound must be >= 1");
  locals_.reserve(cfg_.groups);
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    locals_.emplace_back(g, cfg_.local_words, cfg_.local_latency);
  }
  groups_.resize(cfg_.groups);
  dead_.assign(cfg_.groups, 0);
  recompute_step_fill();
  net_loads_.assign(shared_.modules(), 0);
  run_modules_.assign(shared_.modules(), 0);
  dist_cache_.resize(cfg_.groups);
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    dist_cache_[g].resize(shared_.modules());
    for (std::uint32_t m = 0; m < shared_.modules(); ++m) {
      dist_cache_[g][m] = net_->topology().distance(g, m % cfg_.groups);
    }
  }
  // The machine-level registry also carries the lane counters (fed directly
  // by the XMT path, and by each group's lane counts when it finishes) plus
  // the commit-side memory and router instruments.
  for (std::size_t k = 0; k < kLaneKinds; ++k) {
    gm_[k] = &metrics_.counter(kLaneCounterPaths[k]);
  }
  sc_.pipeline_fill_cycles = &metrics_.counter("machine/pipeline_fill_cycles");
  sc_.slot_term_cycles = &metrics_.counter("machine/slot_term_cycles");
  sc_.memory_term_cycles = &metrics_.counter("machine/memory_term_cycles");
  sc_.memory_wait_cycles = &metrics_.counter("machine/memory_wait_cycles");
  sc_.slot_occupancy = &metrics_.accumulator("sched/slot_occupancy");
  sc_.overflow_depth = &metrics_.accumulator("sched/overflow_depth");
  sc_.hot_module_load = &metrics_.accumulator("net/hot_module_load");
  sc_.wire_distance = &metrics_.accumulator("net/wire_distance");
  shared_.bind_metrics(&metrics_);
  net_->bind_metrics(&metrics_);
  trace_.set_enabled(cfg_.record_trace);
}

void Machine::GroupCtx::reset() {
  delta = MachineStats{};
  lanes = {};
  events.clear();
  prints.clear();
  trace.clear();
}

double Machine::host_clock_us() {
  if (!host_t0_set_) {
    host_t0_ = std::chrono::steady_clock::now();
    host_t0_set_ = true;
  }
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - host_t0_)
      .count();
}

void Machine::host_span(const char* name, double start_us) {
  if (host_spans_.size() >= kMaxHostSpans) {
    if (!host_spans_truncated_) {
      host_spans_truncated_ = true;
      obs::warn("machine/host_spans",
                "host-span buffer full (" +
                    std::to_string(host_spans_.size()) +
                    " spans); further spans dropped — trace export is "
                    "truncated");
    }
    return;
  }
  const double now = host_clock_us();
  host_spans_.push_back(HostSpan{name, 0, start_us, now - start_us});
}

void Machine::maybe_sample_step() {
  if (cfg_.sample_every == 0 || stats_.steps % cfg_.sample_every != 0) return;
  step_samples_.push_back(StepSample{stats_.steps, stats_.cycles,
                                     stats_.operations, stats_.busy_slots,
                                     stats_.idle_slots, live_flows()});
}

void Machine::charge(Cycle c) {
  stats_.cycles += c;
  metrics_.counter("sched/charged_cycles").add(c);
  if (cfg_.profile) {
    profile_.add({prof::kNoIndex, prof::kNoIndex, prof::kNoIndex,
                  prof::Term::kSched},
                 c);
  }
}

void Machine::load(const isa::Program& program) {
  program_ = program;
  for (const auto& init : program_.data) {
    for (std::size_t i = 0; i < init.words.size(); ++i) {
      shared_.poke(init.addr + i, init.words[i]);
    }
  }
}

FlowId Machine::boot(Word thickness) {
  return boot_at(program_.entry(), thickness, 0);
}

FlowId Machine::boot_at(std::size_t pc, Word thickness, GroupId home) {
  TCFPN_CHECK(thickness >= 1, "boot thickness must be >= 1, got ", thickness);
  TCFPN_CHECK(home < cfg_.groups, "boot group ", home, " out of range");
  TCFPN_CHECK(group_alive(home), "boot group ", home, " is retired");
  TCFPN_CHECK(pc < program_.code.size(), "boot pc ", pc, " out of range");
  TcfDescriptor& f = make_flow(pc, thickness, home, kNoFlow);
  auto& grp = groups_[home];
  if (grp.resident.size() < cfg_.group_slots(home)) {
    grp.resident.push_back(f.id);
  } else {
    grp.overflow.push_back(f.id);
  }
  emit_now(DebugEventKind::kFlowCreated, f.id, home, thickness, -1);
  return f.id;
}

TcfDescriptor& Machine::flow(FlowId id) {
  TCFPN_CHECK(id < flows_.size(), "unknown flow id ", id);
  return *flows_[id];
}

const TcfDescriptor* Machine::find_flow(FlowId id) const {
  return id < flows_.size() ? flows_[id].get() : nullptr;
}

void Machine::poke_reg(FlowId id, LaneId lane, std::uint8_t reg, Word value) {
  TcfDescriptor& f = flow(id);
  TCFPN_CHECK(lane < f.lane_regs.lanes(), "lane ", lane, " out of range");
  TCFPN_CHECK(reg > 0 && reg < isa::kNumRegisters, "bad register r", reg);
  f.lane_regs.set(lane, reg, value);
}

Word Machine::peek_reg(FlowId id, LaneId lane, std::uint8_t reg) const {
  TCFPN_CHECK(id < flows_.size(), "unknown flow id ", id);
  const TcfDescriptor& f = *flows_[id];
  TCFPN_CHECK(lane < f.lane_regs.lanes(), "lane ", lane, " out of range");
  TCFPN_CHECK(reg < isa::kNumRegisters, "bad register r", reg);
  return f.lane_regs.get(lane, reg);
}

TcfDescriptor& Machine::make_flow(std::size_t pc, Word thickness, GroupId home,
                                  FlowId parent) {
  auto f = std::make_unique<TcfDescriptor>();
  f->id = flows_.size();
  f->parent = parent;
  f->home = home;
  f->pc = pc;
  f->thickness = thickness;
  f->lane_regs.assign(static_cast<std::size_t>(thickness), LaneRegs{});
  flows_.push_back(std::move(f));
  return *flows_.back();
}

std::uint64_t Machine::group_load(GroupId g) const {
  std::uint64_t load = 0;
  auto add = [&](FlowId id) {
    const auto& f = *flows_[id];
    if (f.status == FlowStatus::kReady) {
      load += f.ops_per_instruction();
    }
  };
  for (FlowId id : groups_[g].resident) add(id);
  for (FlowId id : groups_[g].overflow) add(id);
  // Flows spawned this step but not yet admitted already have a home;
  // placement must see them or sibling fragments pile onto one group.
  for (FlowId id : pending_spawns_) {
    if (flows_[id]->home == g) add(id);
  }
  return load;
}

GroupId Machine::pick_group(const TcfDescriptor& child) const {
  if (alloc_) return alloc_(child);
  return least_loaded_alive();
}

GroupId Machine::least_loaded_alive() const {
  GroupId best = 0;
  bool found = false;
  std::uint64_t best_load = std::numeric_limits<std::uint64_t>::max();
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    if (!group_alive(g)) continue;
    const std::uint64_t load = group_load(g);
    if (!found || load < best_load) {
      best_load = load;
      best = g;
      found = true;
    }
  }
  TCFPN_CHECK(found, "no live group left to place a flow on");
  return best;
}

std::uint32_t Machine::alive_groups() const {
  std::uint32_t n = 0;
  for (std::uint8_t d : dead_) n += d == 0;
  return n;
}

Word Machine::retire_group(GroupId g) {
  TCFPN_CHECK(g < cfg_.groups, "retire: group ", g, " out of range");
  TCFPN_CHECK(group_alive(g), "retire: group ", g, " already retired");
  TCFPN_CHECK(alive_groups() >= 2,
              "retire: cannot retire the last surviving group");
  dead_[g] = 1;
  Word total_thickness = 0;
  std::uint64_t moved = 0;
  // Rehome resident before overflow, each list in FIFO order, always onto
  // the least-loaded survivor: the same deterministic placement rule as
  // spawn, so the degraded schedule is a function of the machine state.
  // The custom allocation hook is deliberately bypassed — it may not know
  // about dead groups, and fault migration is an OS decision, not a program
  // one.
  auto rehome = [&](std::vector<FlowId>& list) {
    for (FlowId id : list) {
      TcfDescriptor& f = flow(id);
      const GroupId target = least_loaded_alive();
      f.home = target;
      auto& t = groups_[target];
      if (t.resident.size() < cfg_.group_slots(target)) {
        t.resident.push_back(id);
      } else {
        t.overflow.push_back(id);
      }
      // Migrating off a dead group is a non-resident reload (Section 3.3
      // task-switch cost): the survivor must fetch the TCF's state anew.
      charge_switch(f,
                    task_switch_cost(cfg_, f.thickness,
                                     /*resident_in_buffer=*/false,
                                     cfg_.group_slots(target)),
                    "sched/swap_in_cycles");
      metrics_.counter("sched/fault_migrations").add();
      total_thickness += f.thickness;
      ++moved;
    }
    list.clear();
  };
  rehome(groups_[g].resident);
  rehome(groups_[g].overflow);
  // Spawned-but-unadmitted flows only need a new home; admission (and its
  // accounting) happens at the barrier as usual.
  for (FlowId id : pending_spawns_) {
    TcfDescriptor& f = flow(id);
    if (f.home != g) continue;
    f.home = least_loaded_alive();
    total_thickness += f.thickness;
    ++moved;
  }
  metrics_.counter("sched/groups_retired").add();
  // A dead group's pipeline no longer gates the step: the fill is the max
  // over *alive* groups on a heterogeneous shape.
  recompute_step_fill();
  emit_now(DebugEventKind::kGroupRetired, kNoFlow, g, total_thickness,
           static_cast<Word>(moved));
  return total_thickness;
}

void Machine::recompute_step_fill() {
  if (!cfg_.is_heterogeneous()) {
    step_fill_ = cfg_.pipeline_fill;
    return;
  }
  std::uint32_t fill = 0;
  bool any = false;
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    if (!group_alive(g)) continue;
    fill = std::max(fill, cfg_.group_fill(g));
    any = true;
  }
  step_fill_ = any ? fill : cfg_.pipeline_fill;
}

Word Machine::resident_thickness(GroupId g) const {
  Word total = 0;
  auto add = [&](FlowId id) {
    const auto& f = *flows_[id];
    if (f.status == FlowStatus::kReady) total += f.thickness;
  };
  for (FlowId id : groups_[g].resident) add(id);
  for (FlowId id : groups_[g].overflow) add(id);
  for (FlowId id : pending_spawns_) {
    if (flows_[id]->home == g) add(id);
  }
  return total;
}

void Machine::admit_pending_spawns() {
  for (FlowId id : pending_spawns_) {
    TcfDescriptor& f = flow(id);
    auto& grp = groups_[f.home];
    if (grp.resident.size() < cfg_.group_slots(f.home)) {
      grp.resident.push_back(id);
    } else {
      grp.overflow.push_back(id);
    }
  }
  pending_spawns_.clear();
}

void Machine::promote_overflow(GroupId g) {
  auto& grp = groups_[g];
  std::size_t i = 0;
  while (i < grp.overflow.size() &&
         grp.resident.size() < cfg_.group_slots(g)) {
    const FlowId id = grp.overflow[i];
    TcfDescriptor& f = flow(id);
    if (f.status != FlowStatus::kReady) {
      ++i;  // suspended/waiting flows keep their overflow seat
      continue;
    }
    grp.overflow.erase(grp.overflow.begin() +
                       static_cast<std::ptrdiff_t>(i));
    metrics_.counter("sched/overflow_promotions").add();
    if (f.evicted_once) {
      // Reloading a previously displaced TCF pays the swap-in.
      charge_switch(f,
                    task_switch_cost(cfg_, f.thickness,
                                     /*resident_in_buffer=*/false,
                                     cfg_.group_slots(g)),
                    "sched/swap_in_cycles");
    }
    grp.resident.push_back(id);
  }
}

void Machine::on_flow_halted(TcfDescriptor& f) {
  f.status = FlowStatus::kHalted;
  emit_now(DebugEventKind::kFlowHalted, f.id, f.home);
  if (f.parent != kNoFlow) {
    TcfDescriptor& p = flow(f.parent);
    TCFPN_CHECK(p.live_children > 0, "child halt underflows parent counter");
    --p.live_children;
  }
}

void Machine::halt_in_step(TcfDescriptor& f) {
  f.status = FlowStatus::kHalted;
  emit(DebugEventKind::kFlowHalted, f);
  if (f.parent == kNoFlow) return;
  TcfDescriptor& p = flow(f.parent);
  if (p.home == f.home) {
    // Same group: the parent runs later in this group's own phase, so the
    // notice can land immediately — a later JOINALL of the parent in this
    // very step already sees the child gone.
    TCFPN_CHECK(p.live_children > 0, "child halt underflows parent counter");
    --p.live_children;
    return;
  }
  // Cross-group: the join notice lands in the deferred pass, in group
  // order, so the parent's group sees the same count whether it runs
  // before or after this one.
  step_halted_.push_back(f.id);
}

std::size_t Machine::live_flows() const {
  std::size_t n = 0;
  for (const auto& f : flows_) {
    if (f->status != FlowStatus::kHalted) ++n;
  }
  return n;
}

std::size_t Machine::resident_flows(GroupId g) const {
  TCFPN_CHECK(g < cfg_.groups, "group ", g, " out of range");
  return groups_[g].resident.size();
}

bool Machine::done() const { return live_flows() == 0; }

RunResult Machine::run(std::uint64_t max_steps) {
  std::uint64_t n = 0;
  while (n < max_steps && step()) ++n;
  return RunResult{done(), stats_.cycles, stats_.steps};
}

bool Machine::step() {
  try {
    if (cfg_.variant == Variant::kMultiInstruction) {
      return step_multi_instruction();
    }
    return step_synchronous();
  } catch (const SimError& e) {
    // Give the flight recorder its post-mortem hook before the fault
    // propagates. The mid-step machine state is dirty; the recorder may
    // only inspect it read-only or restore a checkpoint.
    if (observer_ != nullptr) observer_->on_fault(e.what(), *this);
    throw;
  }
}

// --------------------------------------------------------------------------
// Step-synchronous variants
// --------------------------------------------------------------------------

bool Machine::step_synchronous() {
  if (!begin_step()) return false;

  // Groups run in group order 0..P-1, the order the oracle commits the
  // effects in. A group reads only committed shared memory and its own
  // flows; it stages its shared-memory traffic straight into shared_, which
  // shows nothing before commit_step, and holds back in ctx_ what a fault
  // must not show. ctx_ merges as soon as its group finishes, unless a
  // group has faulted: then the groups below the lowest faulting one have
  // merged and no other has. Every group executes the step, also after a
  // fault; the first fault is rethrown once all have run.
  double t0 = cfg_.profile_host ? host_clock_us() : 0;
  std::exception_ptr fault;
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    ctx_.reset();
    try {
      execute_group(g, step_base_);
    } catch (...) {
      if (!fault) fault = std::current_exception();
    }
    if (!fault) merge_group();
  }
  if (cfg_.profile_host) {
    host_span("machine/group_phase", t0);
    t0 = host_clock_us();
  }
  if (fault) std::rethrow_exception(fault);
  merge_deferred();
  if (cfg_.profile_host) host_span("machine/merge_effects", t0);
  finish_step();
  return true;
}

bool Machine::begin_step() {
  bool any_ready = false;
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    promote_overflow(g);
    for (FlowId id : groups_[g].resident) {
      if (flows_[id]->status == FlowStatus::kReady) any_ready = true;
    }
  }
  if (!any_ready) return false;

  // A fault may have aborted the previous step after some groups appended
  // their profiler bins; never let them leak into this step's apportionment.
  step_bins_.clear();
  step_base_ = stats_.cycles + step_fill_;
  return true;
}

void Machine::execute_group(GroupId g, Cycle step_base) {
  auto& grp = groups_[g];
  grp.step_ops = 0;
  // Flows spawned/woken during the step join the next one; nothing is
  // admitted to the resident list until the step ends, so no snapshot copy
  // is needed.
  const std::vector<FlowId>& active = grp.resident;

  auto record = [&](const TcfDescriptor& f, std::uint64_t ops) {
    if (ops == 0 || !trace_.enabled()) return;
    ctx_.trace.push_back(TraceSpan{g, step_base + grp.step_ops - ops,
                                   step_base + grp.step_ops,
                                   static_cast<char>('A' + f.id % 26),
                                   "flow " + std::to_string(f.id)});
  };

  if (cfg_.variant == Variant::kBalanced) {
    std::uint64_t budget = cfg_.balanced_bound;
    // Round-robin over resident flows until the bound or no eligible work.
    bool progressed = true;
    std::vector<bool> numa_done(active.size(), false);
    while (budget > 0 && progressed) {
      progressed = false;
      for (std::size_t i = 0; i < active.size() && budget > 0; ++i) {
        TcfDescriptor& f = flow(active[i]);
        if (f.status != FlowStatus::kReady || f.multiop_blocked) continue;
        if (f.mode == FlowMode::kNuma) {
          if (numa_done[i]) continue;
          numa_done[i] = true;  // one block slice per step
        }
        const std::uint64_t ops = run_flow_slice(f, budget);
        if (ops > 0) {
          progressed = true;
          budget -= std::min(budget, ops);
          grp.step_ops += ops;
          record(f, ops);
        }
      }
    }
  } else {
    // One TCF instruction (or NUMA block) per ready flow per step.
    for (FlowId id : active) {
      TcfDescriptor& f = flow(id);
      if (f.status != FlowStatus::kReady) continue;
      const std::uint64_t ops = run_flow_slice(f, kUnlimited);
      grp.step_ops += ops;
      record(f, ops);
    }
  }
}

void Machine::merge_group() {
  stats_.tcf_instructions += ctx_.delta.tcf_instructions;
  stats_.operations += ctx_.delta.operations;
  stats_.instruction_fetches += ctx_.delta.instruction_fetches;
  stats_.spawns += ctx_.delta.spawns;
  stats_.joins += ctx_.delta.joins;
  stats_.branch_cost_cycles += ctx_.delta.branch_cost_cycles;
  // Integer adds into the bound counters: the merge order cannot move a bit.
  for (std::size_t k = 0; k < kLaneKinds; ++k) gm_[k]->add(ctx_.lanes[k]);
  if (observer_ != nullptr) {
    for (const DebugEvent& ev : ctx_.events) observer_->on_event(ev);
  }
  debug_out_.insert(debug_out_.end(), ctx_.prints.begin(), ctx_.prints.end());
  for (auto& span : ctx_.trace) {
    trace_.add(span.row, span.begin, span.end, span.glyph,
               std::move(span.label));
  }
}

void Machine::merge_deferred() {
  // Join notices: a child halting this step reaches a parent on another
  // group only here, so JOINALL outcomes never depend on group order.
  // finish_step wakes satisfied joiners right after. A step that faults
  // never reaches this pass, so its cross-group join notices and spawns
  // never land.
  for (FlowId id : step_halted_) {
    const TcfDescriptor& child = *flows_[id];
    if (child.parent == kNoFlow) continue;
    TcfDescriptor& p = flow(child.parent);
    TCFPN_CHECK(p.live_children > 0, "child halt underflows parent counter");
    --p.live_children;
  }
  step_halted_.clear();

  // Deferred SPAWN placement: creating and placing children in group
  // order fixes flow ids and allocation decisions. Placement reads other
  // groups' loads and grows flows_, so it must wait until every group
  // finished executing.
  for (const auto& sp : step_spawns_) {
    Word base = 0;
    for (Word part : sp.fragments) {
      TcfDescriptor& child = make_flow(sp.entry, part, 0, sp.parent);
      child.home = pick_group(child);
      TCFPN_CHECK(group_alive(child.home),
                  "allocation hook placed flow on retired group ",
                  child.home);
      metrics_.counter("sched/spawn_placements").add();
      metrics_.accumulator("sched/placement_load")
          .add(static_cast<double>(group_load(child.home)));
      // The child inherits a broadcast copy of the parent's lane-0
      // registers (flow-level state); fragments learn their base lane
      // offset through r15 (the fragment convention).
      child.lane_regs.assign(child.lane_regs.lanes(), sp.broadcast);
      if (sp.fragments.size() > 1) {
        Word* r15 = child.lane_regs.bank(15);
        std::fill(r15, r15 + child.lane_regs.lanes(), base);
      }
      emit_now(DebugEventKind::kFlowCreated, child.id, child.home, part,
               static_cast<Word>(sp.parent));
      pending_spawns_.push_back(child.id);
      base += part;
    }
  }
  step_spawns_.clear();
}

std::uint64_t Machine::run_flow_slice(TcfDescriptor& f,
                                      std::uint64_t op_quota) {
  TCFPN_CHECK(f.status == FlowStatus::kReady, "slicing a non-ready flow");
  if (op_quota == 0) return 0;
  if (f.mode == FlowMode::kNuma) return run_numa_block(f);

  const isa::Instr& instr = fetch(f);
  const isa::OpInfo& info = isa::op_info(instr.op);
  auto& delta = ctx_.delta;

  if (info.is_control || instr.op == isa::Opcode::kPrint) {
    TCFPN_CHECK(f.at_instruction_boundary(),
                "control instruction interrupted mid-thickness");
    std::uint64_t ops = 1;
    if (instr.op == isa::Opcode::kSpawn) {
      // The split copies the flow-level register state: O(R), Table 1.
      const Cycle branch = flow_branch_cost(cfg_);
      delta.branch_cost_cycles += branch;
      ops += branch + cfg_.spawn_cost;
    }
    if (cfg_.profile) {
      // Bin before exec_control mutates f.pc: one activation slot of
      // compute, plus the SPAWN branch/dispatch surcharge if any.
      prof::Key at{static_cast<std::int64_t>(f.home),
                   static_cast<std::int64_t>(f.id),
                   static_cast<std::int64_t>(f.pc), prof::Term::kCompute};
      step_bins_.emplace_back(at, 1);
      if (ops > 1) {
        at.term = prof::Term::kBranch;
        step_bins_.emplace_back(at, ops - 1);
      }
    }
    const bool still_ready = exec_control(f, instr);
    ++delta.tcf_instructions;
    ++delta.operations;
    if (still_ready) {
      // Merge (control ops don't write memory, but keep the invariant).
      complete_instruction(f, instr);
    }
    return ops;
  }

  // Data-parallel instruction: execute lanes [next_unexecuted, ...).
  const auto thickness = static_cast<std::uint64_t>(f.thickness);
  const std::uint64_t start = f.next_unexecuted;
  TCFPN_CHECK(start < thickness, "resume point beyond thickness");
  const std::uint64_t count = std::min(op_quota, thickness - start);
  exec_lanes(f, instr, start, count);
  const std::uint64_t cost = count + operand_penalty_range(start, count);
  if (cfg_.profile) {
    // One compute slot per lane; whatever the operand-storage model added
    // on top is itemized under its own term (operand spills vs NUMA local
    // memory), so hotspot rows show *why* a pc is expensive.
    prof::Key at{static_cast<std::int64_t>(f.home),
                 static_cast<std::int64_t>(f.id),
                 static_cast<std::int64_t>(f.pc), prof::Term::kCompute};
    step_bins_.emplace_back(at, count);
    if (cost > count) {
      at.term = operand_penalty_term(cfg_.operand_storage);
      step_bins_.emplace_back(at, cost - count);
    }
  }
  delta.operations += count;
  f.next_unexecuted += count;
  if (f.next_unexecuted == thickness) {
    f.next_unexecuted = 0;
    ++delta.tcf_instructions;
    complete_instruction(f, instr);
    ++f.pc;
  }
  return cost;
}

Cycle Machine::operand_penalty_range(LaneId start, std::uint64_t count) const {
  // Section 3.3: where do a thick instruction's lane-private intermediate
  // results live? The choice prices every lane operation. The price only
  // depends on whether a lane index clears the cache boundary, so a whole
  // lane range prices in O(1).
  switch (cfg_.operand_storage) {
    case OperandStorage::kCachedRegisterFile: {
      // The first register_cache_words/R lanes hit the physical register
      // cache; the rest spill to local memory per access.
      const std::uint64_t cached =
          cfg_.register_cache_words /
          std::max<std::uint32_t>(cfg_.registers_per_context, 1);
      const std::uint64_t end = start + count;
      const std::uint64_t spilled =
          end > cached ? end - std::max<std::uint64_t>(start, cached) : 0;
      return spilled * cfg_.register_spill_penalty;
    }
    case OperandStorage::kMemoryToMemory:
      // Operand fetch and writeback both go through memory.
      return 2 * count;
    case OperandStorage::kLocalMemory:
      return cfg_.local_latency * count;
  }
  TCFPN_FAULT("unknown operand storage model");
}

void Machine::exec_lanes(TcfDescriptor& f, const isa::Instr& instr,
                         std::uint64_t start, std::uint64_t count) {
  using isa::Opcode;
  LaneFile& lf = f.lane_regs;
  const Word* a = lf.bank(instr.ra);
  const Word* b = instr.use_imm() ? nullptr : lf.bank(instr.rb);
  const Word imm = instr.imm;
  // A divide completes the lanes before its first zero divisor and then
  // faults, even when rd is r0; every other op completes all of them. The
  // bound is const so the sweeps below keep it in a register.
  const bool divide = instr.op == Opcode::kDiv || instr.op == Opcode::kMod;
  const std::uint64_t end =
      start + (divide ? lanes_before_zero(b, imm, start, count) : count);
  // r0 writes are discarded; bank(0) must stay zero.
  Word* dst = instr.rd != 0 ? lf.bank(instr.rd) : nullptr;
  auto fill = [&](Word v) {
    if (dst == nullptr) return;
    for (std::uint64_t l = start; l < end; ++l) dst[l] = v;
  };
  // Two-operand sweep over contiguous banks: the per-lane loop has no
  // cross-lane dependence, so it vectorizes.
  auto sweep = [&](auto op2) {
    if (dst == nullptr) return;
    if (b == nullptr) {
      for (std::uint64_t l = start; l < end; ++l) dst[l] = op2(a[l], imm);
    } else {
      for (std::uint64_t l = start; l < end; ++l) dst[l] = op2(a[l], b[l]);
    }
  };
  const auto u = [](Word w) { return static_cast<std::uint64_t>(w); };
  switch (instr.op) {
    case Opcode::kNop:
      return;
    case Opcode::kLd:
    case Opcode::kSt:
      exec_shared_lanes(f, instr, start, count);
      return;
    // Local memory and the multioperations run lane by lane in lane order:
    // on a bad address at lane k, lanes before k have had their effects.
    case Opcode::kLld:
      for (std::uint64_t l = start; l < end; ++l) {
        const Addr ea = effective_addr(f, instr, l);
        ++ctx_.lanes[kLocalReads];
        lf.set(l, instr.rd, locals_[f.home].read(ea));
      }
      return;
    case Opcode::kLst:
      for (std::uint64_t l = start; l < end; ++l) {
        const Addr ea = effective_addr(f, instr, l);
        ++ctx_.lanes[kLocalWrites];
        locals_[f.home].write(ea, lf.get(l, instr.rb));
      }
      return;
    case Opcode::kMpAdd:
    case Opcode::kMpMax:
    case Opcode::kMpMin:
    case Opcode::kMpAnd:
    case Opcode::kMpOr:
    case Opcode::kPpAdd:
    case Opcode::kPpMax:
    case Opcode::kPpMin:
    case Opcode::kPpAnd:
    case Opcode::kPpOr: {
      const bool prefix = instr.op >= Opcode::kPpAdd;
      const auto op = static_cast<mem::MultiOp>(
          static_cast<int>(instr.op) -
          static_cast<int>(prefix ? Opcode::kPpAdd : Opcode::kMpAdd));
      for (std::uint64_t l = start; l < end; ++l) {
        const Addr ea = effective_addr(f, instr, l);
        const Word v = lf.get(l, instr.rb);
        note_ref(f.home, shared_.module_of(ea));
        if (prefix) {
          ++ctx_.lanes[kPrefixContributions];
          // Tickets are issued in group order, the order commit_step
          // numbers the results in.
          pending_prefixes_.push_back(PendingPrefix{
              f.id, l, instr.rd,
              shared_.multiprefix(ea, op, v, lane_key(f.id, l))});
        } else {
          ++ctx_.lanes[kMultiopContributions];
          shared_.multiop(ea, op, v, lane_key(f.id, l));
        }
        f.multiop_blocked = true;
      }
      return;
    }
    case Opcode::kLdi:
      fill(imm);
      return;
    case Opcode::kTid:
      if (dst == nullptr) return;
      for (std::uint64_t l = start; l < end; ++l) {
        dst[l] = static_cast<Word>(l);
      }
      return;
    case Opcode::kFid:
      fill(static_cast<Word>(f.id));
      return;
    case Opcode::kThick:
      fill(f.mode == FlowMode::kPram ? f.thickness : 1);
      return;
    case Opcode::kGid:
      fill(static_cast<Word>(f.home));
      return;
    // The ALU: wrapping 64-bit arithmetic, shift amounts masked to 0..63,
    // truncating divides with INT64_MIN / -1 wrapping to INT64_MIN (and
    // its remainder 0).
    case Opcode::kAdd:
      sweep([u](Word x, Word y) { return static_cast<Word>(u(x) + u(y)); });
      return;
    case Opcode::kSub:
      sweep([u](Word x, Word y) { return static_cast<Word>(u(x) - u(y)); });
      return;
    case Opcode::kMul:
      sweep([u](Word x, Word y) { return static_cast<Word>(u(x) * u(y)); });
      return;
    case Opcode::kDiv:
      sweep([u](Word x, Word y) {
        return y == -1 ? static_cast<Word>(0 - u(x)) : x / y;
      });
      break;
    case Opcode::kMod:
      sweep([](Word x, Word y) { return y == -1 ? Word{0} : x % y; });
      break;
    case Opcode::kAnd:
      sweep([](Word x, Word y) { return x & y; });
      return;
    case Opcode::kOr:
      sweep([](Word x, Word y) { return x | y; });
      return;
    case Opcode::kXor:
      sweep([](Word x, Word y) { return x ^ y; });
      return;
    case Opcode::kShl:
      sweep([u](Word x, Word y) {
        return static_cast<Word>(u(x) << (u(y) & 63));
      });
      return;
    case Opcode::kShr:
      sweep([u](Word x, Word y) {
        return static_cast<Word>(u(x) >> (u(y) & 63));
      });
      return;
    case Opcode::kSlt:
      sweep([](Word x, Word y) { return Word{x < y ? 1 : 0}; });
      return;
    case Opcode::kSle:
      sweep([](Word x, Word y) { return Word{x <= y ? 1 : 0}; });
      return;
    case Opcode::kSeq:
      sweep([](Word x, Word y) { return Word{x == y ? 1 : 0}; });
      return;
    case Opcode::kSne:
      sweep([](Word x, Word y) { return Word{x != y ? 1 : 0}; });
      return;
    case Opcode::kMax:
      sweep([](Word x, Word y) { return std::max(x, y); });
      return;
    case Opcode::kMin:
      sweep([](Word x, Word y) { return std::min(x, y); });
      return;
    default:
      TCFPN_CHECK(false, isa::op_info(instr.op).mnemonic,
                  " is not a data instruction");
  }
  // Only a divide gets here.
  if (end < start + count) {
    TCFPN_FAULT(instr.op == Opcode::kDiv ? "division by zero"
                                         : "modulo by zero");
  }
}

void Machine::exec_shared_lanes(TcfDescriptor& f, const isa::Instr& instr,
                                std::uint64_t start, std::uint64_t count) {
  const bool load = instr.op == isa::Opcode::kLd;
  LaneFile& lf = f.lane_regs;

  // Pass 1: every effective address of the run, and whether they are the
  // unit stride a0, a0 + 1, .... A negative address reads as >= 2^63
  // unsigned, so one compare against the memory size catches both kinds of
  // bad address.
  if (lane_addrs_.size() < count) lane_addrs_.resize(count);
  Addr* ea = lane_addrs_.data();
  const Word* base = lf.bank(instr.ra) + start;
  const Addr words = shared_.size();
  const Addr a0 =
      count > 0 ? static_cast<Addr>(effective_word(base[0], instr, start)) : 0;
  bool bad = false;
  bool unit = true;
  for (std::uint64_t i = 0; i < count; ++i) {
    ea[i] = static_cast<Addr>(effective_word(base[i], instr, start + i));
    bad |= ea[i] >= words;
    unit &= ea[i] == a0 + i;
  }
  // Lanes before the first bad one execute, exactly as the lane-by-lane
  // order would have run them before faulting.
  const std::uint64_t n =
      bad ? static_cast<std::uint64_t>(
                std::find_if(ea, ea + count,
                             [words](Addr a) { return a >= words; }) -
                ea)
          : count;
  // The memory path's format is chosen here, once per run: a one-lane run
  // (a NUMA block, a thickness-1 flow) is cheaper as a record than as a
  // unit run.
  const mem::LaneRun run{ea, n, lane_key(f.id, start), unit && !bad && n > 1};

  // Pass 2: the network term and the run's per-module histogram.
  note_ref_run(f.home, run);
  const std::uint64_t* per_module = run_modules_.data();
  if (load) {
    Word* dst = instr.rd != 0 ? lf.bank(instr.rd) + start : nullptr;
    if (f.step_writes.empty()) {
      shared_.read_run(run, per_module, dst);
      ctx_.lanes[kSharedReads] += n;
    } else {
      // Store forwarding: the flow sees its own *completed* writes of this
      // step; everything else is the pre-step committed state. A forwarded
      // value still counts as a memory reference for the network term (but
      // not as shared-memory traffic — the value never left the group).
      for (std::uint64_t i = 0; i < n; ++i) {
        Word v;
        if (const Word* w = f.step_writes.find(ea[i])) {
          ++ctx_.lanes[kStoreForwards];
          v = *w;
        } else {
          ++ctx_.lanes[kSharedReads];
          v = shared_.read(ea[i], run.lane0 + i);
        }
        if (dst != nullptr) dst[i] = v;
      }
    }
  } else {
    const Word* value = lf.bank(instr.rb) + start;
    shared_.write_run(run, value, per_module);
    f.instr_writes.put_run(run, value);
    ctx_.lanes[kSharedWrites] += n;
  }
  std::fill(run_modules_.begin(), run_modules_.end(), 0);

  if (n < count) {
    const Word bad_ea = static_cast<Word>(ea[n]);
    if (bad_ea < 0) {
      TCFPN_FAULT("negative effective address ", bad_ea, " in flow ", f.id);
    }
    shared_.check_addr(ea[n]);
  }
}

std::uint64_t Machine::run_numa_block(TcfDescriptor& f) {
  // NUMA mode (thickness "1/L"): L consecutive instructions of a single
  // sequential stream per step; each instruction is fetched separately —
  // that asymmetry is the "Fetches per TCF" row of Table 1.
  std::uint64_t executed = 0;
  std::uint64_t branch_ops = 0;
  const auto pc0 = static_cast<std::int64_t>(f.pc);
  auto& delta = ctx_.delta;
  while (executed < f.numa_block && f.status == FlowStatus::kReady &&
         !f.multiop_blocked) {
    const isa::Instr& instr = fetch(f);
    const isa::OpInfo& info = isa::op_info(instr.op);
    ++executed;
    ++delta.operations;
    ++delta.tcf_instructions;
    if (info.is_control || instr.op == isa::Opcode::kPrint) {
      if (instr.op == isa::Opcode::kSpawn) {
        const Cycle branch = flow_branch_cost(cfg_);
        delta.branch_cost_cycles += branch;
        executed += branch + cfg_.spawn_cost;
        branch_ops += branch + cfg_.spawn_cost;
      }
      if (!exec_control(f, instr)) break;
      complete_instruction(f, instr);
    } else {
      exec_lanes(f, instr, 0, 1);
      complete_instruction(f, instr);
      ++f.pc;
    }
  }
  if (cfg_.profile && executed > 0) {
    // The whole block bins at its start pc — a NUMA bunch is one scheduling
    // unit, and per-instruction binning would cost a bin per instruction.
    prof::Key at{static_cast<std::int64_t>(f.home),
                 static_cast<std::int64_t>(f.id), pc0, prof::Term::kCompute};
    step_bins_.emplace_back(at, executed - branch_ops);
    if (branch_ops > 0) {
      at.term = prof::Term::kBranch;
      step_bins_.emplace_back(at, branch_ops);
    }
  }
  return executed;
}

const isa::Instr& Machine::fetch(TcfDescriptor& f) {
  if (f.pc >= program_.code.size()) {
    TCFPN_FAULT("flow ", f.id, " ran off the end of the program (pc=", f.pc,
                ")");
  }
  // Every activation — first execution or balanced-variant resume — costs
  // one instruction-memory fetch. PRAM-mode flows therefore fetch once per
  // TCF instruction regardless of thickness; NUMA streams fetch per
  // instruction; interrupted instructions re-fetch on resume.
  ++ctx_.delta.instruction_fetches;
  return program_.code[f.pc];
}

Addr Machine::effective_addr(const TcfDescriptor& f, const isa::Instr& instr,
                             LaneId lane) const {
  const Word ea = effective_word(f.lane_regs.get(lane, instr.ra), instr, lane);
  if (ea < 0) {
    TCFPN_FAULT("negative effective address ", ea, " in flow ", f.id);
  }
  return static_cast<Addr>(ea);
}

void Machine::note_ref(GroupId src, std::uint32_t module) {
  if (cfg_.detailed_network) {
    // The detailed router is injection-order sensitive: keep the full
    // per-reference sequence (group by group, flows in resident order) for
    // memory_term's replay.
    step_refs_.emplace_back(src, module);
    return;
  }
  // Analytic bound: module load counts and the wire-distance maximum are
  // order-insensitive, so they aggregate as the groups execute and
  // memory_term never walks the references.
  ++net_loads_[module];
  ++net_refs_;
  net_max_dist_ =
      std::max(net_max_dist_, dist_cache_[src][module % cfg_.groups]);
}

void Machine::note_ref_run(GroupId src, const mem::LaneRun& run) {
  std::uint64_t* per_module = run_modules_.data();
  if (cfg_.detailed_network) {
    for (std::size_t i = 0; i < run.n; ++i) {
      const std::uint32_t m = shared_.module_of(run.addr[i]);
      ++per_module[m];
      step_refs_.emplace_back(src, m);
    }
    return;
  }
  shared_.count_modules(run, per_module);
  // The same aggregates note_ref keeps, added once per module.
  for (std::uint32_t m = 0; m < run_modules_.size(); ++m) {
    if (per_module[m] == 0) continue;
    net_loads_[m] += per_module[m];
    net_max_dist_ =
        std::max(net_max_dist_, dist_cache_[src][m % cfg_.groups]);
  }
  net_refs_ += run.n;
}

std::size_t Machine::branch_target(const TcfDescriptor& f,
                                   std::int32_t imm) const {
  if (imm < 0 || static_cast<std::size_t>(imm) > program_.code.size()) {
    TCFPN_FAULT("branch target ", imm, " out of range in flow ", f.id);
  }
  return static_cast<std::size_t>(imm);
}

bool Machine::exec_control(TcfDescriptor& f, const isa::Instr& instr) {
  using isa::Opcode;
  switch (instr.op) {
    case Opcode::kJmp:
      f.pc = branch_target(f, instr.imm);
      return true;
    case Opcode::kBeqz:
    case Opcode::kBnez: {
      // The whole flow takes exactly one path through a control statement
      // (Section 2.2); a divergent condition is a program fault.
      const Word head = f.lane_regs.get(0, instr.ra);
      if (f.mode == FlowMode::kPram && instr.ra != 0) {
        const Word* b = f.lane_regs.bank(instr.ra);
        const bool head_zero = head == 0;
        for (std::size_t l = 0, n = f.lane_regs.lanes(); l < n; ++l) {
          if ((b[l] == 0) != head_zero) {
            TCFPN_FAULT("divergent branch condition in flow ", f.id,
                        ": use parallel{} to split the flow");
          }
        }
      }
      const bool taken =
          (instr.op == Opcode::kBeqz) ? (head == 0) : (head != 0);
      f.pc = taken ? branch_target(f, instr.imm) : f.pc + 1;
      return true;
    }
    case Opcode::kCall:
      f.call_stack.push_back(f.pc + 1);
      f.pc = branch_target(f, instr.imm);
      return true;
    case Opcode::kRet:
      if (f.call_stack.empty()) {
        TCFPN_FAULT("RET with empty call stack in flow ", f.id);
      }
      f.pc = f.call_stack.back();
      f.call_stack.pop_back();
      return true;
    case Opcode::kHalt:
      halt_in_step(f);
      return false;
    case Opcode::kSetThick: {
      const Word t =
          instr.use_imm() ? instr.imm : f.lane_regs.get(0, instr.ra);
      if (t < 0) TCFPN_FAULT("negative thickness ", t, " in flow ", f.id);
      switch (cfg_.variant) {
        case Variant::kSingleOperation:
        case Variant::kConfigSingleOperation:
          if (t != 1) {
            TCFPN_FAULT(to_string(cfg_.variant),
                        " variant has fixed thickness 1 (got SETTHICK ", t,
                        "); use loops over the thread set");
          }
          break;
        case Variant::kFixedThickness:
          if (t != f.thickness) {
            TCFPN_FAULT("fixed-thickness variant cannot change thickness");
          }
          break;
        default:
          break;
      }
      if (t == 0) {
        // "If the thickness is set to zero then the processor does not
        // execute anything" — the flow is over.
        halt_in_step(f);
        return false;
      }
      emit(DebugEventKind::kThicknessChanged, f, f.thickness, t);
      f.lane_regs.resize_fill_from_lane0(static_cast<std::size_t>(t));
      f.thickness = t;
      f.mode = FlowMode::kPram;
      f.pc += 1;
      return true;
    }
    case Opcode::kNumaSet: {
      const auto l = instr.imm;
      if (l < 0) TCFPN_FAULT("negative NUMA block length ", l);
      if (l == 0) {
        f.mode = FlowMode::kPram;
        f.pc += 1;
        return true;
      }
      switch (cfg_.variant) {
        case Variant::kSingleOperation:
          TCFPN_FAULT("single-operation variant has no NUMA support");
        case Variant::kMultiInstruction:
          TCFPN_FAULT("multi-instruction variant drops NUMA support");
        default:
          break;  // fixed-thickness: modelled as the scalar unit
      }
      f.mode = FlowMode::kNuma;
      f.numa_block = static_cast<std::uint32_t>(l);
      f.thickness = 1;
      f.lane_regs.resize_fill_from_lane0(1);
      f.pc += 1;
      return true;
    }
    case Opcode::kSpawn: {
      if (cfg_.variant == Variant::kFixedThickness) {
        TCFPN_FAULT("fixed-thickness (SIMD) variant has no control "
                    "parallelism: SPAWN is unavailable");
      }
      const Word t = f.lane_regs.get(0, instr.ra);
      if (t < 0) TCFPN_FAULT("negative spawn thickness ", t);
      if ((cfg_.variant == Variant::kSingleOperation ||
           cfg_.variant == Variant::kConfigSingleOperation) &&
          t > 1) {
        TCFPN_FAULT(to_string(cfg_.variant),
                    " variant spawns threads of thickness 1 only");
      }
      ++ctx_.delta.spawns;
      if (t > 0) {
        const std::size_t entry = branch_target(f, instr.imm);
        std::vector<Word> fragments{t};
        if (splitter_) {
          fragments = splitter_(t);
          Word total = 0;
          for (Word part : fragments) {
            TCFPN_CHECK(part > 0, "spawn splitter returned an empty fragment");
            total += part;
          }
          TCFPN_CHECK(total == t, "spawn splitter fragments sum to ", total,
                      ", expected ", t);
        }
        // The children are created in the deferred pass (merge_deferred)
        // so that flow ids and group placement follow group order; the
        // parent's live-children counter rises now so a same-step JOINALL
        // already sees them.
        f.live_children += static_cast<std::uint32_t>(fragments.size());
        emit(DebugEventKind::kSpawn, f, t,
             static_cast<Word>(fragments.size()));
        step_spawns_.push_back(SpawnRequest{
            f.id, entry, std::move(fragments), f.lane_regs.snapshot(0)});
      }
      f.pc += 1;
      return true;
    }
    case Opcode::kJoinAll:
      f.pc += 1;
      emit(DebugEventKind::kJoin, f, static_cast<Word>(f.live_children));
      if (f.live_children > 0) {
        f.status = FlowStatus::kWaitingJoin;
        return false;
      }
      ++ctx_.delta.joins;
      return true;
    case Opcode::kPrint: {
      const Word v =
          instr.use_imm() ? instr.imm : f.lane_regs.get(0, instr.ra);
      ctx_.prints.push_back(v);
      emit(DebugEventKind::kPrint, f, v);
      f.pc += 1;
      return true;
    }
    default:
      TCFPN_FAULT("exec_control() called with non-control opcode");
  }
}

void Machine::complete_instruction(TcfDescriptor& f,
                                   const isa::Instr& /*instr*/) {
  if (!f.instr_writes.empty()) f.step_writes.absorb(f.instr_writes);
}

void Machine::memory_term(prof::StepRecord& r) {
  // Injected link faults (retried drops, delayed replies) extend this
  // step's memory term even when the step itself issued no references —
  // the stalled reply still has to arrive before the next step. Kept
  // separate from the network bound so the profiler can itemize kFault.
  r.fault = net_->consume_fault_delay();
  if (cfg_.detailed_network) {
    if (step_refs_.empty()) return;
    for (const auto& [src, module] : step_refs_) {
      net_->inject(src, module % cfg_.groups);
    }
    r.net = net_->drain();
    return;
  }
  // Analytic bound from the aggregates the groups summed as they executed
  // (note_ref, note_ref_run) — no per-reference walk here.
  if (net_refs_ == 0) return;
  std::uint64_t hottest = 0;
  for (std::uint64_t l : net_loads_) hottest = std::max(hottest, l);
  sc_.hot_module_load->add(static_cast<double>(hottest));
  sc_.wire_distance->add(net_max_dist_);
  r.net = net_->latency_bound(net_loads_, net_max_dist_);
  std::fill(net_loads_.begin(), net_loads_.end(), 0);
  net_refs_ = 0;
  net_max_dist_ = 0;
}

void Machine::profile_step(const prof::StepRecord& r) {
  using prof::kNoIndex;
  using prof::Term;
  // Pipeline fill is a per-step machine cost, attributable to nobody.
  profile_.add({kNoIndex, kNoIndex, kNoIndex, Term::kFill}, r.fill);
  // The slot term distributes over the bins the groups recorded this step;
  // the idle remainder is barrier wait.
  fold_bins(step_bins_);
  profile_.add_over_bins(r.slot, step_bins_);
  // Memory extension beyond the slot term: network first, then whatever the
  // injected fault delay added on top, so fill + slot + net + fault ==
  // step_cost(r), the cycles just charged.
  const Cycle c1 = std::max(r.slot, r.net);
  profile_.add({kNoIndex, kNoIndex, kNoIndex, Term::kNet}, c1 - r.slot);
  profile_.add({kNoIndex, kNoIndex, kNoIndex, Term::kFault},
               prof::step_cost(r) - r.fill - c1);
  profile_.record_step(r);
}

void Machine::finish_step() {
  double t0 = cfg_.profile_host ? host_clock_us() : 0;
  shared_.commit_step();
  // Multiprefix results materialise at commit; deliver them to lanes.
  for (const auto& p : pending_prefixes_) {
    TcfDescriptor& f = flow(p.flow);
    if (p.rd != 0 && p.lane < f.lane_regs.lanes()) {
      f.lane_regs.set(p.lane, p.rd, shared_.prefix_result(p.ticket));
    }
  }
  pending_prefixes_.clear();
  if (cfg_.profile_host) {
    host_span("mem/commit_step", t0);
    t0 = host_clock_us();
  }

  prof::StepRecord r{stats_.steps, prof::kNoIndex, step_fill_};
  memory_term(r);
  if (cfg_.profile_host) {
    host_span("net/memory_term", t0);
    t0 = host_clock_us();
  }
  step_refs_.clear();

  // One pass over the alive groups (retired ones carry no slot term and no
  // capacity, DESIGN.md §9): the variant slot term (DESIGN.md §4 item 3),
  // the step's work, the limiting group (the most work, ties to the lowest
  // group) and how full the TCF buffers ran. ILP co-execution issues
  // `functional_units` operations per group per cycle; on a heterogeneous
  // shape each group also divides by its clock multiplier — a 3x group
  // retires 3 operations per base-clock cycle — in one exact ceiling
  // division ceil(term * den / (num * fu)). num = den = 1 reduces to the
  // uniform ceil(term / fu) bit-for-bit.
  const Cycle fu = std::max<std::uint32_t>(cfg_.functional_units, 1);
  Cycle most = 0;
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    if (!group_alive(g)) continue;
    const auto& grp = groups_[g];
    const Cycle work = grp.step_ops;
    Cycle term = 0;
    switch (cfg_.variant) {
      case Variant::kSingleInstruction:
      case Variant::kFixedThickness:
        term = work;
        break;
      case Variant::kBalanced:
        term = cfg_.balanced_bound;
        break;
      case Variant::kSingleOperation:
      case Variant::kConfigSingleOperation:
        term = cfg_.group_slots(g);  // fixed interleaved pipeline
        break;
      case Variant::kMultiInstruction:
        TCFPN_FAULT("multi-instruction variant in synchronous stepper");
    }
    const Cycle num = cfg_.group_clock_num(g);
    const Cycle den = cfg_.group_clock_den(g);
    r.slot = std::max(r.slot, (term * den + num * fu - 1) / (num * fu));
    r.work += work;
    if (r.limit_group == prof::kNoIndex || work > most) {
      r.limit_group = static_cast<std::int64_t>(g);
      most = work;
    }
    sc_.slot_occupancy->add(static_cast<double>(grp.resident.size()));
    sc_.overflow_depth->add(static_cast<double>(grp.overflow.size()));
  }

  const Cycle cost = prof::step_cost(r);
  const Cycle body = cost - r.fill;
  const Cycle wait = body - r.slot;  // the memory term's extension, if any
  stats_.cycles += cost;
  ++stats_.steps;
  stats_.memory_wait_cycles += wait;
  stats_.busy_slots += r.work;
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    if (!group_alive(g)) continue;  // degraded P-1 capacity (DESIGN.md §9)
    stats_.idle_slots += body - std::min<Cycle>(body, groups_[g].step_ops);
  }
  // Cost-category accounting: where the step's cycles went, one counter per
  // term of the cost model.
  sc_.pipeline_fill_cycles->add(r.fill);
  sc_.slot_term_cycles->add(r.slot);
  sc_.memory_term_cycles->add(r.net + r.fault);
  sc_.memory_wait_cycles->add(wait);
  if (cfg_.profile) profile_step(r);
  step_bins_.clear();

  // Step-boundary housekeeping: forwarding buffers, multiop blocks, wakes,
  // buffer cleanup, freshly spawned flows. Walks the group lists instead of
  // every flow ever created — long-halted flows need no housekeeping, and
  // flows that halted *this* step are still listed (the erase below runs
  // after). Freshly spawned flows are not listed yet but are born clean.
  auto housekeep = [&](FlowId id) {
    TcfDescriptor& f = *flows_[id];
    f.step_writes.clear();
    f.multiop_blocked = false;
    if (f.status == FlowStatus::kWaitingJoin && f.live_children == 0) {
      f.status = FlowStatus::kReady;
      ++stats_.joins;
    }
  };
  for (auto& grp : groups_) {
    for (FlowId id : grp.resident) housekeep(id);
    for (FlowId id : grp.overflow) housekeep(id);
    std::erase_if(grp.resident, [&](FlowId id) {
      return flows_[id]->status == FlowStatus::kHalted;
    });
    std::erase_if(grp.overflow, [&](FlowId id) {
      return flows_[id]->status == FlowStatus::kHalted;
    });
  }
  admit_pending_spawns();
  maybe_sample_step();
  if (cfg_.profile_host) host_span("sched/step_housekeeping", t0);
  notify_step_committed();
}

void Machine::notify_step_committed() {
  if (observer_ == nullptr) return;
  // stats_.steps already advanced; the event names the step just committed.
  observer_->on_event(DebugEvent{DebugEventKind::kStepCommitted,
                                 stats_.steps - 1, kNoFlow, 0,
                                 static_cast<Word>(stats_.cycles), 0});
  observer_->on_step(*this);
}

// --------------------------------------------------------------------------
// Multi-instruction (XMT-style) variant
// --------------------------------------------------------------------------

std::uint64_t Machine::run_lane_to_event(TcfDescriptor& f, LaneId lane,
                                         std::size_t& lane_pc, bool& halted,
                                         bool& wants_join) {
  using isa::Opcode;
  std::uint64_t ops = 0;
  std::vector<std::size_t> stack;
  auto& lf = f.lane_regs;
  auto rget = [&](std::uint8_t r) { return lf.get(lane, r); };
  auto write_reg = [&](std::uint8_t r, Word v) { lf.set(lane, r, v); };
  halted = false;
  wants_join = false;
  while (true) {
    if (lane_pc >= program_.code.size()) {
      TCFPN_FAULT("lane ", lane, " of flow ", f.id,
                  " ran off the end of the program");
    }
    const isa::Instr& instr = program_.code[lane_pc];
    ++stats_.instruction_fetches;  // every thread fetches every instruction
    ++ops;
    if (ops > kLaneOpGuard) {
      TCFPN_FAULT("runaway lane (>", kLaneOpGuard, " ops) in flow ", f.id);
    }
    auto ea = [&]() {
      const Word a = effective_word(rget(instr.ra), instr, lane);
      if (a < 0) TCFPN_FAULT("negative effective address in flow ", f.id);
      return static_cast<Addr>(a);
    };
    switch (instr.op) {
      case Opcode::kJmp:
        lane_pc = branch_target(f, instr.imm);
        continue;
      case Opcode::kBeqz:
      case Opcode::kBnez: {
        const Word v = rget(instr.ra);
        const bool taken = instr.op == Opcode::kBeqz ? v == 0 : v != 0;
        lane_pc = taken ? branch_target(f, instr.imm) : lane_pc + 1;
        continue;
      }
      case Opcode::kCall:
        stack.push_back(lane_pc + 1);
        lane_pc = branch_target(f, instr.imm);
        continue;
      case Opcode::kRet:
        if (stack.empty()) {
          TCFPN_FAULT("RET with empty call stack in flow ", f.id);
        }
        lane_pc = stack.back();
        stack.pop_back();
        continue;
      case Opcode::kHalt:
        halted = true;
        return ops;
      case Opcode::kJoinAll:
        wants_join = true;
        ++lane_pc;
        return ops;
      case Opcode::kSpawn: {
        const Word t = rget(instr.ra);
        if (t < 0) TCFPN_FAULT("negative spawn thickness ", t);
        ++stats_.spawns;
        stats_.branch_cost_cycles += 1;  // XMT fork: O(1) enqueue
        if (t > 0) {
          TcfDescriptor& child =
              make_flow(branch_target(f, instr.imm), t, 0, f.id);
          child.home = pick_group(child);
          child.lane_regs.assign(child.lane_regs.lanes(), lf.snapshot(lane));
          ++f.live_children;
          emit_now(DebugEventKind::kSpawn, f.id, f.home, t, 1);
          emit_now(DebugEventKind::kFlowCreated, child.id, child.home, t,
                   static_cast<Word>(f.id));
          pending_spawns_.push_back(child.id);
        }
        ++lane_pc;
        continue;
      }
      case Opcode::kSetThick:
        TCFPN_FAULT("SETTHICK on a running flow is not available in the "
                    "multi-instruction variant: thickness is set at fork");
      case Opcode::kNumaSet:
        TCFPN_FAULT("multi-instruction variant drops NUMA support");
      case Opcode::kLd:
        gm_[kSharedReads]->add();
        write_reg(instr.rd, shared_.peek(ea()));
        ++lane_pc;
        continue;
      case Opcode::kSt:
        gm_[kSharedWrites]->add();
        shared_.poke(ea(), rget(instr.rb));
        ++lane_pc;
        continue;
      case Opcode::kLld:
        gm_[kLocalReads]->add();
        write_reg(instr.rd, locals_[f.home].read(ea()));
        ++lane_pc;
        continue;
      case Opcode::kLst:
        gm_[kLocalWrites]->add();
        locals_[f.home].write(ea(), rget(instr.rb));
        ++lane_pc;
        continue;
      case Opcode::kMpAdd:
      case Opcode::kMpMax:
      case Opcode::kMpMin:
      case Opcode::kMpAnd:
      case Opcode::kMpOr: {
        // Immediate fetch-and-op (XMT-style atomic): one legal asynchronous
        // interleaving, serialised by simulation order.
        gm_[kMultiopContributions]->add();
        const Addr a = ea();
        const auto op = static_cast<mem::MultiOp>(
            static_cast<int>(instr.op) - static_cast<int>(Opcode::kMpAdd));
        shared_.poke(a, mem::apply_multiop(op, shared_.peek(a),
                                           rget(instr.rb)));
        ++lane_pc;
        continue;
      }
      case Opcode::kPpAdd:
      case Opcode::kPpMax:
      case Opcode::kPpMin:
      case Opcode::kPpAnd:
      case Opcode::kPpOr: {
        gm_[kPrefixContributions]->add();
        const Addr a = ea();
        const auto op = static_cast<mem::MultiOp>(
            static_cast<int>(instr.op) - static_cast<int>(Opcode::kPpAdd));
        const Word old = shared_.peek(a);
        // Read the contribution before delivering the prefix result: with
        // rd == rb the result write must not clobber the contribution.
        const Word contribution = rget(instr.rb);
        write_reg(instr.rd, old);
        shared_.poke(a, mem::apply_multiop(op, old, contribution));
        ++lane_pc;
        continue;
      }
      case Opcode::kPrint:
        if (lane == 0) {
          const Word v = instr.use_imm() ? instr.imm : rget(instr.ra);
          debug_out_.push_back(v);
          emit_now(DebugEventKind::kPrint, f.id, f.home, v);
        }
        ++lane_pc;
        continue;
      default:
        // LDI, TID, FID, THICK, GID, NOP and the ALU touch only this lane's
        // registers: the one data path, at this one lane.
        exec_lanes(f, instr, lane, 1);
        ++lane_pc;
        continue;
    }
  }
}

bool Machine::step_multi_instruction() {
  // One "phase": every ready flow's lanes run asynchronously to their next
  // event (HALT or JOINALL); the phase costs ceil(total ops / thread units).
  std::vector<FlowId> ready;
  for (const auto& fp : flows_) {
    if (fp->status == FlowStatus::kReady) ready.push_back(fp->id);
  }
  if (ready.empty()) return false;

  const double t0 = cfg_.profile_host ? host_clock_us() : 0;
  std::uint64_t total_ops = 0;
  // Per-flow attribution bins for this phase (cfg.profile): each flow's
  // lane operations bin at the pc the phase started from; the phase cycles
  // are then apportioned over the bins below.
  std::vector<std::pair<prof::Key, Cycle>> xbins;
  std::int64_t limit_group = prof::kNoIndex;
  std::uint64_t best_ops = 0;
  for (FlowId id : ready) {
    TcfDescriptor& f = flow(id);
    const auto pc0 = static_cast<std::int64_t>(f.pc);
    std::uint64_t flow_ops = 0;
    bool flow_halt = true;
    bool flow_join = false;
    std::size_t uniform_pc = 0;
    for (LaneId lane = 0;
         lane < static_cast<std::uint64_t>(f.thickness); ++lane) {
      std::size_t lane_pc = f.pc;
      bool halted = false, wants_join = false;
      flow_ops += run_lane_to_event(f, lane, lane_pc, halted, wants_join);
      if (lane == 0) {
        flow_halt = halted;
        flow_join = wants_join;
        uniform_pc = lane_pc;
      } else if (halted != flow_halt || wants_join != flow_join ||
                 lane_pc != uniform_pc) {
        TCFPN_FAULT("lanes of flow ", f.id,
                    " diverged to different events in multi-instruction "
                    "mode; join points must be uniform");
      }
    }
    total_ops += flow_ops;
    if (limit_group == prof::kNoIndex || flow_ops > best_ops) {
      limit_group = static_cast<std::int64_t>(f.home);
      best_ops = flow_ops;
    }
    if (cfg_.profile && flow_ops > 0) {
      xbins.emplace_back(
          prof::Key{static_cast<std::int64_t>(f.home),
                    static_cast<std::int64_t>(f.id), pc0,
                    prof::Term::kCompute},
          flow_ops);
    }
    if (flow_halt) {
      on_flow_halted(f);
    } else {
      TCFPN_CHECK(flow_join, "lane stopped without halt or join");
      f.pc = uniform_pc;
      emit_now(DebugEventKind::kJoin, f.id, f.home,
               static_cast<Word>(f.live_children));
      f.status = f.live_children > 0 ? FlowStatus::kWaitingJoin
                                     : FlowStatus::kReady;
      if (f.live_children == 0) ++stats_.joins;
    }
  }
  stats_.operations += total_ops;

  // P pipelines execute one operation per cycle each; the T_p thread units
  // per processor hide latency rather than multiply throughput (the same
  // capacity assumption the synchronous variants run under). Retired
  // groups no longer pipeline: degraded runs pay P-1 throughput. On a
  // heterogeneous shape each alive pipeline contributes its clock
  // multiplier to the aggregate throughput; the 16-bit fixed-point sum is
  // exact for the bounded num/den range and reduces to the uniform
  // ceil(total_ops / alive) bit-for-bit when every multiplier is 1.
  Cycle phase = 0;
  std::uint64_t units = std::max<std::uint32_t>(alive_groups(), 1);
  if (!cfg_.is_heterogeneous()) {
    phase = (total_ops + units - 1) / units;
  } else {
    std::uint64_t weight_fp = 0;  // aggregate throughput, 16.16 fixed point
    for (GroupId g = 0; g < cfg_.groups; ++g) {
      if (!group_alive(g)) continue;
      weight_fp += (static_cast<std::uint64_t>(cfg_.group_clock_num(g)) << 16) /
                   cfg_.group_clock_den(g);
    }
    if (weight_fp == 0) weight_fp = 1u << 16;
    phase = ((total_ops << 16) + weight_fp - 1) / weight_fp;
  }
  // The phase is the step's whole cost: no fill, no memory term.
  const prof::StepRecord r{stats_.steps, limit_group, /*fill=*/0, phase,
                           /*net=*/0, /*fault=*/0, total_ops};
  stats_.cycles += prof::step_cost(r);
  stats_.busy_slots += total_ops;
  // Guarded: with >1x clocks the pipelines may retire more than one op per
  // base-clock cycle, so phase * units can undershoot total_ops.
  stats_.idle_slots +=
      phase * units > total_ops ? phase * units - total_ops : 0;
  ++stats_.steps;
  metrics_.counter("machine/phase_cycles").add(phase);
  if (cfg_.profile) {
    // Apportion the phase cycles over the per-flow bins (their weights sum
    // to total_ops): with one alive group phase == total_ops (face value);
    // with more the pipelines co-execute and each flow gets its
    // proportional share.
    profile_.add_over_bins(phase, xbins);
    profile_.record_step(r);
  }

  // Wake joiners whose children have all halted; charge the join barrier.
  for (auto& fp : flows_) {
    if (fp->status == FlowStatus::kWaitingJoin && fp->live_children == 0) {
      fp->status = FlowStatus::kReady;
      stats_.cycles += cfg_.join_cost;
      ++stats_.joins;
      metrics_.counter("machine/join_cycles").add(cfg_.join_cost);
      if (cfg_.profile) {
        profile_.add({static_cast<std::int64_t>(fp->home),
                      static_cast<std::int64_t>(fp->id), prof::kNoIndex,
                      prof::Term::kSwitch},
                     cfg_.join_cost);
      }
    }
  }
  admit_pending_spawns();
  if (!pending_spawns_.empty() || !ready.empty()) {
    stats_.cycles += cfg_.spawn_cost;  // dispatch overhead per phase
    metrics_.counter("machine/spawn_cycles").add(cfg_.spawn_cost);
    if (cfg_.profile) {
      profile_.add({prof::kNoIndex, prof::kNoIndex, prof::kNoIndex,
                    prof::Term::kBranch},
                   cfg_.spawn_cost);
    }
  }
  maybe_sample_step();
  if (cfg_.profile_host) host_span("machine/xmt_phase", t0);
  notify_step_committed();
  return true;
}

// --------------------------------------------------------------------------
// Task management
// --------------------------------------------------------------------------

mem::LocalMemory& Machine::local(GroupId g) {
  TCFPN_CHECK(g < locals_.size(), "group ", g, " out of range");
  return locals_[g];
}

Cycle Machine::suspend_flow(FlowId id) {
  TcfDescriptor& f = flow(id);
  TCFPN_CHECK(f.status == FlowStatus::kReady, "can only suspend ready flows");
  f.status = FlowStatus::kSuspended;
  // The descriptor stays in the TCF buffer: for the TCF variants suspension
  // is free (Table 1); thread machines pay the full context switch.
  const bool resident =
      std::find(groups_[f.home].resident.begin(),
                groups_[f.home].resident.end(),
                id) != groups_[f.home].resident.end();
  const Cycle c = task_switch_cost(cfg_, f.thickness, resident,
                                   cfg_.group_slots(f.home));
  charge_switch(f, c, "sched/swap_out_cycles");
  metrics_.counter("sched/suspends").add();
  emit_now(DebugEventKind::kSuspend, id, f.home, static_cast<Word>(c));
  return c;
}

Cycle Machine::resume_flow(FlowId id) {
  TcfDescriptor& f = flow(id);
  TCFPN_CHECK(f.status == FlowStatus::kSuspended,
              "can only resume suspended flows");
  f.status = FlowStatus::kReady;
  auto& grp = groups_[f.home];
  bool resident =
      std::find(grp.resident.begin(), grp.resident.end(), id) !=
      grp.resident.end();
  Cycle c = 0;
  if (!resident) {
    // Make room: displace a suspended resident flow if the buffer is full.
    if (grp.resident.size() >= cfg_.group_slots(f.home)) {
      for (FlowId victim : grp.resident) {
        if (flows_[victim]->status == FlowStatus::kSuspended) {
          c += evict_flow(victim);
          break;
        }
      }
    }
    std::erase(grp.overflow, id);
    if (grp.resident.size() < cfg_.group_slots(f.home)) {
      grp.resident.push_back(id);
      resident = true;
      // Loading the descriptor and its cached lane registers back into the
      // buffer is the swap-in half of the task switch.
      c += task_switch_cost(cfg_, f.thickness, /*resident_in_buffer=*/false,
                            cfg_.group_slots(f.home));
    } else {
      grp.overflow.push_back(id);
    }
  } else {
    c += task_switch_cost(cfg_, f.thickness, /*resident_in_buffer=*/true,
                          cfg_.group_slots(f.home));
  }
  charge_switch(f, c, "sched/swap_in_cycles");
  metrics_.counter("sched/resumes").add();
  emit_now(DebugEventKind::kResume, id, f.home, static_cast<Word>(c));
  return c;
}

void Machine::charge_switch(const TcfDescriptor& f, Cycle c,
                            const char* swap_counter) {
  stats_.task_switch_cycles += c;
  stats_.cycles += c;
  if (cfg_.profile) {
    profile_.add({static_cast<std::int64_t>(f.home),
                  static_cast<std::int64_t>(f.id), prof::kNoIndex,
                  prof::Term::kSwitch},
                 c);
  }
  metrics_.counter(swap_counter).add(c);
}

Cycle Machine::evict_flow(FlowId id) {
  TcfDescriptor& f = flow(id);
  auto& grp = groups_[f.home];
  const auto it = std::find(grp.resident.begin(), grp.resident.end(), id);
  TCFPN_CHECK(it != grp.resident.end(), "evicting a non-resident flow");
  grp.resident.erase(it);
  grp.overflow.push_back(id);
  f.evicted_once = true;
  const Cycle c = task_switch_cost(cfg_, f.thickness,
                                   /*resident_in_buffer=*/false,
                                   cfg_.group_slots(f.home));
  stats_.task_switch_cycles += c;
  metrics_.counter("sched/evictions").add();
  metrics_.counter("sched/swap_out_cycles").add(c);
  emit_now(DebugEventKind::kEvict, id, f.home, static_cast<Word>(c));
  return c;
}

}  // namespace tcfpn::machine
