#include "machine/machine.hpp"

#include <algorithm>
#include <cstdio>
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

constexpr std::uint64_t kUnlimited = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kLaneOpGuard = 4'000'000;  // runaway-lane guard (XMT)

// Host-profiling span cap: a span is ~50 bytes, so this bounds the buffer at
// a few tens of MB even for million-step runs.
constexpr std::size_t kMaxHostSpans = 1u << 20;

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
    case DebugEventKind::kShardFault: return "shard_fault";
    case DebugEventKind::kShardRestart: return "shard_restart";
    case DebugEventKind::kShardRetired: return "shard_retired";
  }
  return "?";
}

void Machine::emit(GroupCtx& ctx, DebugEventKind kind, const TcfDescriptor& f,
                   Word a, Word b) {
  // Sharded stepping captures events unconditionally: the replica executing
  // this group is in general not the one with the journaling observer, so
  // the events must travel in the batch either way.
  if (observer_ == nullptr && !shard_mode_) return;
  ctx.events.push_back(DebugEvent{kind, stats_.steps, f.id, f.home, a, b});
}

void Machine::emit_now(DebugEventKind kind, FlowId flow, GroupId group, Word a,
                       Word b) {
  if (observer_ == nullptr) return;
  observer_->on_event(DebugEvent{kind, stats_.steps, flow, group, a, b});
}

void Machine::bind_lane_counters(metrics::MetricsRegistry& reg,
                                 LaneCounters& lc) {
  lc.shared_reads = &reg.counter("mem/shared_reads");
  lc.shared_writes = &reg.counter("mem/shared_writes");
  lc.local_reads = &reg.counter("mem/local_reads");
  lc.local_writes = &reg.counter("mem/local_writes");
  lc.multiop_contributions = &reg.counter("mem/multiop_contributions");
  lc.prefix_contributions = &reg.counter("mem/prefix_contributions");
  lc.store_forwards = &reg.counter("mem/store_forwards");
}

namespace {

// The machine's topology: the physical network, wrapped in an
// OverrideTopology when any group of a heterogeneous shape carries a
// private NUMA distance row. Routing stays physical; the distance metric
// (analytic latency bound, dist_cache_, diameter) sees the override.
std::unique_ptr<net::Topology> make_machine_topology(
    const MachineConfig& cfg) {
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
  TCFPN_CHECK(cfg_.host_threads >= 1, "host_threads must be >= 1");
  validate_shape(cfg_);
  locals_.reserve(cfg_.groups);
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    locals_.emplace_back(g, cfg_.local_words, cfg_.local_latency);
  }
  groups_.resize(cfg_.groups);
  dead_.assign(cfg_.groups, 0);
  recompute_step_fill();
  step_ctx_.resize(cfg_.groups);
  for (auto& ctx : step_ctx_) {
    ctx.port.attach(&shared_);
    ctx.net_loads.assign(shared_.modules(), 0);
    ctx.run_modules.assign(shared_.modules(), 0);
    bind_lane_counters(ctx.metrics, ctx.lanes);
  }
  net_loads_.assign(shared_.modules(), 0);
  dist_cache_.resize(cfg_.groups);
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    dist_cache_[g].resize(shared_.modules());
    for (std::uint32_t m = 0; m < shared_.modules(); ++m) {
      dist_cache_[g][m] = net_->topology().distance(g, m % cfg_.groups);
    }
  }
  // The machine-level registry also carries the lane counters (fed directly
  // by the single-threaded XMT path, and by the group registries' merges)
  // plus the commit-side memory and router instruments — all of which are
  // only touched at the step barrier.
  bind_lane_counters(metrics_, gm_);
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
  if (cfg_.host_threads > 1 && is_step_synchronous(cfg_.variant)) {
    pool_ = std::make_unique<common::ThreadPool>(cfg_.host_threads);
    channels_ = std::make_unique<common::EffectChannel[]>(cfg_.groups);
  }
  trace_.set_enabled(cfg_.record_trace);
}

void Machine::GroupCtx::reset() {
  port.clear();
  delta = MachineStats{};
  refs.clear();
  if (net_refs != 0) {
    std::fill(net_loads.begin(), net_loads.end(), 0);
    net_refs = 0;
    net_max_dist = 0;
  }
  prefix_reqs.clear();
  spawns.clear();
  halted.clear();
  prints.clear();
  trace.clear();
  error = nullptr;
  metrics.reset();  // zeroes values, keeps instruments: lane pointers survive
  events.clear();
  prof_bins.clear();
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
  // spawn, so the degraded schedule is host-thread invariant. The custom
  // allocation hook is deliberately bypassed — it may not know about dead
  // groups, and fault migration is an OS decision, not a program one.
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
  emit(step_ctx_[f.home], DebugEventKind::kFlowHalted, f);
  if (f.parent == kNoFlow) return;
  TcfDescriptor& p = flow(f.parent);
  if (p.home == f.home) {
    // Same group: the parent is driven by this host thread, so the notice
    // can land immediately — a later JOINALL of the parent in this very
    // step already sees the child gone (the sequential-engine semantics).
    TCFPN_CHECK(p.live_children > 0, "child halt underflows parent counter");
    --p.live_children;
    return;
  }
  // Cross-group: the parent may be executing on another host thread right
  // now; the join notice travels through the group context and lands at the
  // barrier, in group order, independent of host-thread interleaving.
  step_ctx_[f.home].halted.push_back(f.id);
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
  dispatch_groups();
  merge_step();
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

  // A fault may have aborted the previous step after some groups streamed
  // their profiler bins; never let them leak into this step's apportionment.
  step_bins_.clear();
  step_base_ = stats_.cycles + step_fill_;
  return true;
}

void Machine::run_group(GroupId g) {
  auto& ctx = step_ctx_[g];
  ctx.reset();
  if (shard_mode_) {
    // Non-owned contexts stay clean for shard_install. step_ops is normally
    // zeroed by execute_group; a non-owned group takes the owner's value
    // from the batch, so zero it here and a missing batch is a loud
    // divergence rather than a stale carry-over.
    groups_[g].step_ops = 0;
    shard_local_writes_[g].clear();
    if (!shard_owned_[g]) return;
    locals_[g].set_write_log(&shard_local_writes_[g]);
  }
  try {
    execute_group(g, step_base_);
  } catch (...) {
    ctx.error = std::current_exception();
  }
  if (shard_mode_) locals_[g].set_write_log(nullptr);
}

void Machine::dispatch_groups() {
  // Each group executes against its own effect buffer (GroupCtx): it reads
  // only committed shared memory and its own flows, so the groups are
  // independent and may run on separate host threads. Faults are captured
  // per group and surface in the merge loop.
  phase_t0_ = cfg_.profile_host ? host_clock_us() : 0;
  if (!pool_) {
    for (GroupId g = 0; g < cfg_.groups; ++g) run_group(g);
    if (cfg_.profile_host) host_span("machine/group_phase", phase_t0_);
    return;
  }
  for (GroupId g = 0; g < cfg_.groups; ++g) channels_[g].reset();
  // A member, not a temporary: the pool calls through a pointer to it
  // until end().
  group_job_ = [this](std::size_t g) {
    run_group(static_cast<GroupId>(g));
    channels_[g].publish();
  };
  pool_->begin(cfg_.groups, group_job_);
  job_open_ = true;
}

void Machine::end_group_job() {
  job_open_ = false;
  // run_group captures every fault into its context, so end() only waits.
  pool_->end();
  if (cfg_.profile_host) host_span("machine/group_phase", phase_t0_);
}

void Machine::merge_step() {
  if (!job_open_ && cfg_.profile_host) phase_t0_ = host_clock_us();
  // Merge in group order 0..P-1, the order a sequential run produces the
  // effects in, so the committed state is bit-identical for every
  // host_threads value. While a pool job is open, group g merges as soon as
  // its seal publishes, overlapping higher groups' execution. The lowest
  // faulting group wins: lower groups merge, the step never reaches the
  // deferred pass. Groups above it may still be executing, and their
  // errors lose to this one.
  std::exception_ptr error;
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    if (job_open_) {
      // Never sleep while unclaimed groups remain: steal one instead, so
      // the step stays live even if every worker is preempted.
      while (!channels_[g].ready() && pool_->try_run_one()) {
      }
      channels_[g].await();
    }
    if (step_ctx_[g].error) {
      error = step_ctx_[g].error;
      break;
    }
    try {
      stream_merge_group(g);
    } catch (...) {
      // A merge-side fault (commit-policy checks fire at drain) must not
      // leave the pool job open: the workers would outlive this frame.
      error = std::current_exception();
      break;
    }
  }
  // Every group finishes executing before the machine mutates further
  // state or unwinds a fault: stragglers still write their GroupCtx.
  if (job_open_) {
    end_group_job();
    if (cfg_.profile_host) phase_t0_ = host_clock_us();
  }
  if (error) std::rethrow_exception(error);
  for (GroupId g = 0; g < cfg_.groups; ++g) deferred_merge_group(g);
  if (cfg_.profile_host) host_span("machine/merge_effects", phase_t0_);

  group_work_.assign(cfg_.groups, 0);
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    group_work_[g] = groups_[g].step_ops;
  }
  finish_step(synchronous_slot_term(), group_work_);
}

Cycle Machine::synchronous_slot_term() const {
  // Slot term per variant (DESIGN.md §4 item 3). ILP co-execution issues
  // `functional_units` operations per group per cycle; on a heterogeneous
  // shape each group additionally divides by its clock multiplier — a 3x
  // group retires 3 operations per base-clock cycle — with one exact
  // ceiling division: ceil(term * den / (num * fu)). num = den = 1 reduces
  // to the uniform ceil(term / fu) bit-for-bit.
  const Cycle fu = std::max<std::uint32_t>(cfg_.functional_units, 1);
  Cycle slot_max = 0;
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    if (!group_alive(g)) continue;  // retired groups carry no slot term
    Cycle term = 0;
    switch (cfg_.variant) {
      case Variant::kSingleInstruction:
      case Variant::kFixedThickness:
        term = group_work_[g];
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
    slot_max = std::max(slot_max, (term * den + num * fu - 1) / (num * fu));
  }
  return slot_max;
}

void Machine::execute_group(GroupId g, Cycle step_base) {
  auto& grp = groups_[g];
  auto& ctx = step_ctx_[g];
  grp.step_ops = 0;
  // Flows spawned/woken during the step join the next one; nothing is
  // admitted to the resident list until the barrier, so no snapshot copy is
  // needed.
  const std::vector<FlowId>& active = grp.resident;

  auto record = [&](const TcfDescriptor& f, std::uint64_t ops) {
    if (ops == 0 || !trace_.enabled()) return;
    ctx.trace.push_back(TraceSpan{g, step_base + grp.step_ops - ops,
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
  // Pre-sort the staged writes on this worker thread so the barrier-side
  // commit only merges per-group runs.
  ctx.port.seal();
}

bool Machine::group_quiet(const GroupCtx& ctx) const {
  const LaneCounters& lc = ctx.lanes;
  return ctx.events.empty() && ctx.refs.empty() && ctx.net_refs == 0 &&
         ctx.port.empty() && ctx.prefix_reqs.empty() && ctx.spawns.empty() &&
         ctx.halted.empty() && ctx.prints.empty() && ctx.trace.empty() &&
         lc.shared_reads->value() == 0 && lc.shared_writes->value() == 0 &&
         lc.local_reads->value() == 0 && lc.local_writes->value() == 0 &&
         lc.multiop_contributions->value() == 0 &&
         lc.prefix_contributions->value() == 0 &&
         lc.store_forwards->value() == 0;
}

void Machine::stream_merge_group(GroupId g) {
  auto& ctx = step_ctx_[g];

  stats_.tcf_instructions += ctx.delta.tcf_instructions;
  stats_.operations += ctx.delta.operations;
  stats_.instruction_fetches += ctx.delta.instruction_fetches;
  stats_.spawns += ctx.delta.spawns;
  stats_.joins += ctx.delta.joins;
  stats_.branch_cost_cycles += ctx.delta.branch_cost_cycles;

  // Profiler bins stream before the quiet-group fast path: a register-only
  // group step has no cross-group effects but it did execute operations,
  // and those cycles must reach the apportionment in finish_step.
  if (cfg_.profile && !ctx.prof_bins.empty()) {
    step_bins_.insert(step_bins_.end(), ctx.prof_bins.begin(),
                      ctx.prof_bins.end());
  }

  if (group_quiet(ctx)) {
    // Register-only group step: besides the stat deltas just added there is
    // nothing to merge — every buffer is empty and every group-local
    // instrument zero, so the registry walk, port drain and ref transfer
    // are all no-ops and can be skipped wholesale.
    ++merge_skips_;
    return;
  }

  // Flight-recorder events buffered during the group phase surface here,
  // in group order — identical sequence for every host-thread count.
  if (observer_ != nullptr) {
    for (const DebugEvent& ev : ctx.events) observer_->on_event(ev);
  }

  // Per-group metric instruments land in the machine registry here, in
  // group order, so snapshots are bit-identical across host_threads.
  metrics_.merge(ctx.metrics);

  // Memory-term references: the detailed router is injection-order
  // sensitive, so it gets the full per-reference sequence (group by group,
  // flows in resident order); the analytic bound only needs the per-module
  // aggregates the group already summed in the parallel phase.
  if (cfg_.detailed_network) {
    step_refs_.insert(step_refs_.end(), ctx.refs.begin(), ctx.refs.end());
  } else if (ctx.net_refs != 0) {
    for (std::size_t m = 0; m < net_loads_.size(); ++m) {
      net_loads_[m] += ctx.net_loads[m];
    }
    net_refs_ += ctx.net_refs;
    net_max_dist_ = std::max(net_max_dist_, ctx.net_max_dist);
  }

  // Drain the group's staged shared-memory traffic; multiprefix tickets
  // are assigned here, in drain order, exactly as a sequential run would.
  const std::size_t ticket_base = shared_.drain(ctx.port);
  for (const auto& req : ctx.prefix_reqs) {
    pending_prefixes_.push_back(
        PendingPrefix{req.flow, req.lane, req.rd, ticket_base + req.local});
  }

  debug_out_.insert(debug_out_.end(), ctx.prints.begin(), ctx.prints.end());
  for (auto& span : ctx.trace) {
    trace_.add(span.row, span.begin, span.end, span.glyph,
               std::move(span.label));
  }
}

void Machine::deferred_merge_group(GroupId g) {
  auto& ctx = step_ctx_[g];
  if (ctx.halted.empty() && ctx.spawns.empty()) return;

  // Join notices: a child halting this step reaches its parent only at
  // the barrier, so JOINALL outcomes never depend on which host thread
  // finished first. finish_step wakes satisfied joiners right after.
  // Deferred past the streaming pass because the parent may belong to a
  // group that is still executing while lower groups stream.
  for (FlowId id : ctx.halted) {
    const TcfDescriptor& child = *flows_[id];
    if (child.parent == kNoFlow) continue;
    TcfDescriptor& p = flow(child.parent);
    TCFPN_CHECK(p.live_children > 0, "child halt underflows parent counter");
    --p.live_children;
  }

  // Deferred SPAWN placement: creating and placing children in group
  // order fixes flow ids and allocation decisions across thread counts.
  // Placement reads other groups' loads and grows flows_, so it must wait
  // until every group finished executing.
  for (const auto& sp : ctx.spawns) {
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
}

std::uint64_t Machine::run_flow_slice(TcfDescriptor& f,
                                      std::uint64_t op_quota) {
  TCFPN_CHECK(f.status == FlowStatus::kReady, "slicing a non-ready flow");
  if (op_quota == 0) return 0;
  if (f.mode == FlowMode::kNuma) return run_numa_block(f);

  const isa::Instr& instr = fetch(f);
  const isa::OpInfo& info = isa::op_info(instr.op);
  auto& delta = step_ctx_[f.home].delta;

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
      auto& bins = step_ctx_[f.home].prof_bins;
      const prof::Key at{static_cast<std::int64_t>(f.home),
                         static_cast<std::int64_t>(f.id),
                         static_cast<std::int64_t>(f.pc),
                         prof::Term::kCompute};
      bins[at] += 1;
      if (ops > 1) {
        prof::Key br = at;
        br.term = prof::Term::kBranch;
        bins[br] += ops - 1;
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
  std::uint64_t cost = 0;
  if (exec_alu_lanes(f, instr, start, count) ||
      exec_shared_lanes(f, instr, start, count)) {
    cost = count + operand_penalty_range(start, count);
  } else {
    for (std::uint64_t lane = start; lane < start + count; ++lane) {
      exec_data_lane(f, instr, lane);
      cost += 1 + operand_penalty(lane);
    }
  }
  if (cfg_.profile) {
    // One compute slot per lane; whatever the operand-storage model added
    // on top is itemized under its own term (operand spills vs NUMA local
    // memory), so hotspot rows show *why* a pc is expensive.
    auto& bins = step_ctx_[f.home].prof_bins;
    prof::Key at{static_cast<std::int64_t>(f.home),
                 static_cast<std::int64_t>(f.id),
                 static_cast<std::int64_t>(f.pc), prof::Term::kCompute};
    bins[at] += count;
    if (cost > count) {
      at.term = operand_penalty_term(cfg_.operand_storage);
      bins[at] += cost - count;
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

Cycle Machine::operand_penalty(LaneId lane) const {
  // Section 3.3: where do a thick instruction's lane-private intermediate
  // results live? The choice prices every lane operation.
  switch (cfg_.operand_storage) {
    case OperandStorage::kCachedRegisterFile: {
      // The first register_cache_words/R lanes hit the physical register
      // cache; the rest spill to local memory per access.
      const std::uint64_t cached =
          cfg_.register_cache_words /
          std::max<std::uint32_t>(cfg_.registers_per_context, 1);
      return lane < cached ? 0 : cfg_.register_spill_penalty;
    }
    case OperandStorage::kMemoryToMemory:
      // Operand fetch and writeback both go through memory.
      return 2;
    case OperandStorage::kLocalMemory:
      return cfg_.local_latency;
  }
  TCFPN_FAULT("unknown operand storage model");
}

Cycle Machine::operand_penalty_range(LaneId start, std::uint64_t count) const {
  // Closed form of sum(operand_penalty(l), l in [start, start+count)): the
  // penalty only depends on whether a lane index clears the cache boundary,
  // so the whole range prices in O(1).
  switch (cfg_.operand_storage) {
    case OperandStorage::kCachedRegisterFile: {
      const std::uint64_t cached =
          cfg_.register_cache_words /
          std::max<std::uint32_t>(cfg_.registers_per_context, 1);
      const std::uint64_t end = start + count;
      const std::uint64_t spilled =
          end > cached ? end - std::max<std::uint64_t>(start, cached) : 0;
      return spilled * cfg_.register_spill_penalty;
    }
    case OperandStorage::kMemoryToMemory:
      return 2 * count;
    case OperandStorage::kLocalMemory:
      return cfg_.local_latency * count;
  }
  TCFPN_FAULT("unknown operand storage model");
}

bool Machine::exec_alu_lanes(TcfDescriptor& f, const isa::Instr& instr,
                             std::uint64_t start, std::uint64_t count) {
  using isa::Opcode;
  switch (instr.op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
    case Opcode::kSlt:
    case Opcode::kSle:
    case Opcode::kSeq:
    case Opcode::kSne:
    case Opcode::kMax:
    case Opcode::kMin:
    case Opcode::kLdi:
    case Opcode::kTid:
    case Opcode::kFid:
    case Opcode::kThick:
    case Opcode::kGid:
    case Opcode::kNop:
      break;
    default:
      // Shared-memory LD/ST have their own sweep (exec_shared_lanes);
      // multioperations, local memory and faulting divides keep the scalar
      // per-lane path (side effects and fault order must match the
      // lane-by-lane semantics exactly).
      return false;
  }
  if (instr.op == Opcode::kNop) return true;
  if (instr.rd == 0) return true;  // r0 writes are discarded, no other effect
  LaneFile& lf = f.lane_regs;
  Word* dst = lf.bank(instr.rd);
  const std::uint64_t end = start + count;
  auto fill = [&](Word v) {
    for (std::uint64_t l = start; l < end; ++l) dst[l] = v;
  };
  switch (instr.op) {
    case Opcode::kLdi:
      fill(instr.imm);
      return true;
    case Opcode::kTid:
      for (std::uint64_t l = start; l < end; ++l) {
        dst[l] = static_cast<Word>(l);
      }
      return true;
    case Opcode::kFid:
      fill(static_cast<Word>(f.id));
      return true;
    case Opcode::kThick:
      fill(f.mode == FlowMode::kPram ? f.thickness : 1);
      return true;
    case Opcode::kGid:
      fill(static_cast<Word>(f.home));
      return true;
    default:
      break;
  }
  // Two-operand ALU sweep over contiguous banks. Each lambda mirrors alu()
  // bit for bit (unsigned wraparound, shift masking); the per-lane loop has
  // no cross-lane dependence, so it vectorizes.
  const Word* a = lf.bank(instr.ra);
  const Word* b = instr.use_imm() ? nullptr : lf.bank(instr.rb);
  const Word imm = instr.imm;
  auto sweep = [&](auto op2) {
    if (b == nullptr) {
      for (std::uint64_t l = start; l < end; ++l) dst[l] = op2(a[l], imm);
    } else {
      for (std::uint64_t l = start; l < end; ++l) dst[l] = op2(a[l], b[l]);
    }
  };
  const auto u = [](Word w) { return static_cast<std::uint64_t>(w); };
  switch (instr.op) {
    case Opcode::kAdd:
      sweep([u](Word x, Word y) { return static_cast<Word>(u(x) + u(y)); });
      return true;
    case Opcode::kSub:
      sweep([u](Word x, Word y) { return static_cast<Word>(u(x) - u(y)); });
      return true;
    case Opcode::kMul:
      sweep([u](Word x, Word y) { return static_cast<Word>(u(x) * u(y)); });
      return true;
    case Opcode::kAnd:
      sweep([](Word x, Word y) { return x & y; });
      return true;
    case Opcode::kOr:
      sweep([](Word x, Word y) { return x | y; });
      return true;
    case Opcode::kXor:
      sweep([](Word x, Word y) { return x ^ y; });
      return true;
    case Opcode::kShl:
      sweep([u](Word x, Word y) {
        return static_cast<Word>(u(x) << (u(y) & 63));
      });
      return true;
    case Opcode::kShr:
      sweep([u](Word x, Word y) {
        return static_cast<Word>(u(x) >> (u(y) & 63));
      });
      return true;
    case Opcode::kSlt:
      sweep([](Word x, Word y) { return Word{x < y ? 1 : 0}; });
      return true;
    case Opcode::kSle:
      sweep([](Word x, Word y) { return Word{x <= y ? 1 : 0}; });
      return true;
    case Opcode::kSeq:
      sweep([](Word x, Word y) { return Word{x == y ? 1 : 0}; });
      return true;
    case Opcode::kSne:
      sweep([](Word x, Word y) { return Word{x != y ? 1 : 0}; });
      return true;
    case Opcode::kMax:
      sweep([](Word x, Word y) { return std::max(x, y); });
      return true;
    case Opcode::kMin:
      sweep([](Word x, Word y) { return std::min(x, y); });
      return true;
    default:
      TCFPN_FAULT("unreachable ALU sweep opcode");
  }
}

bool Machine::exec_shared_lanes(TcfDescriptor& f, const isa::Instr& instr,
                                std::uint64_t start, std::uint64_t count) {
  const bool load = instr.op == isa::Opcode::kLd;
  if (!load && instr.op != isa::Opcode::kSt) return false;
  auto& ctx = step_ctx_[f.home];
  LaneFile& lf = f.lane_regs;

  // Pass 1: every effective address of the run. A negative address reads
  // as >= 2^63 unsigned, so one compare against the memory size catches
  // both kinds of bad address.
  if (ctx.lane_addrs.size() < count) ctx.lane_addrs.resize(count);
  Addr* ea = ctx.lane_addrs.data();
  const Word* base = lf.bank(instr.ra) + start;
  const Addr words = shared_.size();
  bool bad = false;
  for (std::uint64_t i = 0; i < count; ++i) {
    ea[i] = static_cast<Addr>(effective_word(base[i], instr, start + i));
    bad |= ea[i] >= words;
  }
  // Lanes before the first bad one execute, exactly as the lane-by-lane
  // order would have run them before faulting.
  const std::uint64_t n =
      bad ? static_cast<std::uint64_t>(
                std::find_if(ea, ea + count,
                             [words](Addr a) { return a >= words; }) -
                ea)
          : count;

  // Pass 2: the network term and the run's per-module histogram.
  note_ref_run(ctx, f.home, ea, n);
  const std::uint64_t* per_module = ctx.run_modules.data();
  const LaneId lane0 = lane_key(f.id, start);
  if (load) {
    Word* dst = instr.rd != 0 ? lf.bank(instr.rd) + start : nullptr;
    if (f.step_writes.empty()) {
      ctx.port.read_run(ea, n, lane0, per_module, dst);
      ctx.lanes.shared_reads->add(n);
    } else {
      // Store forwarding: the flow sees its own *completed* writes of this
      // step; everything else is the pre-step committed state. A forwarded
      // value still counts as a memory reference for the network term (but
      // not as shared-memory traffic — the value never left the group).
      for (std::uint64_t i = 0; i < n; ++i) {
        Word v;
        if (const Word* w = f.step_writes.find(ea[i])) {
          ctx.lanes.store_forwards->add();
          v = *w;
        } else {
          ctx.lanes.shared_reads->add();
          v = ctx.port.read(ea[i], lane0 + i, shared_.module_of(ea[i]));
        }
        if (dst != nullptr) dst[i] = v;
      }
    }
  } else {
    const Word* value = lf.bank(instr.rb) + start;
    ctx.port.write_run(ea, value, n, lane0, per_module);
    f.instr_writes.put_run(ea, value, n);
    ctx.lanes.shared_writes->add(n);
  }
  std::fill(ctx.run_modules.begin(), ctx.run_modules.end(), 0);

  if (n < count) {
    const Word bad_ea = static_cast<Word>(ea[n]);
    if (bad_ea < 0) {
      TCFPN_FAULT("negative effective address ", bad_ea, " in flow ", f.id);
    }
    shared_.check_addr(ea[n]);
  }
  return true;
}

std::uint64_t Machine::run_numa_block(TcfDescriptor& f) {
  // NUMA mode (thickness "1/L"): L consecutive instructions of a single
  // sequential stream per step; each instruction is fetched separately —
  // that asymmetry is the "Fetches per TCF" row of Table 1.
  std::uint64_t executed = 0;
  std::uint64_t branch_ops = 0;
  const auto pc0 = static_cast<std::int64_t>(f.pc);
  auto& delta = step_ctx_[f.home].delta;
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
      if (!exec_shared_lanes(f, instr, 0, 1)) exec_data_lane(f, instr, 0);
      complete_instruction(f, instr);
      ++f.pc;
    }
  }
  if (cfg_.profile && executed > 0) {
    // The whole block bins at its start pc — a NUMA bunch is one scheduling
    // unit, and per-instruction binning would cost a map op per instruction.
    auto& bins = step_ctx_[f.home].prof_bins;
    prof::Key at{static_cast<std::int64_t>(f.home),
                 static_cast<std::int64_t>(f.id), pc0, prof::Term::kCompute};
    bins[at] += executed - branch_ops;
    if (branch_ops > 0) {
      at.term = prof::Term::kBranch;
      bins[at] += branch_ops;
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
  ++step_ctx_[f.home].delta.instruction_fetches;
  return program_.code[f.pc];
}

Word Machine::read_operand_b(const TcfDescriptor& f, const isa::Instr& instr,
                             LaneId lane) const {
  if (instr.use_imm()) return instr.imm;
  return f.lane_regs.get(lane, instr.rb);
}

Word Machine::alu(const isa::Instr& instr, Word a, Word b) const {
  using isa::Opcode;
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  switch (instr.op) {
    case Opcode::kAdd: return static_cast<Word>(ua + ub);
    case Opcode::kSub: return static_cast<Word>(ua - ub);
    case Opcode::kMul: return static_cast<Word>(ua * ub);
    case Opcode::kDiv:
      if (b == 0) TCFPN_FAULT("division by zero");
      return a / b;
    case Opcode::kMod:
      if (b == 0) TCFPN_FAULT("modulo by zero");
      return a % b;
    case Opcode::kAnd: return a & b;
    case Opcode::kOr: return a | b;
    case Opcode::kXor: return a ^ b;
    case Opcode::kShl: return static_cast<Word>(ua << (ub & 63));
    case Opcode::kShr: return static_cast<Word>(ua >> (ub & 63));
    case Opcode::kSlt: return a < b ? 1 : 0;
    case Opcode::kSle: return a <= b ? 1 : 0;
    case Opcode::kSeq: return a == b ? 1 : 0;
    case Opcode::kSne: return a != b ? 1 : 0;
    case Opcode::kMax: return std::max(a, b);
    case Opcode::kMin: return std::min(a, b);
    default:
      TCFPN_FAULT("alu() called with non-ALU opcode");
  }
}

Addr Machine::effective_addr(const TcfDescriptor& f, const isa::Instr& instr,
                             LaneId lane) const {
  const Word ea = effective_word(f.lane_regs.get(lane, instr.ra), instr, lane);
  if (ea < 0) {
    TCFPN_FAULT("negative effective address ", ea, " in flow ", f.id);
  }
  return static_cast<Addr>(ea);
}

void Machine::note_ref(GroupCtx& ctx, GroupId src, std::uint32_t module) {
  if (cfg_.detailed_network) {
    // The detailed router is injection-order sensitive: keep the full
    // per-reference sequence for the barrier-side replay.
    ctx.refs.emplace_back(src, module);
    return;
  }
  // Analytic bound: module load counts and the wire-distance maximum are
  // order-insensitive, so they aggregate in the parallel phase and the
  // barrier only sums P short vectors instead of walking every reference.
  ++ctx.net_loads[module];
  ++ctx.net_refs;
  ctx.net_max_dist =
      std::max(ctx.net_max_dist, dist_cache_[src][module % cfg_.groups]);
}

void Machine::note_ref_run(GroupCtx& ctx, GroupId src, const Addr* addr,
                           std::uint64_t n) {
  std::uint64_t* per_module = ctx.run_modules.data();
  if (cfg_.detailed_network) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint32_t m = shared_.module_of(addr[i]);
      ++per_module[m];
      ctx.refs.emplace_back(src, m);
    }
    return;
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    ++per_module[shared_.module_of(addr[i])];
  }
  // The same aggregates note_ref keeps, added once per module.
  for (std::uint32_t m = 0; m < ctx.run_modules.size(); ++m) {
    if (per_module[m] == 0) continue;
    ctx.net_loads[m] += per_module[m];
    ctx.net_max_dist =
        std::max(ctx.net_max_dist, dist_cache_[src][m % cfg_.groups]);
  }
  ctx.net_refs += n;
}

void Machine::exec_data_lane(TcfDescriptor& f, const isa::Instr& instr,
                             LaneId lane) {
  using isa::Opcode;
  auto& lf = f.lane_regs;
  auto write_reg = [&](std::uint8_t r, Word v) { lf.set(lane, r, v); };
  const auto key = lane_key(f.id, lane);
  switch (instr.op) {
    case Opcode::kLdi:
      write_reg(instr.rd, instr.imm);
      return;
    case Opcode::kLld: {
      const Addr a = effective_addr(f, instr, lane);
      step_ctx_[f.home].lanes.local_reads->add();
      write_reg(instr.rd, locals_[f.home].read(a));
      return;
    }
    case Opcode::kLst: {
      const Addr a = effective_addr(f, instr, lane);
      step_ctx_[f.home].lanes.local_writes->add();
      locals_[f.home].write(a, lf.get(lane, instr.rb));
      return;
    }
    case Opcode::kMpAdd:
    case Opcode::kMpMax:
    case Opcode::kMpMin:
    case Opcode::kMpAnd:
    case Opcode::kMpOr: {
      const Addr a = effective_addr(f, instr, lane);
      const Word v = lf.get(lane, instr.rb);
      const auto op = static_cast<mem::MultiOp>(
          static_cast<int>(instr.op) - static_cast<int>(Opcode::kMpAdd));
      auto& ctx = step_ctx_[f.home];
      const std::uint32_t m = shared_.module_of(a);
      note_ref(ctx, f.home, m);
      ctx.lanes.multiop_contributions->add();
      ctx.port.multiop(a, op, v, key, m);
      f.multiop_blocked = true;
      return;
    }
    case Opcode::kPpAdd:
    case Opcode::kPpMax:
    case Opcode::kPpMin:
    case Opcode::kPpAnd:
    case Opcode::kPpOr: {
      const Addr a = effective_addr(f, instr, lane);
      const Word v = lf.get(lane, instr.rb);
      const auto op = static_cast<mem::MultiOp>(
          static_cast<int>(instr.op) - static_cast<int>(Opcode::kPpAdd));
      auto& ctx = step_ctx_[f.home];
      const std::uint32_t m = shared_.module_of(a);
      note_ref(ctx, f.home, m);
      ctx.lanes.prefix_contributions->add();
      const std::size_t local = ctx.port.multiprefix(a, op, v, key, m);
      ctx.prefix_reqs.push_back(PrefixRequest{f.id, lane, instr.rd, local});
      f.multiop_blocked = true;
      return;
    }
    case Opcode::kTid:
      write_reg(instr.rd, static_cast<Word>(lane));
      return;
    case Opcode::kFid:
      write_reg(instr.rd, static_cast<Word>(f.id));
      return;
    case Opcode::kThick:
      write_reg(instr.rd, f.mode == FlowMode::kPram ? f.thickness : 1);
      return;
    case Opcode::kGid:
      write_reg(instr.rd, static_cast<Word>(f.home));
      return;
    case Opcode::kNop:
      return;
    default: {
      const Word a = lf.get(lane, instr.ra);
      write_reg(instr.rd, alu(instr, a, read_operand_b(f, instr, lane)));
      return;
    }
  }
}

bool Machine::exec_control(TcfDescriptor& f, const isa::Instr& instr) {
  using isa::Opcode;
  auto target = [&](std::int32_t imm) {
    if (imm < 0 || static_cast<std::size_t>(imm) > program_.code.size()) {
      TCFPN_FAULT("branch target ", imm, " out of range in flow ", f.id);
    }
    return static_cast<std::size_t>(imm);
  };
  switch (instr.op) {
    case Opcode::kJmp:
      f.pc = target(instr.imm);
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
      f.pc = taken ? target(instr.imm) : f.pc + 1;
      return true;
    }
    case Opcode::kCall:
      f.call_stack.push_back(f.pc + 1);
      f.pc = target(instr.imm);
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
      emit(step_ctx_[f.home], DebugEventKind::kThicknessChanged, f,
           f.thickness, t);
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
      auto& ctx = step_ctx_[f.home];
      ++ctx.delta.spawns;
      if (t > 0) {
        const std::size_t entry = target(instr.imm);
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
        // The children are created at the step barrier (deferred_merge_group)
        // so that flow ids and group placement are independent of host-thread
        // interleaving; the parent's live-children counter rises now so a
        // same-step JOINALL already sees them.
        f.live_children += static_cast<std::uint32_t>(fragments.size());
        emit(ctx, DebugEventKind::kSpawn, f, t,
             static_cast<Word>(fragments.size()));
        ctx.spawns.push_back(SpawnRequest{f.id, entry, std::move(fragments),
                                          f.lane_regs.snapshot(0)});
      }
      f.pc += 1;
      return true;
    }
    case Opcode::kJoinAll:
      f.pc += 1;
      emit(step_ctx_[f.home], DebugEventKind::kJoin, f,
           static_cast<Word>(f.live_children));
      if (f.live_children > 0) {
        f.status = FlowStatus::kWaitingJoin;
        return false;
      }
      ++step_ctx_[f.home].delta.joins;
      return true;
    case Opcode::kPrint: {
      const Word v =
          instr.use_imm() ? instr.imm : f.lane_regs.get(0, instr.ra);
      step_ctx_[f.home].prints.push_back(v);
      emit(step_ctx_[f.home], DebugEventKind::kPrint, f, v);
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

Machine::MemTerm Machine::memory_term() {
  // Injected link faults (retried drops, delayed replies) extend this
  // step's memory term even when the step itself issued no references —
  // the stalled reply still has to arrive before the next step. Kept
  // separate from the network bound so the profiler can itemize kFault.
  const Cycle fault_extra = net_->consume_fault_delay();
  if (cfg_.detailed_network) {
    if (step_refs_.empty()) return {fault_extra, 0};
    for (const auto& [src, module] : step_refs_) {
      net_->inject(src, module % cfg_.groups);
    }
    return {fault_extra, net_->drain()};
  }
  // Analytic bound from the aggregates the groups summed in the parallel
  // phase (merged in stream_merge_group) — no per-reference walk here.
  if (net_refs_ == 0) return {fault_extra, 0};
  std::uint64_t hottest = 0;
  for (std::uint64_t l : net_loads_) hottest = std::max(hottest, l);
  sc_.hot_module_load->add(static_cast<double>(hottest));
  sc_.wire_distance->add(net_max_dist_);
  const Cycle bound = net_->latency_bound(net_loads_, net_max_dist_);
  std::fill(net_loads_.begin(), net_loads_.end(), 0);
  net_refs_ = 0;
  net_max_dist_ = 0;
  return {fault_extra, bound};
}

void Machine::profile_step(Cycle slot_term_max, MemTerm mt, Cycle body,
                           const std::vector<Cycle>& group_work) {
  using prof::kNoIndex;
  using prof::Term;
  // Pipeline fill is a per-step machine cost, attributable to nobody.
  profile_.add({kNoIndex, kNoIndex, kNoIndex, Term::kFill}, step_fill_);
  // The slot term distributes over the bins the groups recorded this step;
  // the idle remainder is barrier wait.
  const Cycle work = profile_.add_over_bins(slot_term_max, step_bins_);
  // Memory extension beyond the slot term: network first, then whatever the
  // injected fault delay added on top. c1/body reproduce finish_step's
  // max() exactly, so fill + slot + net + fault == the cycles just charged.
  const Cycle c1 = std::max(slot_term_max, mt.bound);
  profile_.add({kNoIndex, kNoIndex, kNoIndex, Term::kNet}, c1 - slot_term_max);
  profile_.add({kNoIndex, kNoIndex, kNoIndex, Term::kFault}, body - c1);

  std::int64_t limit_group = kNoIndex;
  Cycle best = 0;
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    if (!group_alive(g)) continue;
    if (limit_group == kNoIndex || group_work[g] > best) {
      limit_group = static_cast<std::int64_t>(g);
      best = group_work[g];
    }
  }
  profile_.record_step({stats_.steps - 1, limit_group, step_fill_,
                        slot_term_max, mt.bound, mt.fault, work});
}

void Machine::finish_step(Cycle slot_term_max,
                          const std::vector<Cycle>& group_work) {
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

  const MemTerm mt = memory_term();
  const Cycle mem = mt.fault + mt.bound;
  if (cfg_.profile_host) {
    host_span("net/memory_term", t0);
    t0 = host_clock_us();
  }
  step_refs_.clear();
  const Cycle body = std::max(slot_term_max, mem);
  stats_.memory_wait_cycles += mem > slot_term_max ? mem - slot_term_max : 0;
  stats_.cycles += step_fill_ + body;
  ++stats_.steps;
  if (cfg_.profile) profile_step(slot_term_max, mt, body, group_work);
  step_bins_.clear();
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    if (!group_alive(g)) continue;  // degraded P-1 capacity (DESIGN.md §9)
    stats_.busy_slots += group_work[g];
    stats_.idle_slots += body - std::min<Cycle>(body, group_work[g]);
  }

  // Cost-category accounting: where the step's cycles went (the cost model
  // of DESIGN.md §4 item 3, one counter per term) and how full the TCF
  // buffers ran. All barrier-side, so plain registry lookups are fine.
  sc_.pipeline_fill_cycles->add(step_fill_);
  sc_.slot_term_cycles->add(slot_term_max);
  sc_.memory_term_cycles->add(mem);
  sc_.memory_wait_cycles->add(mem > slot_term_max ? mem - slot_term_max : 0);
  for (GroupId g = 0; g < cfg_.groups; ++g) {
    if (!group_alive(g)) continue;
    sc_.slot_occupancy->add(static_cast<double>(groups_[g].resident.size()));
    sc_.overflow_depth->add(static_cast<double>(groups_[g].overflow.size()));
  }

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
        lane_pc = static_cast<std::size_t>(instr.imm);
        continue;
      case Opcode::kBeqz:
      case Opcode::kBnez: {
        const Word v = rget(instr.ra);
        const bool taken = instr.op == Opcode::kBeqz ? v == 0 : v != 0;
        lane_pc = taken ? static_cast<std::size_t>(instr.imm) : lane_pc + 1;
        continue;
      }
      case Opcode::kCall:
        stack.push_back(lane_pc + 1);
        lane_pc = static_cast<std::size_t>(instr.imm);
        continue;
      case Opcode::kRet:
        TCFPN_CHECK(!stack.empty(), "RET with empty stack (XMT lane)");
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
          TcfDescriptor& child = make_flow(
              static_cast<std::size_t>(instr.imm), t, 0, f.id);
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
        gm_.shared_reads->add();
        write_reg(instr.rd, shared_.peek(ea()));
        ++lane_pc;
        continue;
      case Opcode::kSt:
        gm_.shared_writes->add();
        shared_.poke(ea(), rget(instr.rb));
        ++lane_pc;
        continue;
      case Opcode::kLld:
        gm_.local_reads->add();
        write_reg(instr.rd, locals_[f.home].read(ea()));
        ++lane_pc;
        continue;
      case Opcode::kLst:
        gm_.local_writes->add();
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
        gm_.multiop_contributions->add();
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
        gm_.prefix_contributions->add();
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
      case Opcode::kTid:
        write_reg(instr.rd, static_cast<Word>(lane));
        ++lane_pc;
        continue;
      case Opcode::kFid:
        write_reg(instr.rd, static_cast<Word>(f.id));
        ++lane_pc;
        continue;
      case Opcode::kThick:
        write_reg(instr.rd, f.thickness);
        ++lane_pc;
        continue;
      case Opcode::kGid:
        write_reg(instr.rd, static_cast<Word>(f.home));
        ++lane_pc;
        continue;
      case Opcode::kPrint:
        if (lane == 0) {
          const Word v = instr.use_imm() ? instr.imm : rget(instr.ra);
          debug_out_.push_back(v);
          emit_now(DebugEventKind::kPrint, f.id, f.home, v);
        }
        ++lane_pc;
        continue;
      case Opcode::kLdi:
        write_reg(instr.rd, instr.imm);
        ++lane_pc;
        continue;
      case Opcode::kNop:
        ++lane_pc;
        continue;
      default: {
        const Word a = rget(instr.ra);
        const Word b = instr.use_imm() ? instr.imm : rget(instr.rb);
        write_reg(instr.rd, alu(instr, a, b));
        ++lane_pc;
        continue;
      }
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
  stats_.cycles += phase;
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
    profile_.record_step({stats_.steps - 1, limit_group, /*fill=*/0, phase,
                          /*net=*/0, /*fault=*/0, total_ops});
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
