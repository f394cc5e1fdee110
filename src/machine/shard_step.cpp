// Sharded stepping (src/shard, DESIGN.md §14): the Machine half of the
// replicated-step protocol. Every replica holds the full machine; these
// entry points split step_synchronous() at the seal boundary — phase
// (shard_begin_step, owned groups only), exchange (shard_extract /
// shard_install) and barrier (shard_finish_step) — without changing a
// single merged byte relative to a one-process step.
#include "machine/shard_step.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/check.hpp"
#include "machine/config.hpp"

namespace tcfpn::machine {

void Machine::set_shard_mode(std::vector<std::uint8_t> owned) {
  if (owned.empty()) {
    shard_mode_ = false;
    shard_owned_.clear();
    shard_local_writes_.clear();
    return;
  }
  TCFPN_CHECK(is_step_synchronous(cfg_.variant),
              "sharded stepping requires a step-synchronous variant");
  TCFPN_CHECK(owned.size() == cfg_.groups,
              "shard ownership mask has ", owned.size(), " entries for ",
              cfg_.groups, " groups");
  TCFPN_CHECK(!trace_.enabled(),
              "schedule tracing records host-side spans per executing "
              "replica and cannot be sharded");
  shard_mode_ = true;
  shard_owned_ = std::move(owned);
  shard_local_writes_.assign(cfg_.groups, {});
}

bool Machine::shard_begin_step() {
  TCFPN_CHECK(shard_mode_, "shard_begin_step outside shard mode");
  // Replicated end-of-run decision: identical resident lists and statuses on
  // every replica yield the same answer everywhere.
  if (!begin_step()) return false;
  // Every context resets; only the owned groups execute (run_group).
  dispatch_groups();
  // The owned groups' batches are extracted next: every group must have
  // sealed, so the job closes here and the merge loop finds none open.
  if (job_open_) end_group_job();
  return true;
}

ShardGroupBatch Machine::shard_extract(GroupId g) const {
  TCFPN_CHECK(shard_mode_, "shard_extract outside shard mode");
  TCFPN_CHECK(g < cfg_.groups, "shard_extract: group ", g, " out of range");
  TCFPN_CHECK(shard_owned_[g], "shard_extract of non-owned group ", g);
  const GroupCtx& ctx = step_ctx_[g];

  ShardGroupBatch b;
  b.group = g;
  b.step = stats_.steps;
  b.step_ops = groups_[g].step_ops;
  b.delta = ctx.delta;
  b.port = ctx.port.save_image();
  b.refs = ctx.refs;
  if (ctx.net_refs != 0) b.net_loads = ctx.net_loads;
  b.net_refs = ctx.net_refs;
  b.net_max_dist = ctx.net_max_dist;
  b.prefix_reqs.reserve(ctx.prefix_reqs.size());
  for (const PrefixRequest& p : ctx.prefix_reqs) {
    b.prefix_reqs.push_back(ShardGroupBatch::Prefix{
        p.flow, p.lane, p.rd, static_cast<std::uint64_t>(p.local)});
  }
  b.spawns.reserve(ctx.spawns.size());
  for (const SpawnRequest& s : ctx.spawns) {
    b.spawns.push_back(
        ShardGroupBatch::Spawn{s.parent, s.entry, s.fragments, s.broadcast});
  }
  b.halted = ctx.halted;
  b.prints = ctx.prints;
  b.events = ctx.events;
  b.prof_bins = ctx.prof_bins;
  b.lanes = ctx.lanes;
  if (ctx.error) {
    try {
      std::rethrow_exception(ctx.error);
    } catch (const std::exception& e) {
      b.error = e.what();
    } catch (...) {
      b.error = "unknown group-phase fault";
    }
    if (b.error.empty()) b.error = "unknown group-phase fault";
  }

  b.flows.reserve(groups_[g].resident.size());
  for (FlowId id : groups_[g].resident) {
    b.flows.push_back(capture_flow_state(*flows_[id],
                                         /*require_boundary=*/false));
  }
  b.local_writes = shard_local_writes_[g];
  b.local_reads = locals_[g].reads();
  b.local_write_count = locals_[g].writes();
  b.local_remote = locals_[g].remote_accesses();
  return b;
}

void Machine::shard_install(const ShardGroupBatch& b) {
  TCFPN_CHECK(shard_mode_, "shard_install outside shard mode");
  TCFPN_CHECK(b.group < cfg_.groups,
              "shard_install: group ", b.group, " out of range");
  TCFPN_CHECK(!shard_owned_[b.group],
              "shard_install of owned group ", b.group,
              " — the exchange is misrouted");
  TCFPN_CHECK(b.step == stats_.steps,
              "shard_install: batch for step ", b.step,
              " installed at step ", stats_.steps, " — replicas diverged");
  GroupCtx& ctx = step_ctx_[b.group];

  groups_[b.group].step_ops = b.step_ops;
  ctx.delta = b.delta;
  ctx.port.load_image(b.port);
  ctx.refs = b.refs;
  if (b.net_refs != 0) {
    TCFPN_CHECK(b.net_loads.size() == ctx.net_loads.size(),
                "shard batch net_loads size mismatch");
    ctx.net_loads = b.net_loads;
  }
  ctx.net_refs = b.net_refs;
  ctx.net_max_dist = b.net_max_dist;
  ctx.prefix_reqs.clear();
  ctx.prefix_reqs.reserve(b.prefix_reqs.size());
  for (const ShardGroupBatch::Prefix& p : b.prefix_reqs) {
    ctx.prefix_reqs.push_back(PrefixRequest{
        p.flow, p.lane, p.rd, static_cast<std::size_t>(p.local)});
  }
  ctx.spawns.clear();
  ctx.spawns.reserve(b.spawns.size());
  for (const ShardGroupBatch::Spawn& s : b.spawns) {
    ctx.spawns.push_back(
        SpawnRequest{s.parent, s.entry, s.fragments, s.broadcast});
  }
  ctx.halted = b.halted;
  ctx.prints = b.prints;
  ctx.events = b.events;
  ctx.prof_bins = b.prof_bins;
  ctx.lanes = b.lanes;
  if (!b.error.empty()) {
    ctx.error = std::make_exception_ptr(SimError(b.error));
  }

  for (const FlowState& fs : b.flows) {
    TCFPN_CHECK(fs.id < flows_.size(),
                "shard batch names unknown flow ", fs.id);
    TCFPN_CHECK(fs.home == b.group,
                "shard batch for group ", b.group, " carries flow ", fs.id,
                " homed on group ", fs.home);
    install_flow_state(*flows_[fs.id], fs);
  }
  for (const auto& [a, v] : b.local_writes) {
    locals_[b.group].replay_write(a, v);
  }
  locals_[b.group].set_counters(b.local_reads, b.local_write_count,
                                b.local_remote);
}

void Machine::shard_finish_step() {
  TCFPN_CHECK(shard_mode_, "shard_finish_step outside shard mode");
  try {
    merge_step();
  } catch (const SimError& e) {
    // Same post-mortem hook as Machine::step().
    if (observer_ != nullptr) observer_->on_fault(e.what(), *this);
    throw;
  }
}

}  // namespace tcfpn::machine
