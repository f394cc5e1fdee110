// The unit of exchange for sharded execution (src/shard, DESIGN.md §14).
//
// A ShardGroupBatch is one group's sealed per-step effect context plus the
// pieces of machine state only the executing replica could have advanced:
// the post-phase flow descriptors of the group's resident list and the
// group's local-memory delta. Installing a batch on a replica that did not
// execute the group leaves that replica in exactly the state the owner is
// in — so the barrier merge (shard_finish_step) runs on bit-identical
// inputs everywhere and every replica commits the same step.
//
// Everything here is plain data: POD fields, vectors and strings. The wire
// codec (src/shard/wire.cpp) serialises batches field by field; keeping the
// struct free of machine internals (exception_ptr) is what makes that codec
// total.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "machine/state.hpp"
#include "mem/shared_memory.hpp"
#include "prof/profile.hpp"

namespace tcfpn::machine {

struct ShardGroupBatch {
  GroupId group = 0;
  StepId step = 0;  ///< stats_.steps at capture time (lockstep sanity check)

  // ----- GroupCtx image (sealed effect buffer) -----
  std::uint64_t step_ops = 0;  ///< groups_[g].step_ops after the phase
  MachineStats delta;
  mem::MemoryPort::Image port;
  std::vector<std::pair<GroupId, std::uint32_t>> refs;  ///< (src, module)
  /// Analytic network aggregates. `net_loads` ships empty when net_refs == 0
  /// (the GroupCtx invariant: loads are only nonzero alongside net_refs).
  std::vector<std::uint64_t> net_loads;
  std::uint64_t net_refs = 0;
  std::uint32_t net_max_dist = 0;
  /// Machine::PrefixRequest, flattened (that type is Machine-private).
  struct Prefix {
    FlowId flow = kNoFlow;
    LaneId lane = 0;
    std::uint8_t rd = 0;
    std::uint64_t local = 0;  ///< index into the port drain ticket mapping
  };
  std::vector<Prefix> prefix_reqs;
  /// Machine::SpawnRequest, flattened.
  struct Spawn {
    FlowId parent = kNoFlow;
    std::uint64_t entry = 0;
    std::vector<Word> fragments;
    LaneRegs broadcast{};
  };
  std::vector<Spawn> spawns;
  std::vector<FlowId> halted;
  std::vector<Word> prints;
  std::vector<DebugEvent> events;
  /// ctx.prof_bins as the group sealed them: sorted, equal keys folded.
  std::vector<std::pair<prof::Key, Cycle>> prof_bins;
  LaneCounts lanes{};  ///< the group's lane counts, by LaneKind
  /// Nonempty: the group's phase faulted with this message. The replica
  /// materialises it back into ctx.error so merge ordering ("lowest faulting
  /// group wins") is identical to single-process execution.
  std::string error;

  // ----- replica state only the owner advanced -----
  /// Post-phase images of the group's resident flows (overflow flows never
  /// execute, so they cannot diverge and are not shipped).
  std::vector<FlowState> flows;
  /// NUMA-mode writes are immediate (not step-buffered); replayed verbatim.
  std::vector<std::pair<Addr, Word>> local_writes;
  /// Absolute post-phase local-memory counters (reads also advance on loads
  /// the write journal cannot see).
  std::uint64_t local_reads = 0;
  std::uint64_t local_write_count = 0;
  std::uint64_t local_remote = 0;
};

}  // namespace tcfpn::machine
