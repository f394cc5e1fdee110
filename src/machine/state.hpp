// Complete machine state at a step boundary (the checkpoint layer of the
// flight recorder, DESIGN.md §8).
//
// A MachineState is everything the simulator needs to resume a run
// bit-identically: flow descriptors, scheduler queues, the three memory
// state images, network counters, raw metrics, cumulative stats, debug
// output and the step-sample series. Host-side artefacts — the schedule
// trace, host profiling spans and the router's per-packet latency Samples —
// are summaries of how a run *was produced*, not simulated state, and are
// deliberately excluded; re-stepping from a checkpoint regenerates simulated
// state exactly but not those summaries. That boundary is the replay
// contract.
//
// Checkpoints are guarded by two FNV-1a fingerprints: one over the machine
// configuration (excluding the instrumentation knobs, so a checkpoint taken
// with --profile restores into a machine without it and vice versa) and one
// over the loaded program.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "machine/machine.hpp"

namespace tcfpn::machine {

/// One flow's descriptor, flattened for the checkpoint. `step_writes` is
/// empty at every step boundary (stores commit at the barrier) and is not
/// saved; `instr_writes` and `next_unexecuted` persist — the balanced
/// variant interrupts flows mid-instruction across step boundaries.
struct FlowState {
  FlowId id = kNoFlow;
  FlowId parent = kNoFlow;
  GroupId home = 0;
  std::uint64_t pc = 0;
  FlowMode mode = FlowMode::kPram;
  Word thickness = 1;
  std::uint32_t numa_block = 1;
  FlowStatus status = FlowStatus::kReady;
  std::uint32_t live_children = 0;
  LaneId next_unexecuted = 0;
  std::vector<LaneRegs> lane_regs;
  std::vector<std::uint64_t> call_stack;
  /// instr_writes sorted by address: a canonical order keeps the serialized
  /// image byte-stable across unordered_map iteration orders.
  std::vector<std::pair<Addr, Word>> instr_writes;
  bool multiop_blocked = false;
  bool evicted_once = false;
};

/// One group's TCF storage buffer and overflow list (FIFO order preserved).
struct GroupQueueState {
  std::vector<FlowId> resident;
  std::vector<FlowId> overflow;
};

struct MachineState {
  std::uint64_t config_fingerprint = 0;
  std::uint64_t program_fingerprint = 0;

  MachineStats stats;
  std::vector<FlowState> flows;          ///< indexed by flow id
  std::vector<GroupQueueState> groups;   ///< indexed by group id
  std::vector<FlowId> pending_spawns;    ///< spawned, not yet admitted
  /// 1 = group retired via Machine::retire_group (degraded mode). Empty
  /// means all groups alive — images from before the resilience layer
  /// restore unchanged.
  std::vector<std::uint8_t> dead_groups;
  mem::SharedMemoryState shared;
  std::vector<mem::LocalMemoryState> locals;  ///< indexed by group id
  net::NetworkState net;
  metrics::RawMetrics metrics;
  std::vector<Word> debug_out;
  std::vector<StepSample> step_samples;
  /// Attribution profile (cfg.profile, src/prof). Saved and restored so a
  /// tcfdbg rollback-and-replay reproduces the exact profile a straight-line
  /// run would have produced — the replay-consistency contract the profiler
  /// tests assert. Empty when profiling is off (or for pre-profiler images).
  prof::Profile profile;
};
// Checkpoint vectors move states around (growth, ladder thinning); a member
// that loses its noexcept move would turn every such move into a deep copy.
static_assert(std::is_nothrow_move_constructible_v<MachineState>);

/// Flattens one flow descriptor into a FlowState. Checks that the
/// store-forwarding buffer is empty — the checkpoint contract — so
/// step_writes is never part of a FlowState.
FlowState capture_flow_state(const TcfDescriptor& f);

/// Installs a FlowState into an existing descriptor. Clears step_writes.
void install_flow_state(TcfDescriptor& f, const FlowState& fs);

/// FNV-1a fingerprint of the semantically relevant configuration fields.
/// record_trace, sample_every, profile_host and profile are excluded: they
/// change how a run is *observed*, never what it computes, so checkpoints
/// stay portable across telemetry knobs.
std::uint64_t config_fingerprint(const MachineConfig& cfg);

/// FNV-1a fingerprint over the program's instruction encodings and data
/// initialisers (labels are assembler bookkeeping, not semantics).
std::uint64_t program_fingerprint(const isa::Program& program);

}  // namespace tcfpn::machine
