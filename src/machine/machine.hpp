// The extended PRAM-NUMA machine simulator.
//
// Implements Section 3 of the paper: P groups of T_p TCF processors, a
// word-wise shared memory behind a distance-aware network, per-group local
// memories, a TCF storage buffer per group, and the six execution variants
// of Section 3.2 as scheduling disciplines over the same substrate.
//
// Execution model (DESIGN.md §4):
//  - step-synchronous variants advance in machine steps; shared-memory
//    writes commit at step boundaries; a flow is sequentially consistent
//    with itself via store forwarding (flow.hpp);
//  - the multi-instruction (XMT-style) variant runs flows from creation to
//    termination with immediate memory semantics and charges explicit
//    spawn/join barrier costs;
//  - cycle accounting per step: pipeline fill F plus the variant's slot
//    term, extended by the memory term (serialisation at the hottest module
//    vs wire distance — or a measured drain of the detailed router), so a
//    step only hides memory latency when it carries enough parallel slack;
//  - host parallelism: one step driver (DESIGN.md §10.2). Every group's
//    effects are buffered (GroupCtx) and merged in group order; with
//    cfg.host_threads > 1 the groups run on a persistent worker pool and
//    group g merges as soon as it seals, so cycle counts, MachineStats and
//    memory images are bit-identical for every host_threads value (the
//    determinism tests assert this).
//
// The instruction semantics (src/isa) are interpreted per lane; control
// instructions execute once per flow — that asymmetry is the TCF model's
// core economy and what the Table 1 bench measures.
#pragma once

#include <chrono>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/effect_channel.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"
#include "isa/program.hpp"
#include "machine/config.hpp"
#include "machine/flow.hpp"
#include "mem/local_memory.hpp"
#include "mem/shared_memory.hpp"
#include "net/network.hpp"
#include "prof/profile.hpp"

namespace tcfpn::machine {

struct MachineStats {
  Cycle cycles = 0;
  StepId steps = 0;
  std::uint64_t tcf_instructions = 0;   ///< instruction activations completed
  std::uint64_t operations = 0;         ///< lane-level operations executed
  std::uint64_t instruction_fetches = 0;
  std::uint64_t spawns = 0;
  std::uint64_t joins = 0;
  std::uint64_t busy_slots = 0;   ///< group-cycles spent executing operations
  std::uint64_t idle_slots = 0;   ///< group-cycles idle inside steps
  Cycle memory_wait_cycles = 0;   ///< step extension caused by the memory term
  Cycle task_switch_cycles = 0;   ///< explicit suspend/resume + buffer spills
  Cycle branch_cost_cycles = 0;   ///< SPAWN register-copy charges

  /// Fraction of in-step group capacity that did useful operations.
  double utilization() const {
    const double total = static_cast<double>(busy_slots + idle_slots);
    return total > 0 ? static_cast<double>(busy_slots) / total : 0.0;
  }

  /// Every field is an integer counter, so defaulted equality is exact —
  /// the checkpoint round-trip tests compare restored stats this way.
  bool operator==(const MachineStats&) const = default;
};

struct RunResult {
  bool completed = false;  ///< every flow halted
  Cycle cycles = 0;
  StepId steps = 0;
};

class Machine;
struct MachineState;
struct ShardGroupBatch;

/// Step-granular events for the flight-recorder layer (src/debug). Only
/// emitted while an observer is attached, so the hot path stays free of
/// journal work by default.
enum class DebugEventKind : std::uint8_t {
  kFlowCreated,       ///< a = thickness, b = parent flow (-1 for roots)
  kFlowHalted,
  kThicknessChanged,  ///< a = old thickness, b = new thickness
  kSpawn,             ///< a = spawned thickness, b = fragment count
  kJoin,              ///< a = live children at the JOINALL
  kSuspend,
  kResume,
  kEvict,
  kPrint,             ///< a = printed value
  kStepCommitted,     ///< a = cumulative cycles after the step
  kFault,             ///< a = faulting address when parsed, else 0
  // Resilience events (src/resil, DESIGN.md §9). Appended so recorded
  // tapes from earlier versions keep their kind encodings.
  kFaultInjected,     ///< a = injected fault kind, b = magnitude/address
  kRetry,             ///< a = retry attempt, b = backoff cycles charged
  kRollback,          ///< a = steps lost, b = checkpoint step restored
  kGroupRetired,      ///< a = remapped thickness, b = flows rehomed
  // Sharded-execution supervision events (src/shard, DESIGN.md §14).
  // Appended so recorded tapes from earlier versions keep their encodings.
  kShardFault,        ///< a = shard id, b = failure class (shard::Failure)
  kShardRestart,      ///< a = shard id, b = checkpoint step restored into
  kShardRetired,      ///< a = shard id, b = groups retired with it
};

const char* to_string(DebugEventKind k);

/// One recorded event. `step` is the index of the machine step during which
/// the event occurred (== MachineStats::steps before that step commits);
/// the meaning of `a`/`b` depends on `kind` (see DebugEventKind).
struct DebugEvent {
  DebugEventKind kind = DebugEventKind::kStepCommitted;
  StepId step = 0;
  FlowId flow = kNoFlow;
  GroupId group = 0;
  Word a = 0;
  Word b = 0;

  bool operator==(const DebugEvent&) const = default;
};

/// Observer interface implemented by debug::FlightRecorder. Events produced
/// during the per-group phase are buffered in the group's effect context and
/// forwarded at the step barrier in group order — the same determinism
/// contract as metrics — so an observer sees the exact same sequence for
/// every cfg.host_threads value. All callbacks run on the stepping thread.
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  virtual void on_event(const DebugEvent& ev) = 0;
  /// Called after a step fully committed (housekeeping done, stats advanced).
  virtual void on_step(Machine& m) = 0;
  /// Called when a SimError is about to propagate out of Machine::step().
  /// The machine's mid-step state is in general not consistent afterwards;
  /// only restore_state() (or read-only inspection for a post-mortem) is
  /// legal from then on.
  virtual void on_fault(const std::string& message, Machine& m) = 0;
};

/// One point of the optional per-step time series (cfg.sample_every): the
/// cumulative MachineStats counters as they stood after sampled steps.
struct StepSample {
  StepId step = 0;
  Cycle cycles = 0;
  std::uint64_t operations = 0;
  std::uint64_t busy_slots = 0;
  std::uint64_t idle_slots = 0;
  std::uint64_t live_flows = 0;
};

class Machine {
 public:
  explicit Machine(MachineConfig cfg);

  // ----- program & flow setup -----
  void load(const isa::Program& program);
  const isa::Program& program() const { return program_; }

  /// Creates a root flow at the program entry. Returns its id.
  FlowId boot(Word thickness = 1);
  /// Creates a root flow at an explicit pc on an explicit group.
  FlowId boot_at(std::size_t pc, Word thickness, GroupId home);

  // ----- execution -----
  /// Runs machine steps until every flow halts or `max_steps` elapse.
  RunResult run(std::uint64_t max_steps = 10'000'000);
  /// Executes one machine step. Returns false when no flow can progress.
  bool step();
  bool done() const;

  // ----- task management (used by src/sched) -----
  /// Suspends a ready flow; returns (and accounts) the switch-out cost.
  Cycle suspend_flow(FlowId id);
  /// Makes a suspended flow ready again; returns the switch-in cost. If the
  /// flow is not resident in its group's TCF buffer and the buffer is full,
  /// a suspended resident flow is evicted (its swap-out cost included).
  Cycle resume_flow(FlowId id);

  /// Forces a flow out of its group's TCF buffer into the overflow list;
  /// returns the swap-out cost. The next promotion pays the swap-in.
  Cycle evict_flow(FlowId id);
  /// Adds external cycles (scheduler decisions) to the run clock.
  void charge(Cycle c);

  /// Placement policy for spawned flows; default = least loaded group.
  using AllocationHook = std::function<GroupId(const TcfDescriptor& child)>;
  void set_allocation_hook(AllocationHook hook) { alloc_ = std::move(hook); }

  /// OS-level automatic splitting of overly thick flows (Section 3.3: "the
  /// OS can split such flows automatically"). When set, every SPAWN's
  /// thickness is passed to the hook, which returns the fragment
  /// thicknesses to create instead (return {thickness} to keep one flow).
  /// Each fragment flow receives its base lane offset in register r15 —
  /// the fragment convention used by sched:: and the fragment kernels —
  /// and all fragments are children of the spawning flow (JOINALL waits
  /// for every fragment). The hook runs at SPAWN execution time — under
  /// host_threads > 1 possibly on a worker thread — so it must be a pure
  /// function of the thickness (no reads of mutable machine state).
  using SpawnSplitter = std::function<std::vector<Word>(Word thickness)>;
  void set_spawn_splitter(SpawnSplitter hook) { splitter_ = std::move(hook); }

  // ----- accessors -----
  const MachineConfig& config() const { return cfg_; }
  mem::SharedMemory& shared() { return shared_; }
  const mem::SharedMemory& shared() const { return shared_; }
  mem::LocalMemory& local(GroupId g);
  net::Network& network() { return *net_; }
  const MachineStats& stats() const { return stats_; }
  const ScheduleTrace& trace() const { return trace_; }
  const std::vector<Word>& debug_output() const { return debug_out_; }

  /// The machine's metrics registry ("net/...", "mem/...", "sched/...",
  /// "machine/..." instruments). Per-group counters accumulate in each
  /// group's effect buffer during the parallel phase and merge here at the
  /// step barrier in group order, so a snapshot is bit-identical for every
  /// cfg.host_threads value.
  metrics::MetricsRegistry& metrics() { return metrics_; }
  const metrics::MetricsRegistry& metrics() const { return metrics_; }
  metrics::MetricsSnapshot metrics_snapshot() const {
    return metrics_.snapshot();
  }

  /// Wall-clock phase timings recorded when cfg.profile_host is set.
  const std::vector<HostSpan>& host_spans() const { return host_spans_; }
  /// True when host_span() hit the kMaxHostSpans cap and dropped spans —
  /// exported so --trace-json never looks complete when it is not.
  bool host_spans_truncated() const { return host_spans_truncated_; }
  /// The attribution profile accumulated while cfg.profile is set. Conserves
  /// cycles (attributed() == stats().cycles) when profiling was on from
  /// machine construction.
  const prof::Profile& profile() const { return profile_; }
  /// Per-step time series recorded when cfg.sample_every > 0.
  const std::vector<StepSample>& step_samples() const { return step_samples_; }

  // ----- flight recorder / time travel (src/debug, DESIGN.md §8) -----
  /// Attaches (or detaches, with nullptr) the step observer. Not owned.
  void set_observer(StepObserver* obs) { observer_ = obs; }
  StepObserver* observer() const { return observer_; }

  /// Captures the complete simulated state at the current step boundary
  /// (flows, scheduler queues, memories, network counters, raw metrics,
  /// stats, debug output, step samples). Host-side artefacts — the schedule
  /// trace and host profiling spans — are summaries, not simulated state,
  /// and are excluded: that is the replay contract's documented boundary.
  /// Defined in state.cpp.
  MachineState save_state() const;
  /// Restores a save_state() image. The machine must have been constructed
  /// with an equivalent config and loaded with the same program (checked via
  /// fingerprints); host_threads and instrumentation knobs may differ.
  /// Legal at any time, including after a fault aborted a step mid-way.
  void restore_state(const MachineState& s);

  /// Sets a lane register of a flow before running (front-end/test setup).
  void poke_reg(FlowId id, LaneId lane, std::uint8_t reg, Word value);
  /// Reads a lane register of a flow (result checking).
  Word peek_reg(FlowId id, LaneId lane, std::uint8_t reg) const;

  const TcfDescriptor* find_flow(FlowId id) const;
  std::size_t live_flows() const;  ///< flows not yet halted
  /// Flows currently resident in group g's TCF storage buffer.
  std::size_t resident_flows(GroupId g) const;

  // ----- graceful degradation (src/resil, DESIGN.md §9) -----
  /// Permanently retires group `g` after a fatal injected fault: every flow
  /// homed there (resident, overflow, pending spawn) is rehomed onto the
  /// least-loaded surviving group — the Section 3.1 thickness
  /// redistribution — paying the non-resident task-switch cost per moved
  /// flow, and the group stops contributing capacity to the cost model.
  /// Returns the total thickness remapped. At least one group must survive.
  Word retire_group(GroupId g);
  bool group_alive(GroupId g) const {
    return g < dead_.size() && dead_[g] == 0;
  }
  std::uint32_t alive_groups() const;

  /// The pipeline fill charged per machine step: cfg().pipeline_fill on the
  /// uniform machine, else the max of group_fill(g) over alive groups
  /// (lockstep drains the deepest pipe). Recomputed when a group retires or
  /// a checkpoint is restored.
  std::uint32_t step_fill() const { return step_fill_; }

  /// Sum of thickness of the ready flows homed on group g (resident,
  /// overflow and pending spawns) — the load the placement-aware LPT
  /// scheduler divides by per-group throughput.
  Word resident_thickness(GroupId g) const;

  // ----- sharded stepping (src/shard, DESIGN.md §14) -----
  //
  // Multi-process execution keeps a full deterministic machine replica in
  // every process; only the per-group phase is partitioned. Each replica
  // executes the groups it *owns*, exports one ShardGroupBatch per owned
  // group (the sealed GroupCtx plus the post-phase flow states and
  // local-memory deltas), installs every other group's batch, and then runs
  // the identical barrier merge — so all replicas hold bit-identical state
  // at every step boundary, and memory/PRINT/metrics match --shards 1.
  //
  // Step protocol (all replicas in lockstep):
  //   if (!shard_begin_step()) -> run over (replicated decision)
  //   for each owned g: batch = shard_extract(g)   // exchange batches
  //   for each non-owned g: shard_install(batch_g)
  //   shard_finish_step()                          // merge + cost + commit
  //
  // shard_finish_step throws SimError exactly where a single-process step()
  // would (lowest faulting group wins); the supervisor commits first and
  // only releases batches to workers on success, so workers never execute a
  // faulting merge. Defined in shard_step.cpp.

  /// Enters (or with an empty vector leaves) sharded stepping: `owned[g]`
  /// != 0 marks groups this replica executes. Requires a step-synchronous
  /// variant. Also forces debug-event capture into the group contexts even
  /// without an observer — the owning replica may not be the one journaling.
  void set_shard_mode(std::vector<std::uint8_t> owned);
  bool shard_mode() const { return shard_mode_; }
  /// The step's prologue and dispatch: promotes overflow, resets every
  /// group context and executes the owned groups' share of the step.
  /// Returns false (and executes nothing) when no flow anywhere is ready —
  /// the replicated end-of-run decision.
  bool shard_begin_step();
  /// Exports the sealed effect batch of owned group `g` (legal after
  /// shard_begin_step returned true, before shard_finish_step).
  ShardGroupBatch shard_extract(GroupId g) const;
  /// Installs a batch received for a non-owned group: materialises the
  /// group context, overwrites the group's flow states with the owner's
  /// post-phase images and replays its local-memory delta.
  void shard_install(const ShardGroupBatch& b);
  /// Barrier half of the sharded step: the merge loop of step_synchronous()
  /// — every group context merged in group order, the variant slot term and
  /// the commit.
  void shard_finish_step();

 private:
  struct PendingPrefix {
    FlowId flow;
    LaneId lane;
    std::uint8_t rd;
    std::size_t ticket;
  };
  struct GroupState {
    std::vector<FlowId> resident;  ///< the TCF storage buffer (FIFO order)
    std::vector<FlowId> overflow;  ///< ready flows waiting for a buffer slot
    std::uint64_t step_ops = 0;    ///< operations executed this step
  };

  /// A deferred SPAWN: the child flows are created (and placed) at the step
  /// barrier, in group order, so flow ids and allocation decisions do not
  /// depend on how host threads interleave the per-group phase.
  struct SpawnRequest {
    FlowId parent;
    std::size_t entry;
    std::vector<Word> fragments;  ///< thickness per child (splitter applied)
    LaneRegs broadcast;           ///< parent lane-0 registers at spawn time
  };

  /// A multiprefix issued this step; `local` indexes into the group port's
  /// drain() ticket mapping.
  struct PrefixRequest {
    FlowId flow;
    LaneId lane;
    std::uint8_t rd;
    std::size_t local;
  };

  /// Raw pointers to the per-lane-operation counters of one registry, bound
  /// once at construction so the hot path never pays a path lookup.
  struct LaneCounters {
    metrics::Counter* shared_reads = nullptr;
    metrics::Counter* shared_writes = nullptr;
    metrics::Counter* local_reads = nullptr;
    metrics::Counter* local_writes = nullptr;
    metrics::Counter* multiop_contributions = nullptr;
    metrics::Counter* prefix_contributions = nullptr;
    metrics::Counter* store_forwards = nullptr;
  };

  /// Registers the per-lane-operation counters in `reg` and caches their
  /// addresses in `lc` (registry entries are heap-allocated, so the pointers
  /// survive registry moves).
  static void bind_lane_counters(metrics::MetricsRegistry& reg,
                                 LaneCounters& lc);

  /// Barrier-side per-step instruments, bound once at construction so
  /// finish_step and memory_term never pay a registry path lookup.
  struct StepCounters {
    metrics::Counter* pipeline_fill_cycles = nullptr;
    metrics::Counter* slot_term_cycles = nullptr;
    metrics::Counter* memory_term_cycles = nullptr;
    metrics::Counter* memory_wait_cycles = nullptr;
    Accumulator* slot_occupancy = nullptr;
    Accumulator* overflow_depth = nullptr;
    Accumulator* hot_module_load = nullptr;
    Accumulator* wire_distance = nullptr;
  };

  /// Per-group effect buffer for one machine step. During the per-group
  /// phase a group's execution touches only its own flows, its local memory
  /// and this context; everything cross-group (stats, shared-memory staging,
  /// spawns, join notifications, trace, debug prints, memory-term refs,
  /// metric counters) accumulates here and is merged at the step barrier in
  /// group order — the determinism contract of the parallel stepping engine.
  struct GroupCtx {
    mem::MemoryPort port;
    MachineStats delta;  ///< counter deltas (cycles/steps stay untouched)
    std::vector<std::pair<GroupId, std::uint32_t>> refs;  ///< (src, module)
    /// Analytic network-term aggregates, maintained in the parallel phase
    /// when cfg.detailed_network is off (the ordered `refs` log is then not
    /// needed): per-module reference counts, reference total, and the
    /// maximum source→module wire distance seen this step.
    std::vector<std::uint64_t> net_loads;
    std::uint64_t net_refs = 0;
    std::uint32_t net_max_dist = 0;
    /// Scratch of the shared-memory lane sweep (exec_shared_lanes): the
    /// run's effective addresses and its per-module reference counts (kept
    /// all-zero between sweeps).
    std::vector<Addr> lane_addrs;
    std::vector<std::uint64_t> run_modules;
    std::vector<PrefixRequest> prefix_reqs;
    std::vector<SpawnRequest> spawns;
    std::vector<FlowId> halted;  ///< flows halted this step (join notices)
    std::vector<Word> prints;
    std::vector<TraceSpan> trace;
    std::exception_ptr error;
    metrics::MetricsRegistry metrics;  ///< merged at the barrier, group order
    LaneCounters lanes;                ///< bound into `metrics`
    std::vector<DebugEvent> events;    ///< forwarded at the barrier, group order
    /// Attribution bins for the profiler (cfg.profile): cycles of slot-term
    /// work charged to (group, tcf, pc, term) during the parallel phase;
    /// merged at the barrier in group order like everything else here. A
    /// std::map so the per-group bin order is already canonical.
    std::map<prof::Key, Cycle> prof_bins;

    void reset();
  };

  TcfDescriptor& flow(FlowId id);
  TcfDescriptor& make_flow(std::size_t pc, Word thickness, GroupId home,
                           FlowId parent);
  GroupId pick_group(const TcfDescriptor& child) const;
  GroupId least_loaded_alive() const;
  std::uint64_t group_load(GroupId g) const;
  void recompute_step_fill();
  void admit_pending_spawns();
  void promote_overflow(GroupId g);
  void on_flow_halted(TcfDescriptor& f);
  /// Step-synchronous halt: marks the flow halted and records a join notice
  /// in its group context; the parent's live-children counter is decremented
  /// at the step barrier (deterministic under host parallelism).
  void halt_in_step(TcfDescriptor& f);

  // step-synchronous execution: one driver, shared with the sharded step
  // (prologue, dispatch, merge loop; DESIGN.md §10.2)
  bool step_synchronous();
  /// Prologue: promotes overflow, clears the profiler bins and fixes the
  /// step base. Returns false when no resident flow is ready (run over).
  bool begin_step();
  /// Dispatch: runs every group's share of the step, inline without a pool,
  /// else as a pool job whose groups publish on their seal channels and
  /// which stays open for the merge loop.
  void dispatch_groups();
  /// One group's share of the step into step_ctx_[g], its fault captured in
  /// the context. A shard replica executes only the groups it owns.
  void run_group(GroupId g);
  /// Waits for the open pool job to finish.
  void end_group_job();
  /// Merge loop: merges groups in order 0..P-1 (awaiting each seal while a
  /// pool job is open), stops at the lowest faulting group after every
  /// group finished executing, then runs the deferred pass, the slot term
  /// and finish_step.
  void merge_step();
  /// The variant slot term over the merged per-group work (the max over
  /// alive groups of the heterogeneous-clock ceiling division).
  Cycle synchronous_slot_term() const;
  /// Runs one group's share of the current step into step_ctx_[g].
  void execute_group(GroupId g, Cycle step_base);
  /// First merge pass for one group: observer events, stats deltas, metric
  /// counters, network aggregates, port drain + prefix ticket mapping,
  /// prints and trace. Touches no flow state, so the stepping thread may run
  /// it for group g while higher groups are still executing.
  void stream_merge_group(GroupId g);
  /// Second merge pass for one group, after every group finished: join
  /// notices (decrement other groups' parents) and spawn creation/placement
  /// (reads group loads, grows flows_).
  void deferred_merge_group(GroupId g);
  /// True when a group's step produced no cross-group effects — the merge
  /// fast path then reduces to six integer adds (the stats deltas).
  bool group_quiet(const GroupCtx& ctx) const;
  /// Records one shared-memory reference for the network term: ordered log
  /// under cfg.detailed_network, per-module aggregates otherwise.
  void note_ref(GroupCtx& ctx, GroupId src, std::uint32_t module);
  /// note_ref for the `n` references of a lane run, in lane order; leaves
  /// the run's per-module counts in ctx.run_modules for the memory port.
  void note_ref_run(GroupCtx& ctx, GroupId src, const Addr* addr,
                    std::uint64_t n);
  /// Executes up to `op_quota` operation slots of flow f (a full instruction
  /// when quota covers it). Returns ops consumed.
  std::uint64_t run_flow_slice(TcfDescriptor& f, std::uint64_t op_quota);
  std::uint64_t run_numa_block(TcfDescriptor& f);
  const isa::Instr& fetch(TcfDescriptor& f);
  void exec_data_lane(TcfDescriptor& f, const isa::Instr& instr, LaneId lane);
  /// Executes a control instruction flow-wise; returns false if the flow
  /// left the ready state (halt / join wait / thickness 0).
  bool exec_control(TcfDescriptor& f, const isa::Instr& instr);
  void complete_instruction(TcfDescriptor& f, const isa::Instr& instr);
  Word read_operand_b(const TcfDescriptor& f, const isa::Instr& instr,
                      LaneId lane) const;
  Word alu(const isa::Instr& instr, Word a, Word b) const;
  Addr effective_addr(const TcfDescriptor& f, const isa::Instr& instr,
                      LaneId lane) const;
  Cycle operand_penalty(LaneId lane) const;
  /// Closed-form sum of operand_penalty(lane) over [start, start + count):
  /// the vectorized ALU path charges a whole instruction at once.
  Cycle operand_penalty_range(LaneId start, std::uint64_t count) const;
  /// Register-to-register fast path: executes `instr` over lanes
  /// [start, start + count) of `f` as contiguous bank sweeps (SoA, inner
  /// loop vectorizes). Returns false when the opcode needs another path
  /// (memory traffic, faulting divides).
  bool exec_alu_lanes(TcfDescriptor& f, const isa::Instr& instr,
                      std::uint64_t start, std::uint64_t count);
  /// The one LD/ST implementation: executes a shared-memory LD or ST over
  /// lanes [start, start + count) of `f` as one sweep — every effective
  /// address computed and checked in one pass, traffic and network counts
  /// added once per instruction, LD copying committed words into bank(rd),
  /// ST staging the whole run at once. On a bad address the lanes before it
  /// complete and the fault is the one the lane-by-lane order raises.
  /// Returns false for any other opcode.
  bool exec_shared_lanes(TcfDescriptor& f, const isa::Instr& instr,
                         std::uint64_t start, std::uint64_t count);
  void finish_step(Cycle slot_term_max, const std::vector<Cycle>& group_work);
  /// Ends every committed step, in either step path: the kStepCommitted
  /// event and on_step for the observer, if any.
  void notify_step_committed();
  /// Charges a task switch of `c` cycles for flow f: the run clock, the
  /// task-switch total, f's kSwitch profile cell and the `swap_counter`
  /// metric.
  void charge_switch(const TcfDescriptor& f, Cycle c, const char* swap_counter);
  /// The two components of the step's memory extension: the injected fault
  /// delay consumed this step and the network latency/bandwidth bound. The
  /// step body is max(slot term, fault + bound); keeping the parts separate
  /// lets the profiler itemize kFault vs kNet exactly.
  struct MemTerm {
    Cycle fault = 0;
    Cycle bound = 0;
  };
  MemTerm memory_term();
  /// Profiler barrier work for one step-synchronous step: apportions the
  /// slot term over the merged bins (idle remainder explicit), adds the
  /// fill/net/fault machine cells and the step record. `body` is the step
  /// body actually charged (max(slot, fault + bound)).
  void profile_step(Cycle slot_term_max, MemTerm mt, Cycle body,
                    const std::vector<Cycle>& group_work);

  // multi-instruction (XMT) execution
  bool step_multi_instruction();
  std::uint64_t run_lane_to_event(TcfDescriptor& f, LaneId lane,
                                  std::size_t& lane_pc, bool& halted,
                                  bool& wants_join);

  MachineConfig cfg_;
  isa::Program program_;
  mem::SharedMemory shared_;
  std::vector<mem::LocalMemory> locals_;
  std::unique_ptr<net::Network> net_;
  AllocationHook alloc_;
  SpawnSplitter splitter_;

  std::vector<std::unique_ptr<TcfDescriptor>> flows_;
  std::vector<GroupState> groups_;
  std::vector<std::uint8_t> dead_;  ///< 1 = group retired (degraded mode)
  std::uint32_t step_fill_ = 0;     ///< see step_fill(); kept in sync with
                                    ///< dead_ + the heterogeneous shape
  std::vector<FlowId> pending_spawns_;
  std::vector<PendingPrefix> pending_prefixes_;
  std::vector<std::pair<GroupId, std::uint32_t>> step_refs_;  ///< (src, module)

  std::vector<GroupCtx> step_ctx_;  ///< one effect buffer per group
  bool shard_mode_ = false;         ///< sharded stepping active
  std::vector<std::uint8_t> shard_owned_;  ///< groups this replica executes
  /// Per-step local-memory write journals, one per owned group, captured
  /// during shard_begin_step and shipped in the group's batch.
  std::vector<std::vector<std::pair<Addr, Word>>> shard_local_writes_;
  std::unique_ptr<common::ThreadPool> pool_;  ///< nullptr => inline groups
  /// One seal channel per group (with pool_): the worker publishes after
  /// sealing its GroupCtx; the merge loop consumes them in group order while
  /// higher groups still execute.
  std::unique_ptr<common::EffectChannel[]> channels_;
  std::function<void(std::size_t)> group_job_;  ///< the pool job of a step
  bool job_open_ = false;  ///< a step's pool job is running
  Cycle step_base_ = 0;    ///< cycle the current step's slots start at
  double phase_t0_ = 0;    ///< host-span start of the current step phase

  /// dist_cache_[g][m] = topology distance from group g to module-owner
  /// group m % P, precomputed so the per-reference hot path is a table load.
  std::vector<std::vector<std::uint32_t>> dist_cache_;
  /// Merged analytic network aggregates for the current step (memory_term
  /// consumes and clears them).
  std::vector<std::uint64_t> net_loads_;
  std::uint64_t net_refs_ = 0;
  std::uint32_t net_max_dist_ = 0;
  std::vector<Cycle> group_work_;  ///< per-step scratch, reused across steps
  std::uint64_t merge_skips_ = 0;  ///< quiet-group merges taken (plain member,
                                   ///< not a metric: a host-side count)

 public:
  /// Group merges short-circuited by the quiet-group fast path (perf
  /// introspection for tests and benches; not part of the metrics snapshot).
  std::uint64_t merge_skips() const { return merge_skips_; }

 private:

  MachineStats stats_;
  ScheduleTrace trace_;
  std::vector<Word> debug_out_;
  StepObserver* observer_ = nullptr;

  /// Buffers a group-phase event into the group's effect context (no-op
  /// without an observer); forwarded at the step barrier in group order.
  void emit(GroupCtx& ctx, DebugEventKind kind, const TcfDescriptor& f,
            Word a = 0, Word b = 0);
  /// Emits a barrier-side / sequential-path event directly.
  void emit_now(DebugEventKind kind, FlowId flow, GroupId group, Word a = 0,
                Word b = 0);

  // ---- telemetry ----
  /// Microseconds since the first host-profiling observation.
  double host_clock_us();
  /// Appends a HostSpan named `name` covering [start_us, now] (main-thread
  /// only; bounded so pathological runs cannot exhaust memory).
  void host_span(const char* name, double start_us);
  void maybe_sample_step();

  metrics::MetricsRegistry metrics_;
  LaneCounters gm_;  ///< machine-level lane counters (single-threaded paths)
  StepCounters sc_;  ///< barrier-side per-step instruments
  /// Attribution profile (cfg.profile). Group bins stream into step_bins_
  /// at the barrier in group order, finish_step apportions the slot term
  /// over them; direct charges (switch/sched/fill/net/fault/idle) go to
  /// profile_ immediately on the stepping thread.
  prof::Profile profile_;
  std::vector<std::pair<prof::Key, Cycle>> step_bins_;
  std::vector<HostSpan> host_spans_;
  bool host_spans_truncated_ = false;
  std::vector<StepSample> step_samples_;
  std::chrono::steady_clock::time_point host_t0_{};
  bool host_t0_set_ = false;
};

}  // namespace tcfpn::machine
