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
//  - one step driver (DESIGN.md §10.2): the groups of a step run in group
//    order and stage their shared-memory traffic straight into the shared
//    memory, which commits it at the step's end; what a fault must not show
//    (stats, lane counts, events, prints, trace spans) waits in one effect
//    buffer (GroupCtx) that merges as each group finishes, and spawns and
//    cross-group join notices land after the last group, so a step's
//    cross-group effects never depend on which group ran first; the
//    conformance oracle checks the result.
//
// The instruction semantics (src/isa) are interpreted per lane; control
// instructions execute once per flow — that asymmetry is the TCF model's
// core economy and what the Table 1 bench measures.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
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

/// The per-lane-operation counters, one index each. Unscoped so that a
/// kind indexes a LaneCounts, or the machine's bound counters, directly.
enum LaneKind : std::size_t {
  kSharedReads,
  kSharedWrites,
  kLocalReads,
  kLocalWrites,
  kMultiopContributions,
  kPrefixContributions,
  kStoreForwards,
  kLaneKinds,  ///< the number of kinds
};

/// The machine registry path of each LaneKind's counter.
inline constexpr std::array<const char*, kLaneKinds> kLaneCounterPaths = {
    "mem/shared_reads",          "mem/shared_writes",
    "mem/local_reads",           "mem/local_writes",
    "mem/multiop_contributions", "mem/prefix_contributions",
    "mem/store_forwards",
};

/// One group's lane counts for one step, indexed by LaneKind. The group
/// adds to them as it executes; they are added into the machine registry
/// when it finishes, in group order.
using LaneCounts = std::array<std::uint64_t, kLaneKinds>;

class Machine;
struct MachineState;

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
/// while a group executes are buffered in the effect context and forwarded
/// when the group finishes, in group order — the same order as the
/// metrics — so a faulting step delivers the events of the groups below the
/// faulting one and no others.
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
  /// for every fragment). The hook runs at SPAWN execution time, in the
  /// middle of the group phase, so it must be a pure function of the
  /// thickness (no reads of mutable machine state).
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
  /// "machine/..." instruments). A group's lane counts accumulate as plain
  /// integers in the effect buffer while it executes and are added here
  /// when it finishes, in group order.
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
  /// fingerprints); the instrumentation knobs may differ.
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

  /// A deferred SPAWN: the child flows are created (and placed) after the
  /// last group, in group order, so flow ids and allocation decisions read
  /// the loads of the step's start, not of whichever group ran first.
  struct SpawnRequest {
    FlowId parent;
    std::size_t entry;
    std::vector<Word> fragments;  ///< thickness per child (splitter applied)
    LaneRegs broadcast;           ///< parent lane-0 registers at spawn time
  };

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

  /// The effect buffer of the group executing now, holding what a fault
  /// must not show: stats deltas, lane counts, events, prints and trace
  /// spans. It merges when the group finishes, unless a group of the step
  /// has faulted. Everything else a group does goes straight into the
  /// step's state (shared-memory staging, network references, multiprefix
  /// tickets, profiler bins, spawns and join notices), which only a
  /// completed step commits. No member is a map or a registry: the reset
  /// clears vectors and assigns values, with no lookups and no allocation.
  struct GroupCtx {
    MachineStats delta;  ///< counter deltas (cycles/steps stay untouched)
    LaneCounts lanes{};
    std::vector<DebugEvent> events;
    std::vector<Word> prints;
    std::vector<TraceSpan> trace;

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
  /// Step-synchronous halt: marks the flow halted and, for a parent on
  /// another group, records a join notice; the parent's live-children
  /// counter is decremented in the deferred pass, in group order.
  void halt_in_step(TcfDescriptor& f);

  /// One step-synchronous step (DESIGN.md §10.2): begin_step; then groups
  /// 0..P-1 in order, each executed and — while no group has faulted —
  /// merged; then the first fault is rethrown, or the deferred pass and
  /// finish_step run.
  bool step_synchronous();
  /// Prologue: promotes overflow, clears the profiler bins and fixes the
  /// step base. Returns false when no resident flow is ready (run over).
  bool begin_step();
  /// Runs one group's share of the current step, its effects into ctx_.
  void execute_group(GroupId g, Cycle step_base);
  /// Merges ctx_ after its group finished: stats deltas, lane counts,
  /// observer events, prints and trace. Touches no flow state.
  void merge_group();
  /// After the last group: join notices (decrement other groups' parents)
  /// and spawn creation/placement (reads group loads, grows flows_), both
  /// in group order.
  void merge_deferred();
  /// Records one shared-memory reference for the network term: ordered log
  /// under cfg.detailed_network, per-module aggregates otherwise.
  void note_ref(GroupId src, std::uint32_t module);
  /// note_ref for the references of a lane run, in lane order; leaves the
  /// run's per-module counts in run_modules_ for the shared memory.
  void note_ref_run(GroupId src, const mem::LaneRun& run);
  /// Executes up to `op_quota` operation slots of flow f (a full instruction
  /// when quota covers it). Returns ops consumed.
  std::uint64_t run_flow_slice(TcfDescriptor& f, std::uint64_t op_quota);
  std::uint64_t run_numa_block(TcfDescriptor& f);
  const isa::Instr& fetch(TcfDescriptor& f);
  /// Executes a control instruction flow-wise; returns false if the flow
  /// left the ready state (halt / join wait / thickness 0).
  bool exec_control(TcfDescriptor& f, const isa::Instr& instr);
  /// `imm` as a jump, call or spawn target of flow f; out of range faults.
  std::size_t branch_target(const TcfDescriptor& f, std::int32_t imm) const;
  void complete_instruction(TcfDescriptor& f, const isa::Instr& instr);
  Addr effective_addr(const TcfDescriptor& f, const isa::Instr& instr,
                      LaneId lane) const;
  /// The operand-storage cycles of lanes [start, start + count) of a data
  /// instruction, in closed form.
  Cycle operand_penalty_range(LaneId start, std::uint64_t count) const;
  /// The one data path: executes data instruction `instr` (anything but
  /// control and PRINT) over lanes [start, start + count) of `f`, in lane
  /// order. PRAM slices pass their lane range, NUMA blocks and the XMT
  /// lane runner one lane. Register ops run as contiguous bank sweeps (SoA,
  /// the inner loop vectorizes); on a fault at lane k (a zero divisor, a
  /// bad address) lanes before k complete and lane k raises the fault the
  /// lane-by-lane order raises. Any other opcode fails an internal check.
  void exec_lanes(TcfDescriptor& f, const isa::Instr& instr,
                  std::uint64_t start, std::uint64_t count);
  /// The one LD/ST implementation: executes a shared-memory LD or ST over
  /// lanes [start, start + count) of `f` as one sweep — every effective
  /// address computed and checked in one pass, traffic and network counts
  /// added once per instruction, LD copying committed words into bank(rd),
  /// ST staging the whole run at once. The same pass tells whether the
  /// addresses are unit-stride; such a run moves through the counts, the
  /// staging, the commit and the write log as one (address, count, values)
  /// run. On a bad address the lanes before it complete and the fault is
  /// the one the lane-by-lane order raises.
  void exec_shared_lanes(TcfDescriptor& f, const isa::Instr& instr,
                         std::uint64_t start, std::uint64_t count);
  /// The step's end: commit, the step's cost and housekeeping.
  /// The cost is one prof::StepRecord, built once: the memory term fills
  /// its net and fault parts, and one pass over the alive groups its slot
  /// term, work and limiting group (taking the occupancy samples on the
  /// way). The clock advances by prof::step_cost(record); stats, the
  /// cost-term counters and the profiler all derive from the same record.
  void finish_step();
  /// Ends every committed step, in either step path: the kStepCommitted
  /// event and on_step for the observer, if any.
  void notify_step_committed();
  /// Charges a task switch of `c` cycles for flow f: the run clock, the
  /// task-switch total, f's kSwitch profile cell and the `swap_counter`
  /// metric.
  void charge_switch(const TcfDescriptor& f, Cycle c, const char* swap_counter);
  /// The step's memory extension, in its two parts: `r.fault`, the
  /// injected fault delay consumed this step, and `r.net`, the network
  /// latency/bandwidth bound. The step body is max(slot, net + fault);
  /// keeping the parts apart lets the profiler itemize kFault vs kNet.
  void memory_term(prof::StepRecord& r);
  /// Profiler barrier work for one step-synchronous step: apportions the
  /// slot term over the merged bins (idle remainder explicit), adds the
  /// fill/net/fault machine cells and records `r` on the step tape.
  void profile_step(const prof::StepRecord& r);

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
  /// This step's deferred SPAWNs and cross-group join notices, in group
  /// order; merge_deferred applies them.
  std::vector<SpawnRequest> step_spawns_;
  std::vector<FlowId> step_halted_;
  /// Scratch of the shared-memory lane sweep (exec_shared_lanes): the run's
  /// effective addresses and its per-module reference counts (kept all-zero
  /// between sweeps).
  std::vector<Addr> lane_addrs_;
  std::vector<std::uint64_t> run_modules_;

  GroupCtx ctx_;  ///< the effect buffer of the group executing now
  Cycle step_base_ = 0;  ///< cycle the current step's slots start at

  /// dist_cache_[g][m] = topology distance from group g to module-owner
  /// group m % P, precomputed so the per-reference hot path is a table load.
  std::vector<std::vector<std::uint32_t>> dist_cache_;
  /// The step's analytic network aggregates, summed as the groups execute
  /// when cfg.detailed_network is off (the ordered step_refs_ log is then
  /// not needed): per-module reference counts, reference total, and the
  /// maximum source→module wire distance (memory_term consumes and clears
  /// them).
  std::vector<std::uint64_t> net_loads_;
  std::uint64_t net_refs_ = 0;
  std::uint32_t net_max_dist_ = 0;

  MachineStats stats_;
  ScheduleTrace trace_;
  std::vector<Word> debug_out_;
  StepObserver* observer_ = nullptr;

  /// Buffers an event of the executing group in ctx_ (no-op without an
  /// observer); forwarded when the group finishes, in group order.
  void emit(DebugEventKind kind, const TcfDescriptor& f, Word a = 0,
            Word b = 0);
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
  /// The registry's lane counters by LaneKind, bound once at construction
  /// so neither the group merge nor the XMT path pays a path lookup
  /// (registry entries are heap-allocated, so the pointers survive registry
  /// moves and restore_raw).
  std::array<metrics::Counter*, kLaneKinds> gm_{};
  StepCounters sc_;  ///< barrier-side per-step instruments
  /// Attribution profile (cfg.profile). The groups append their bins of
  /// slot-term work, charged to (group, tcf, pc, term), to step_bins_ as
  /// they execute; finish_step folds them into canonical key order and
  /// apportions the slot term over them. Direct charges
  /// (switch/sched/fill/net/fault/idle) go to profile_ immediately.
  prof::Profile profile_;
  std::vector<std::pair<prof::Key, Cycle>> step_bins_;
  std::vector<HostSpan> host_spans_;
  bool host_spans_truncated_ = false;
  std::vector<StepSample> step_samples_;
  std::chrono::steady_clock::time_point host_t0_{};
  bool host_t0_set_ = false;
};

}  // namespace tcfpn::machine
