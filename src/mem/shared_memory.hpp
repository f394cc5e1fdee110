// The emulated shared memory of the (extended) PRAM-NUMA machine.
//
// Section 2.1/3.1 of the paper: a word-wise accessible global shared memory,
// physically distributed over M memory modules, accessed in synchronous
// steps. This class implements the *memory semantics* of that model:
//
//  - module interleaving: word address a lives in module a mod M (the
//    standard ESM randomization point; callers may also supply their own
//    hashed placement through `set_address_hash`);
//  - step-synchronous visibility: reads performed during step s observe the
//    state committed at the end of step s-1; all writes of step s become
//    visible atomically at commit_step();
//  - concurrent-access policies: EREW / CREW / Common / Arbitrary / Priority
//    CRCW, enforced per step with SimError on violation;
//  - multioperations (MPADD/MPMAX/MPMIN/MPAND/MPOR): all same-address
//    contributions of a step combine into one value (active memory, as in
//    SB-PRAM and ECLIPSE);
//  - ordered multiprefix: each participant additionally receives the
//    reduction of the *preceding* participants (ordered by lane id) combined
//    with the cell's previous value — the `prefix(...)` primitive used by
//    Section 4's examples.
//
// Network latency and congestion are modelled separately (src/net); this
// class only counts per-module traffic so the machine layer can couple the
// two.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/types.hpp"

namespace tcfpn::mem {

enum class CrcwPolicy : std::uint8_t {
  kErew,       ///< exclusive read, exclusive write
  kCrew,       ///< concurrent read, exclusive write
  kCommon,     ///< concurrent writes allowed if all write the same value
  kArbitrary,  ///< one of the concurrent writes wins (lowest lane, for determinism)
  kPriority,   ///< lowest lane id wins
};

enum class MultiOp : std::uint8_t { kAdd, kMax, kMin, kAnd, kOr };

/// Applies a multioperation to two words.
Word apply_multiop(MultiOp op, Word a, Word b);

const char* to_string(CrcwPolicy policy);
const char* to_string(MultiOp op);

/// Per-step, per-module traffic counters (reset at commit_step()).
struct ModuleTraffic {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t multiops = 0;
  std::uint64_t total() const { return reads + writes + multiops; }
};

class SharedMemory;

/// One staged (pre-commit) write as a port buffers it during the group
/// phase.
struct StagedWrite {
  Addr addr;
  Word value;
  LaneId lane;
};

/// One staged multioperation / multiprefix contribution.
struct StagedMulti {
  Addr addr;
  MultiOp op;
  Word value;
  LaneId lane;
  bool prefix;
};

/// The lanes of one thick LD or ST as its address pass found them: `n`
/// lanes with lane keys lane0, lane0 + 1, ..., at addresses addr[0..n),
/// every one already range-checked. `unit` marks a unit-stride run,
/// addr[i] == addr[0] + i for every lane: the memory path then carries it
/// as (first address, first lane key, count, values) instead of per-lane
/// records.
struct LaneRun {
  const Addr* addr = nullptr;
  std::size_t n = 0;
  LaneId lane0 = 0;
  bool unit = false;
};

/// A per-group staging port for concurrent host-side stepping.
///
/// During the per-group phase of a machine step every group issues its
/// shared-memory traffic through its own port: reads return the committed
/// (pre-step) state — safe to perform concurrently, since nothing mutates
/// the store mid-step — while writes and multioperations are buffered in
/// issue order. Traffic accounting is order-insensitive, so the port
/// pre-aggregates it per module during the group phase (the caller
/// supplies the per-module counts, which it already computed for the
/// network term); the barrier-side drain then adds P short count vectors
/// instead of replaying every access. Unit-stride write runs stay runs
/// while they ascend without overlap; any other write is a per-lane
/// record, and seal() sorts and collapses the records at the end of the
/// group's phase. Draining ports in a fixed group order keeps traffic
/// counters, CRCW checks and multiprefix ticket numbering in group order.
class MemoryPort {
 public:
  MemoryPort() = default;
  explicit MemoryPort(const SharedMemory* shm) { attach(shm); }

  void attach(const SharedMemory* shm);

  /// Committed-state read (concurrent-safe); accounting lands at drain().
  Word read(Addr a, LaneId lane, std::uint32_t module);
  /// Stages a multioperation contribution.
  void multiop(Addr a, MultiOp op, Word v, LaneId lane, std::uint32_t module);
  /// Stages a multiprefix contribution; returns a port-local request index.
  /// drain() returns the global ticket base; global = base + local.
  std::size_t multiprefix(Addr a, MultiOp op, Word v, LaneId lane,
                          std::uint32_t module);

  /// Lane-run access for a thick LD/ST. `per_module[m]` counts the run's
  /// lanes at module m; it is added to the port's traffic once, not lane by
  /// lane. read_run copies the committed words into `out` (nullptr discards
  /// them), a unit run in one copy. write_run stages the run's writes for
  /// the next commit: a unit run that starts past every run staged before
  /// it, with no record staged before it, stays one run (its values copied
  /// once); anything else turns the port's runs into records, in issue
  /// order, and appends per-lane records.
  void read_run(const LaneRun& run, const std::uint64_t* per_module,
                Word* out);
  void write_run(const LaneRun& run, const Word* value,
                 const std::uint64_t* per_module);

  /// Sorts the staged records by (addr, lane) and collapses same-key runs
  /// to the last staged value (program order within the port); records
  /// already in strict (addr, lane) order are left as they are. Afterwards
  /// they are strictly ordered. Staged unit runs need nothing: they ascend
  /// without overlap. Called at the end of the group phase; drain()
  /// requires it.
  void seal();

  bool empty() const {
    return n_reads_ == 0 && writes_.empty() && runs_.empty() &&
           multis_.empty();
  }
  void clear();

 private:
  friend class SharedMemory;

  /// A staged unit run: lanes lane, lane + 1, ... write cells addr,
  /// addr + 1, ...; the n values sit at run_values_[at, at + n).
  struct StagedRun {
    Addr addr;
    LaneId lane;
    std::size_t n;
    std::size_t at;
  };

  /// Turns the staged unit runs into records, in issue order.
  void expand_runs();

  const SharedMemory* shm_ = nullptr;
  std::vector<StagedWrite> writes_;  ///< issue order until seal()
  /// Unit runs in issue order, ascending and disjoint; only while writes_
  /// is empty.
  std::vector<StagedRun> runs_;
  std::vector<Word> run_values_;
  std::vector<StagedMulti> multis_;  ///< issue order (= ticket order)
  std::vector<std::pair<Addr, LaneId>> reads_;  ///< EREW accounting only
  std::vector<std::uint64_t> mod_reads_;   ///< per-module read counts
  std::vector<std::uint64_t> mod_writes_;  ///< per-module write counts
  std::vector<std::uint64_t> mod_multis_;  ///< per-module multiop counts
  std::uint64_t n_reads_ = 0;
  std::size_t prefixes_ = 0;
  bool sealed_ = false;
};

/// Committed state of a SharedMemory at a step boundary (checkpoint layer,
/// DESIGN.md §8). Mid-step staging (pending writes/multis, step reads,
/// per-step traffic) is empty at every boundary and therefore not part of
/// the state. The multiprefix result table is restored zeroed but sized:
/// results are delivered to their lanes in the same machine step that
/// produces them and never read again afterwards.
struct SharedMemoryState {
  std::vector<Word> store;
  StepId step = 0;
  std::size_t next_ticket = 0;
  std::uint64_t total_reads = 0;
  std::uint64_t total_writes = 0;
  std::uint64_t total_multiops = 0;
  std::vector<ModuleTraffic> last_traffic;
};

class SharedMemory {
 public:
  /// `words` cells of shared memory spread over `modules` modules.
  SharedMemory(std::size_t words, std::uint32_t modules,
               CrcwPolicy policy = CrcwPolicy::kArbitrary);

  std::size_t size() const { return store_.size(); }
  std::uint32_t modules() const { return modules_; }
  CrcwPolicy policy() const { return policy_; }
  void set_policy(CrcwPolicy p) { policy_ = p; }

  /// Module that owns address `a` under the current placement.
  std::uint32_t module_of(Addr a) const {
    if (hash_) return hashed_module(a);
    return static_cast<std::uint32_t>(pow2_modules_ ? a & (modules_ - 1)
                                                    : a % modules_);
  }

  /// Installs a custom address->module placement (e.g. a hashed placement to
  /// break hot modules). Must map into [0, modules).
  void set_address_hash(std::function<std::uint32_t(Addr)> hash);

  /// Adds to per_module[m] the lanes of `run` that module m owns. A unit
  /// run under the interleaved placement takes the closed form: module
  /// (m0 + k) mod M owns n / M lanes, plus one when k < n mod M. Any other
  /// run, or a custom placement, counts lane by lane.
  void count_modules(const LaneRun& run, std::uint64_t* per_module) const;

  /// Faults (SimError) when `a` lies outside the memory.
  void check_addr(Addr a) const;

  // ----- step-synchronous access (PRAM mode) -----

  /// Read the value committed before the current step.
  Word read(Addr a, LaneId lane);

  /// Stage a write; visible after commit_step().
  void write(Addr a, Word v, LaneId lane);

  /// Stage a multioperation contribution; combined at commit_step().
  void multiop(Addr a, MultiOp op, Word v, LaneId lane);

  /// Stage a multiprefix contribution. Returns a ticket whose result — the
  /// cell's pre-step value combined with all strictly-lower-lane
  /// contributions to the same cell — is readable after commit_step().
  std::size_t multiprefix(Addr a, MultiOp op, Word v, LaneId lane);

  /// Result of a multiprefix ticket from the *previous* commit.
  Word prefix_result(std::size_t ticket) const;

  /// Absorbs a sealed port's staged traffic into this memory: per-module
  /// counts are added in bulk; the port's unit runs stay runs when they
  /// continue the pending runs in ascending, disjoint order (their values
  /// are taken over, not copied) and become records otherwise; its sorted
  /// records are appended; multioperations replay in issue order. Returns
  /// the global ticket base assigned to the port's multiprefix requests:
  /// port-local index i became ticket base + i. Draining ports in a fixed
  /// order makes a host-parallel step bit-identical to a sequential one.
  std::size_t drain(MemoryPort& port);

  /// Ends the step: applies writes under the CRCW policy, combines
  /// multioperations, computes multiprefix results, resets traffic counters
  /// into the last-step snapshot, and advances the step number.
  void commit_step();

  // ----- out-of-band access (initialisation, result checking, NUMA path) ---

  /// Immediate read of committed state without traffic accounting.
  Word peek(Addr a) const;
  /// Immediate write to committed state (test/benchmark setup only).
  void poke(Addr a, Word v);

  // ----- statistics -----
  StepId step() const { return step_; }
  /// Traffic each module received during the last committed step.
  const std::vector<ModuleTraffic>& last_step_traffic() const {
    return last_traffic_;
  }
  /// Maximum single-module load of the last committed step (the serialisation
  /// bound: a module serves one request per cycle).
  std::uint64_t last_step_max_module_load() const;
  std::uint64_t total_reads() const { return total_reads_; }
  std::uint64_t total_writes() const { return total_writes_; }
  std::uint64_t total_multiops() const { return total_multiops_; }

  /// Registers commit-side instruments under "mem/" in `reg`: cells written
  /// per commit, cells that saw concurrent writers, and multiop cells
  /// combined. Commits run single-threaded at the step barrier, so the
  /// instruments need no synchronisation. Pass nullptr to detach.
  void bind_metrics(metrics::MetricsRegistry* reg);

  // ----- checkpointing -----
  /// Committed state for a checkpoint (call only at a step boundary).
  SharedMemoryState save_state() const;
  /// Restores a save_state() image taken from an identically-shaped memory.
  /// Also clears any mid-step staging unconditionally — a restore may land
  /// on a machine whose current step was aborted by a fault.
  void restore_state(const SharedMemoryState& s);

 private:
  friend class MemoryPort;  // policy peeks and lane-run reads of store_
  struct PendingMulti {
    Addr addr;
    MultiOp op;
    Word value;
    LaneId lane;
    std::size_t ticket;  ///< ~0 when no prefix result requested
    bool operator<(const PendingMulti& o) const {
      return addr != o.addr ? addr < o.addr : lane < o.lane;
    }
  };

  /// A drained unit run; `values` points into a buffer of run_buffers_.
  struct PendingRun {
    Addr addr;
    LaneId lane;
    std::size_t n;
    const Word* values;
  };

  std::uint32_t hashed_module(Addr a) const;
  void note_traffic(Addr a, std::uint64_t ModuleTraffic::*field);
  /// Turns the pending unit runs into records, in drain order.
  void expand_pending_runs();
  void commit_writes();
  /// EREW exclusivity over this step's reads (and read/write overlaps with
  /// the already-deduplicated pending writes). Runs every commit — also in
  /// steps that stage no write at all.
  void check_erew_reads();
  void commit_multis();

  std::vector<Word> store_;
  std::uint32_t modules_;
  bool pow2_modules_;  ///< modules_ is a power of two: module = a & (M - 1)
  CrcwPolicy policy_;
  std::function<std::uint32_t(Addr)> hash_;

  /// Unit runs in drain order, ascending and disjoint, so every cell has
  /// one writer; only while pending_writes_ is empty.
  std::vector<PendingRun> pending_runs_;
  /// Value buffers taken over from drained ports (swapped, never copied);
  /// the first run_buffers_used_ hold this step's pending run values, and
  /// the rest keep their capacity for later steps.
  std::vector<std::vector<Word>> run_buffers_;
  std::size_t run_buffers_used_ = 0;
  std::vector<StagedWrite> pending_writes_;
  /// pending_writes_ is in strict (addr, lane) order: every drained port's
  /// records are, and each continued the previous ones. A direct write()
  /// or a port whose records do not follow clears it, and commit_writes
  /// sorts and collapses.
  bool sorted_ = true;
  std::vector<PendingMulti> pending_multis_;
  std::vector<Word> prefix_results_;
  std::size_t next_ticket_ = 0;

  // Per-step exclusive-access tracking (only maintained for EREW/CREW).
  std::vector<std::pair<Addr, LaneId>> step_reads_;

  std::vector<ModuleTraffic> traffic_;
  std::vector<ModuleTraffic> last_traffic_;
  StepId step_ = 0;
  std::uint64_t total_reads_ = 0;
  std::uint64_t total_writes_ = 0;
  std::uint64_t total_multiops_ = 0;

  // Bound instruments (nullptr when no registry is attached).
  metrics::Counter* m_write_cells_ = nullptr;
  metrics::Counter* m_concurrent_write_cells_ = nullptr;
  metrics::Counter* m_multiop_cells_ = nullptr;
  metrics::Counter* m_prefix_tickets_ = nullptr;
};

}  // namespace tcfpn::mem
