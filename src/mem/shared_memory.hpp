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
// It is the machine's one staging path: the groups of a step stage into it
// directly, in group order, and a thick LD or ST moves as one lane run
// (read_run/write_run) — a unit-stride ST as one pending run, not as
// per-lane records.
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

/// One staged (pre-commit) write.
struct StagedWrite {
  Addr addr;
  Word value;
  LaneId lane;
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

  /// Lane-run access for a thick LD/ST: the lane-by-lane read() or write()
  /// calls of `run` in one. `per_module[m]` counts the run's lanes at
  /// module m (the caller computed it for the network term); it is added to
  /// the step's traffic once, not lane by lane. read_run copies the
  /// committed words into `out` (nullptr discards them), a unit run in one
  /// copy. write_run stages the run's writes for the next commit: a unit run
  /// that starts past every pending run, with no record pending and a
  /// policy other than EREW, stays one run (its values copied once);
  /// anything else turns the pending runs into records and appends
  /// per-lane records.
  void read_run(const LaneRun& run, const std::uint64_t* per_module,
                Word* out);
  void write_run(const LaneRun& run, const Word* value,
                 const std::uint64_t* per_module);

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
  /// combined. Pass nullptr to detach.
  void bind_metrics(metrics::MetricsRegistry* reg);

  // ----- checkpointing -----
  /// Committed state for a checkpoint (call only at a step boundary).
  SharedMemoryState save_state() const;
  /// Restores a save_state() image taken from an identically-shaped memory.
  /// Also clears any mid-step staging unconditionally — a restore may land
  /// on a machine whose current step was aborted by a fault.
  void restore_state(const SharedMemoryState& s);

 private:
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

  /// A pending unit run: lanes lane, lane + 1, ... write cells addr,
  /// addr + 1, ...; the n values sit at run_values_[at, at + n).
  struct PendingRun {
    Addr addr;
    LaneId lane;
    std::size_t n;
    std::size_t at;
  };

  std::uint32_t hashed_module(Addr a) const;
  void note_traffic(Addr a, std::uint64_t ModuleTraffic::*field);
  /// Turns the pending unit runs into records, in issue order.
  void expand_pending_runs();
  /// Appends one record, clearing sorted_ unless it follows the last one.
  void append_write(const StagedWrite& w);
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

  /// Unit runs in issue order, ascending and disjoint, so every cell has
  /// one writer; only while pending_writes_ is empty.
  std::vector<PendingRun> pending_runs_;
  std::vector<Word> run_values_;  ///< the pending runs' values
  std::vector<StagedWrite> pending_writes_;
  /// pending_writes_ is in strict (addr, lane) order: each record followed
  /// the one before it. A record that does not clears it, and
  /// commit_writes sorts and collapses.
  bool sorted_ = true;
  std::vector<PendingMulti> pending_multis_;
  std::vector<Word> prefix_results_;
  std::size_t next_ticket_ = 0;

  // Per-step exclusive-read tracking (only maintained for EREW).
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
