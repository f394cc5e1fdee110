// Deterministic cost-model attribution profiles (DESIGN.md §11).
//
// A Profile charges every simulated cycle of a run to a
// (group, tcf, pc, cost-term) key. The term taxonomy is the paper's step
// cost decomposition made exhaustive: a closed world of ten terms such that
// the per-key totals sum *exactly* to MachineStats::cycles — the "cycles
// conserve" invariant the profiler tests assert. Cells accumulate per
// GroupCtx during the group phase and merge at the step barrier in group
// order, so a profile is a function of the program and config alone.
//
// On top of the raw cells, a bounded per-step record tape (slot / network /
// fault-delay components of each step) drives the critical-path analyzer
// and the Amdahl-style what-if re-costing in prof/report.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace tcfpn::prof {

/// Where a cycle went. Closed world: every cycle the machine ever adds to
/// MachineStats::cycles lands in exactly one of these terms.
enum class Term : std::uint8_t {
  kCompute = 0,  ///< lane operations / instruction activations (slot term)
  kOperand,      ///< operand-storage penalties (spill / memory-to-memory)
  kLocal,        ///< NUMA local-memory operand latency (slot term share)
  kBranch,       ///< SPAWN register-copy + flow-creation dispatch charges
  kFill,         ///< pipeline fill/drain F per machine step
  kNet,          ///< network latency/bandwidth extension beyond the slot term
  kFault,        ///< injected-fault delay extension (resil, DESIGN.md §9)
  kIdle,         ///< barrier wait: slot capacity no recorded work filled
  kSwitch,       ///< task switches: suspend/resume/swap-in/migration/join
  kSched,        ///< external scheduler charges (Machine::charge)
};

inline constexpr std::size_t kNumTerms = 10;

const char* to_string(Term t);
/// Parses a term name ("net", "compute", ...). Returns false on junk.
bool term_from_string(std::string_view name, Term* out);

/// Sentinel for "not attributable": machine-level cells (fill, net, idle,
/// sched) carry no group/flow/pc; switch cells carry no pc.
inline constexpr std::int64_t kNoIndex = -1;

/// One attribution key. Ordering is the canonical (group, flow, pc, term)
/// lexicographic order — the order cells merge in at the step barrier and
/// the order every export walks, so documents are byte-stable.
struct Key {
  std::int64_t group = kNoIndex;
  std::int64_t flow = kNoIndex;
  std::int64_t pc = kNoIndex;
  Term term = Term::kCompute;

  auto operator<=>(const Key&) const = default;
};

/// The raw cost components of one committed machine step, recorded when
/// profiling is on. `slot`, `net` and `fault` are the *unreduced* terms
/// (step body = max(slot, net + fault)), so the what-if analyzer can re-cost
/// a step analytically under per-term multipliers. `work` is the total
/// recorded bin weight (== the sum of all groups' operation slots).
struct StepRecord {
  std::uint64_t step = 0;
  std::int64_t limit_group = kNoIndex;  ///< argmax group work (ties: lowest)
  Cycle fill = 0;
  Cycle slot = 0;
  Cycle net = 0;    ///< analytic/routed network bound for the step
  Cycle fault = 0;  ///< injected fault delay consumed by the step
  Cycle work = 0;

  bool operator==(const StepRecord&) const = default;
};

/// What dominated one step, derived from the raw components.
enum class StepLimit : std::uint8_t { kCompute = 0, kNet, kFault, kIdle };

inline constexpr std::size_t kNumStepLimits = 4;

const char* to_string(StepLimit l);

/// Classifies a step: fault-limited when the fault delay extended the body
/// past max(slot, net); otherwise net-limited when the network bound alone
/// exceeded the slot term; otherwise idle when the slot term carried less
/// recorded work than capacity; otherwise compute-limited.
StepLimit classify(const StepRecord& r);

/// Cycles the step contributed to the run clock: F + max(slot, net + fault).
Cycle step_cost(const StepRecord& r);

/// Per-step record cap. Cells are bounded by program shape (flows × pcs ×
/// terms); the step tape grows with run length, so it truncates like the
/// host-span buffer does — with an explicit flag, never silently.
inline constexpr std::size_t kMaxStepRecords = 1u << 20;

/// The per-step record tape: append-only, stored as fixed chunks of kChunk
/// records. A full chunk is frozen and shared by every copy of the tape,
/// so copying a profile — every save_state, restore_state and checkpoint
/// does — costs one pointer per frozen chunk plus the open tail, not the
/// run's whole history. Equal records compare equal however the tapes
/// were built: chunk boundaries sit at fixed multiples of kChunk.
class StepTape {
 public:
  static constexpr std::size_t kChunk = 128;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = StepRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = const StepRecord*;
    using reference = const StepRecord&;

    const_iterator() = default;
    const_iterator(const StepTape* tape, std::size_t i) : tape_(tape), i_(i) {}
    reference operator*() const { return (*tape_)[i_]; }
    pointer operator->() const { return &(*tape_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const StepTape* tape_ = nullptr;
    std::size_t i_ = 0;
  };

  void push_back(const StepRecord& r);
  std::size_t size() const { return frozen() + tail_.size(); }
  const StepRecord& operator[](std::size_t i) const {
    return i < frozen() ? (*chunks_[i / kChunk])[i % kChunk]
                        : tail_[i - frozen()];
  }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  bool operator==(const StepTape& o) const;

 private:
  using Chunk = std::array<StepRecord, kChunk>;
  std::size_t frozen() const { return chunks_.size() * kChunk; }

  std::vector<std::shared_ptr<const Chunk>> chunks_;
  std::vector<StepRecord> tail_;  ///< the open chunk, < kChunk records
};

/// The attribution table of one run.
struct Profile {
  std::map<Key, Cycle> cells;
  StepTape steps;
  bool steps_truncated = false;

  void add(const Key& k, Cycle c) {
    if (c != 0) cells[k] += c;
  }
  void record_step(const StepRecord& r) {
    if (steps.size() >= kMaxStepRecords) {
      steps_truncated = true;
      return;
    }
    steps.push_back(r);
  }

  /// Charges a step term of `term` cycles over the bins its work was
  /// recorded in. Three regimes: no recorded work (the whole term is idle),
  /// a term at or above the work (bins at face value, the remainder idle),
  /// or a term below it (variants that execute more ops than the term —
  /// shared out by apportion(), so the shares still sum exactly to the
  /// term).
  void add_over_bins(Cycle term,
                     const std::vector<std::pair<Key, Cycle>>& bins);

  /// Sum of every cell: equals MachineStats::cycles when profiling was on
  /// from machine construction (the conservation invariant).
  Cycle attributed() const;
  /// Sum of the cells charged to one term.
  Cycle term_total(Term t) const;

  bool operator==(const Profile&) const = default;
};

/// Deterministic largest-remainder apportionment: splits `total` over
/// `weights` (sum > 0) into integer shares that sum exactly to `total`,
/// proportional to the weights. Remainder units go to the bins with the
/// largest fractional remainders, ties resolved toward the lower index —
/// a pure function of (total, weights).
std::vector<Cycle> apportion(Cycle total, const std::vector<Cycle>& weights);

}  // namespace tcfpn::prof
