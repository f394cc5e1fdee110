// Deterministic fault injection (DESIGN.md §9).
//
// The paper's machine (Section 3.1) assumes P processor groups, P local
// memory blocks and a network that never fail. The resilience layer breaks
// that assumption on purpose: FaultInjector derives a schedule of hardware
// faults — killed/stalled groups, dropped/delayed network replies, failed
// local-memory blocks, flipped shared-memory bits — as a *pure function of
// (seed, step, group)*. No host state, no wall clock, no allocation order
// enters the derivation, so the schedule is bit-identical across reruns
// and, crucially, re-arises unchanged when a rollback replays the same
// steps (already-handled occurrences are filtered through a fired set so
// recovery cannot livelock on its own fault).
//
// Faults are injected at step boundaries only. The simulator commits all
// effects at the barrier, so a boundary fault is the model-level analogue
// of "the component died between two machine steps" — and it keeps the
// recovery path (src/resil/recovery) on checkpointable state.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"

namespace tcfpn::resil {

/// What kind of hardware fault an occurrence models. The enum order is the
/// in-step application order: transient network trouble first, then
/// component failures, group kill last (so a dying group's dropped replies
/// are still accounted before its flows migrate).
enum class FaultKind : std::uint8_t {
  kNetDrop,     ///< a network reply is lost; recovery retries with backoff
  kNetDelay,    ///< a reply is late; the step's memory term stretches
  kGroupStall,  ///< a group stalls; past the watchdog it counts as dead
  kMemFail,     ///< a local-memory block dies with its contents
  kBitFlip,     ///< a shared-memory module flips one bit
  kGroupKill,   ///< a processor group dies permanently
};

const char* to_string(FaultKind k);

/// A fault pinned to an explicit step (the `at=STEP:KIND:ARG` spec form).
/// `arg` is the target group, except for kBitFlip where it is the shared
/// address.
struct ScriptedFault {
  StepId step = 0;
  FaultKind kind = FaultKind::kGroupKill;
  std::uint64_t arg = 0;
};

/// Parsed fault-injection specification (`--inject-faults`). Rates are
/// per-(step, group) Bernoulli probabilities; parameters tune the recovery
/// cost model of DESIGN.md §9.
struct FaultSpec {
  std::uint64_t seed = 1;

  double drop_rate = 0;     ///< kNetDrop probability per step per group
  double delay_rate = 0;    ///< kNetDelay
  double stall_rate = 0;    ///< kGroupStall
  double memfail_rate = 0;  ///< kMemFail
  double flip_rate = 0;     ///< kBitFlip
  double kill_rate = 0;     ///< kGroupKill

  std::uint32_t retries = 3;    ///< retransmissions per dropped reply
  Cycle backoff_base = 8;       ///< first retry backoff; doubles per retry
  Cycle delay_cycles = 16;      ///< base late-reply delay (drawn 1x..4x)
  Cycle stall_cycles = 64;      ///< base group stall (drawn 1x..8x)
  Cycle watchdog_cycles = 256;  ///< stalls beyond this count as a dead group
  Cycle scrub_cycles = 8;       ///< ECC correction cost (degraded mode)

  std::vector<ScriptedFault> scripted;
};

/// Parses the comma-separated `--inject-faults` grammar:
///
///   seed=U64
///   drop=P delay=P stall=P memfail=P flip=P kill=P      (rates in [0,1])
///   retries=N backoff=C delayc=C stallc=C watchdog=C scrubc=C
///   at=STEP:KIND[:ARG]   (repeatable; KIND in drop|delay|stall|memfail|
///                         flip|kill; ARG = group, address for flip)
///
/// Faults (SimError) on any syntax or range error.
FaultSpec parse_fault_spec(const std::string& spec);

/// A modest all-kinds schedule for fuzzing: every fault class exercised, no
/// single run drowned in faults. Identical spec for identical seeds.
FaultSpec default_spec_for_seed(std::uint64_t seed);

/// One concrete fault occurrence at a step boundary.
struct FaultEvent {
  FaultKind kind = FaultKind::kGroupKill;
  StepId step = 0;
  GroupId group = 0;
  Addr addr = 0;            ///< kBitFlip: shared-memory address
  std::uint32_t bit = 0;    ///< kBitFlip: bit index
  Cycle magnitude = 0;      ///< kNetDelay/kGroupStall: cycles
  std::uint64_t key = 0;    ///< occurrence identity for the fired set
};

class FaultInjector {
 public:
  FaultInjector(FaultSpec spec, std::uint32_t groups,
                std::size_t shared_words);

  /// The not-yet-handled fault occurrences at the boundary before `step`,
  /// in deterministic order: scripted first (spec order), then random ones
  /// by (group, kind). Pure in (seed, step, group) apart from the fired
  /// filter, so replays after a rollback regenerate the suppressed tail of
  /// the schedule exactly. Non-const only for the draw memo: a step whose
  /// random draws all came out empty skips them when it is asked again.
  std::vector<FaultEvent> pending(StepId step);

  /// Marks an occurrence handled. The executor calls this *before* acting
  /// on the event — in particular before a rollback — so replayed steps
  /// cannot re-trigger the fault that caused the rollback.
  void mark_fired(const FaultEvent& ev) { fired_.insert(ev.key); }

  const FaultSpec& spec() const { return spec_; }

 private:
  FaultSpec spec_;
  std::uint32_t groups_;
  std::size_t shared_words_;
  std::unordered_set<std::uint64_t> fired_;
  /// quiet_[s]: every random draw at step s came out empty. Filled in step
  /// order only (a step past the end is drawn but not memoized), so it
  /// holds one bit per step the run has reached.
  std::vector<bool> quiet_;
};

}  // namespace tcfpn::resil
