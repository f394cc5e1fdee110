// Fault-tolerant execution (DESIGN.md §9).
//
// ResilientExecutor wraps a Machine's step loop with per-subsystem fault
// handling driven by a FaultInjector:
//
//  - dropped network replies: bounded retry with exponential backoff, the
//    total backoff charged into the step's memory term;
//  - delayed replies: the delay stretches the memory term;
//  - stalled groups: the stall is charged; a stall past the watchdog is
//    escalated and treated like a dead group;
//  - dead groups / dead local-memory blocks / flipped shared-memory bits:
//    mode-dependent —
//      rollback: restore the FlightRecorder's nearest checkpoint and replay
//        (the injector's fired set keeps the handled fault from re-firing),
//        so the run ends bit-identical to a fault-free one;
//      degrade: retire the group (Machine::retire_group remaps its resident
//        TCFs onto survivors — Section 3.1 thickness redistribution — and
//        the cost model continues with P-1 groups) and ECC-correct bit
//        flips;
//      off: any fatal fault ends the run unrecovered.
//
// All handling happens at step boundaries, on barrier-side state, so the
// fault schedule *and* the recovery path are bit-identical across reruns.
#pragma once

#include <cstdint>
#include <string>

#include "common/metrics.hpp"
#include "debug/recorder.hpp"
#include "machine/machine.hpp"
#include "resil/fault.hpp"

namespace tcfpn::resil {

enum class RecoverMode : std::uint8_t {
  kOff,       ///< no recovery: injected fatal faults end the run
  kRollback,  ///< checkpoint rollback + deterministic replay
  kDegrade,   ///< retire dead components, continue at P-1 groups
};

const char* to_string(RecoverMode m);

struct ResilConfig {
  FaultSpec spec;
  RecoverMode mode = RecoverMode::kRollback;
  std::uint64_t max_steps = 10'000'000;
  /// Recorder shape. Checkpoints start dense (every 16 steps), but the
  /// stride doubles each time the ladder thins past max_checkpoints and a
  /// rollback does not reset it, so the rollback distance (steps lost per
  /// recovery) grows with run length: about 113 steps per rollback in
  /// perfbench's observed-rollback workload.
  std::size_t journal_capacity = 4096;
  std::uint64_t checkpoint_every = 16;
  std::size_t max_checkpoints = 64;
};

/// Recovery counters, mirrored into the machine's metrics registry under
/// "resil/" when the run finishes.
struct ResilStats {
  std::uint64_t faults_injected = 0;
  std::uint64_t retries = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t steps_lost = 0;
  std::uint64_t groups_retired = 0;
  std::uint64_t ecc_corrections = 0;
  std::uint64_t watchdog_escalations = 0;
  std::uint64_t mem_blocks_failed = 0;
  Word remapped_thickness = 0;
};

struct ResilResult {
  machine::RunResult run;
  bool faulted = false;        ///< program fault or unrecovered injected fault
  std::string fault_message;
  ResilStats resil;
};

class ResilientExecutor {
 public:
  /// Attaches a FlightRecorder to `m` as its observer (replacing any other)
  /// for the executor's lifetime. Call after boot, before any stepping;
  /// run() may be called once.
  ResilientExecutor(machine::Machine& m, ResilConfig cfg);
  ~ResilientExecutor();

  /// Runs to completion, fault, or the step limit, applying the injector's
  /// schedule at every step boundary. On return the executor's "resil/"
  /// instruments have been merged into m.metrics().
  ResilResult run();

  /// The recorder doubles as the post-mortem source for faulted runs.
  debug::FlightRecorder& recorder() { return rec_; }
  const debug::FlightRecorder& recorder() const { return rec_; }
  const FaultInjector& injector() const { return injector_; }
  const ResilStats& stats() const { return stats_; }

 private:
  /// Applies one fault occurrence. Sets *rolled_back when the machine state
  /// moved backwards (the step loop must re-derive the boundary) and *fatal
  /// (+ message) when the fault is unrecoverable under the current mode.
  void apply_event(const FaultEvent& ev, bool* rolled_back, bool* fatal,
                   std::string* fatal_msg);
  void do_rollback(const FaultEvent& ev);
  /// Retires ev.group; fatal when it is the last survivor.
  void retire(const FaultEvent& ev, bool* fatal, std::string* fatal_msg);
  /// Charges transient extra cycles: through the network's fault delay for
  /// step-synchronous variants (it lands in the next memory term), directly
  /// onto the clock for the multi-instruction variant.
  void charge_transient(Cycle c);
  void journal(machine::DebugEventKind kind, GroupId group, Word a, Word b);

  machine::Machine& m_;
  ResilConfig cfg_;
  FaultInjector injector_;
  debug::FlightRecorder rec_;
  /// Recovery bookkeeping lives in an executor-owned registry and is merged
  /// into m_.metrics() only when the run ends: a rollback's restore_raw
  /// erases instruments absent from the checkpoint image, which would
  /// otherwise wipe (and dangle) the recovery counters mid-run.
  metrics::MetricsRegistry resil_;
  ResilStats stats_;
  bool ran_ = false;
};

}  // namespace tcfpn::resil
