// The flight recorder: event journal + periodic checkpoints + fault capture.
//
// Attached to a Machine as its StepObserver, the recorder keeps
//  - a bounded Journal of DebugEvents (delivered in group-merge order, so
//    the tape is bit-identical for every --host-threads value),
//  - periodic MachineState checkpoints every `checkpoint_every` committed
//    steps (thinned geometrically so long runs keep a bounded, roughly
//    log-spaced set plus the most recent ones), and
//  - on a fault, a FaultRecord classifying what went wrong and where.
//
// The debugger layer (debugger.hpp) uses the checkpoints for time travel:
// restore the nearest checkpoint at or before the target step, then re-step
// deterministically.
#pragma once

#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "debug/journal.hpp"
#include "machine/state.hpp"

namespace tcfpn::debug {

struct RecorderConfig {
  std::size_t journal_capacity = 4096;
  /// Take a checkpoint every this many committed steps; 0 disables
  /// checkpointing (journal + fault capture only — the tcfrun post-mortem
  /// mode, which never travels back).
  std::uint64_t checkpoint_every = 64;
  /// Checkpoint count cap; when exceeded, every other retained checkpoint is
  /// dropped and the interval doubles (the newest is always kept).
  std::size_t max_checkpoints = 64;
};

/// A classified fault, captured when a SimError escapes Machine::step().
struct FaultRecord {
  std::string message;
  std::string fault_class;  ///< policy | arith | addr | flow | other | divergence
  StepId step = 0;          ///< step during which the fault fired
  FlowId flow = machine::kNoFlow;       ///< offending flow when parseable
  std::optional<Addr> address;          ///< offending address when parseable
};

class FlightRecorder final : public machine::StepObserver {
 public:
  explicit FlightRecorder(RecorderConfig cfg = {});

  /// Registers this recorder as `m`'s observer. Call before boot() so flow
  /// creation lands on the tape. Does not take an initial checkpoint — the
  /// debugger calls checkpoint_now() after booting so checkpoint 0 reflects
  /// the post-boot state.
  void attach(machine::Machine& m);

  struct Checkpoint {
    StepId step = 0;            ///< machine step the state was captured at
    std::uint64_t journal_seq;  ///< journal next_seq at capture time
    machine::MachineState state;
  };
  // The checkpoint vector's growth and the ladder's thinning pass move
  // checkpoints; without a noexcept move they silently deep-copy instead.
  static_assert(std::is_nothrow_move_constructible_v<Checkpoint>);

  /// Takes a checkpoint of `m`'s current state unconditionally.
  void checkpoint_now(machine::Machine& m);

  /// Latest checkpoint with step <= `step`; nullptr when none qualifies.
  const Checkpoint* nearest(StepId step) const;
  const std::vector<Checkpoint>& checkpoints() const { return checkpoints_; }

  /// Rewinds `m` and the recorder to checkpoint `c`: restores `m` straight
  /// from c->state, then truncates the journal at the checkpoint's
  /// sequence, drops every later checkpoint and clears any captured fault.
  /// `c` must point into checkpoints(); it survives the rewind (only later
  /// checkpoints are dropped), so nothing is copied.
  void rewind_to(const Checkpoint* c, machine::Machine& m);

  const Journal& journal() const { return journal_; }
  const std::optional<FaultRecord>& fault() const { return fault_; }
  void clear_fault() { fault_.reset(); }

  // ----- StepObserver -----
  void on_event(const machine::DebugEvent& ev) override;
  void on_step(machine::Machine& m) override;
  void on_fault(const std::string& message, machine::Machine& m) override;

 private:
  RecorderConfig cfg_;
  Journal journal_;
  std::vector<Checkpoint> checkpoints_;  ///< ascending by step
  std::uint64_t interval_;               ///< current checkpoint stride
  std::uint64_t steps_since_checkpoint_ = 0;
  std::optional<FaultRecord> fault_;
};

/// Classifies a SimError message into a coarse fault class: "policy" (CRCW
/// violations, mixed multioperations), "arith" (division/modulo by zero),
/// "addr" (out-of-range or negative addresses), "flow" (divergent branches),
/// "other". The conformance harness's fault_class delegates here.
std::string classify_fault(const std::string& message);

/// Extracts "flow N" from a fault message; kNoFlow when absent.
FlowId parse_fault_flow(const std::string& message);

/// Extracts "address N" (or "addr N") from a fault message.
std::optional<Addr> parse_fault_address(const std::string& message);

}  // namespace tcfpn::debug
