// The time-travel debugger session driving tools/tcfdbg.
//
// A DebugSession owns a Machine with a FlightRecorder attached and exposes
// the REPL command set: forward stepping with watchpoints/breakpoints,
// reverse stepping (`back`) and absolute travel (`goto`) by restoring the
// nearest checkpoint and deterministically re-stepping, state inspection
// (flows, memory, queues, journal) and fault post-mortems.
//
// Reverse execution leans entirely on the determinism contract: re-running
// the steps between a checkpoint and the target reproduces the exact same
// machine state, journal tape and metrics, so "back 1" is cheap
// bookkeeping, not a second execution semantics.
#pragma once

#include <functional>
#include <iosfwd>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "debug/postmortem.hpp"
#include "debug/recorder.hpp"

namespace tcfpn::debug {

class DebugSession {
 public:
  /// `boot` seeds the machine's root flow(s) — a plain m.boot(thickness)
  /// for most programs, tcf::kernels::boot_esm_threads for ESM-style ones.
  /// Passing it as a function keeps this library independent of the kernel
  /// layer. The recorder attaches *before* boot so flow creation is on the
  /// tape, and checkpoint 0 is taken right after boot.
  using BootFn = std::function<void(machine::Machine&)>;

  DebugSession(const machine::MachineConfig& cfg, const isa::Program& program,
               BootFn boot, RecorderConfig rcfg = {},
               std::vector<std::pair<std::string, std::string>> meta = {});

  machine::Machine& machine() { return machine_; }
  const FlightRecorder& recorder() const { return recorder_; }
  StepId current_step() const { return machine_.stats().steps; }
  bool faulted() const { return recorder_.fault().has_value(); }

  /// Executes one REPL line, writing any output to `out`. Returns false when
  /// the command ends the session (quit/exit), true otherwise. Unknown
  /// commands print a hint and return true — a scripted session never dies
  /// on a typo.
  bool execute(const std::string& line, std::ostream& out);

  // ----- programmatic interface (the REPL commands call these) -----
  /// Steps forward once, honouring watchpoints and breakpoints. Returns
  /// false when the machine cannot advance (done or faulted).
  bool step_once(std::ostream& out);
  /// Travels to the given step: restores the nearest checkpoint when moving
  /// backwards (or off a fault) and re-steps deterministically. Breakpoints
  /// and watchpoints are not honoured while travelling.
  void run_to(StepId target, std::ostream& out);
  void back(StepId n, std::ostream& out);
  /// Runs until a breakpoint/watchpoint fires, the machine halts, or a
  /// fault. Hard-capped to keep scripted sessions bounded.
  void continue_run(std::ostream& out);

  void add_watch(Addr a);
  void remove_watch(Addr a);
  void break_on_pc(std::uint64_t pc) { pc_breaks_.insert(pc); }
  void break_on_fault() { break_fault_ = true; }
  void break_on_thickness() { break_thick_ = true; }

  /// The post-mortem document rendered when a fault was captured.
  const std::optional<std::string>& post_mortem_doc() const {
    return post_mortem_doc_;
  }

 private:
  /// One machine step with fault capture; returns false when no progress.
  bool raw_step();
  /// True when a watch/break condition fired during the last raw_step().
  bool check_triggers(std::uint64_t seq_before, std::ostream& out);
  void print_flows(std::ostream& out) const;
  void print_queues(std::ostream& out) const;
  void print_events(std::size_t n, std::ostream& out) const;
  void print_info(std::ostream& out) const;
  void print_where(std::ostream& out) const;

  machine::Machine machine_;
  FlightRecorder recorder_;
  std::vector<std::pair<std::string, std::string>> meta_;

  std::set<Addr> watches_;
  std::vector<std::pair<Addr, Word>> watch_before_;  ///< scratch per step
  std::set<std::uint64_t> pc_breaks_;
  bool break_fault_ = false;
  bool break_thick_ = false;

  std::optional<std::string> post_mortem_doc_;
};

}  // namespace tcfpn::debug
