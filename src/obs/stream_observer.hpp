// Engine-side emitter of the streaming telemetry bus (DESIGN.md §13).
//
// A StreamObserver is a chaining machine::StepObserver: attach() remembers
// whatever observer was already installed (a debug::FlightRecorder, the
// resilience layer's recorder) and forwards every callback to it unchanged,
// so attaching the stream changes nothing about recording, replay, or the
// simulated run. On top of the forwarding it hands the Bus one window per
// step cadence — a cumulative metrics snapshot, a StepSample and the event
// counts — and the bus formats each line on the spot.
//
// Emission windows are keyed by the *step number*, and a window is only
// emitted when its step is strictly greater than the last emitted step.
// Under the resilience layer a rollback rewinds the machine and replays
// steps the stream has already described; the monotone guard suppresses the
// replayed windows, so stream consumers can rely on non-decreasing step
// numbers (the rollback itself still shows up, as an events window counting
// "rollback" / "retry" kinds at the step where it was detected).
#pragma once

#include <cstdint>

#include "machine/machine.hpp"
#include "obs/bus.hpp"

namespace tcfpn::obs {

class StreamObserver : public machine::StepObserver {
 public:
  /// `every` is the step cadence: a metrics/sample/events window is offered
  /// to the bus once per `every` committed steps (and once more at detach
  /// for the tail window). The bus is not owned and must outlive the
  /// observer's attachment.
  StreamObserver(Bus& bus, StepId every);

  /// Installs this observer on `m`, chaining to (and forwarding everything
  /// to) the observer currently attached, if any. Call AFTER the flight
  /// recorder / resilient executor attached theirs.
  void attach(machine::Machine& m);

  /// Emits the tail window and restores the chained-to observer. Call
  /// BEFORE the recorder/executor detaches (reverse attach order).
  void detach();

  // machine::StepObserver
  void on_event(const machine::DebugEvent& ev) override;
  void on_step(machine::Machine& m) override;
  void on_fault(const std::string& message, machine::Machine& m) override;

 private:
  void emit_window(machine::Machine& m, StepId step);

  Bus& bus_;
  StepId every_;
  metrics::MetricsSnapshot snapshot_;  ///< refreshed in place each window
  machine::Machine* m_ = nullptr;
  machine::StepObserver* next_ = nullptr;

  EventCounts window_events_{};
  bool window_has_events_ = false;
  StepId last_emitted_step_ = 0;
};

}  // namespace tcfpn::obs
