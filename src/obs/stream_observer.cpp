#include "obs/stream_observer.hpp"

namespace tcfpn::obs {

StreamObserver::StreamObserver(Bus& bus, StepId every)
    : bus_(bus), every_(every > 0 ? every : 1) {}

void StreamObserver::attach(machine::Machine& m) {
  m_ = &m;
  next_ = m.observer();
  m.set_observer(this);
}

void StreamObserver::detach() {
  if (m_ == nullptr) return;
  // Tail window: whatever committed since the last cadence boundary.
  if (m_->stats().steps > last_emitted_step_) emit_window(*m_, m_->stats().steps);
  if (m_->observer() == this) m_->set_observer(next_);
  m_ = nullptr;
  next_ = nullptr;
}

void StreamObserver::on_event(const machine::DebugEvent& ev) {
  if (next_ != nullptr) next_->on_event(ev);
  // Replay suppression: a window covering this event's step was already
  // emitted (rollback rewound the machine), so counting it again would
  // double-report. The window at step S covers events with ev.step < S.
  if (ev.step < last_emitted_step_) return;
  const auto k = static_cast<std::size_t>(ev.kind);
  if (k < window_events_.size()) {
    ++window_events_[k];
    window_has_events_ = true;
  }
}

void StreamObserver::on_step(machine::Machine& m) {
  if (next_ != nullptr) next_->on_step(m);
  const StepId committed = m.stats().steps;
  if (committed % every_ != 0) return;
  if (committed <= last_emitted_step_) return;  // rollback replay
  emit_window(m, committed);
}

void StreamObserver::on_fault(const std::string& message, machine::Machine& m) {
  if (next_ != nullptr) next_->on_fault(message, m);
  // The machine's mid-step state is not consistent here; only flush the
  // event window already collected (stats are read-only and legal).
  if (window_has_events_) {
    bus_.events(m.stats().steps, window_events_);
    window_events_ = EventCounts{};
    window_has_events_ = false;
  }
}

void StreamObserver::emit_window(machine::Machine& m, StepId step) {
  const machine::MachineStats& st = m.stats();
  m.metrics().snapshot_into(snapshot_);
  bus_.metrics(step, st.cycles, snapshot_);
  bus_.sample({step, st.cycles, st.operations, st.busy_slots, st.idle_slots,
               m.live_flows()});
  if (window_has_events_) {
    bus_.events(step, window_events_);
    window_events_ = EventCounts{};
    window_has_events_ = false;
  }
  last_emitted_step_ = step;
}

}  // namespace tcfpn::obs
