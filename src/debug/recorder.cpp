#include "debug/recorder.hpp"

#include <algorithm>
#include <cctype>

#include "common/check.hpp"
#include "common/log.hpp"

namespace tcfpn::debug {

FlightRecorder::FlightRecorder(RecorderConfig cfg)
    : cfg_(cfg),
      journal_(cfg.journal_capacity),
      interval_(cfg.checkpoint_every) {
  // Journal-only recorders (checkpoint_every == 0) never thin, so the cap
  // is irrelevant; the time-travel ladder needs at least two rungs.
  TCFPN_CHECK(cfg_.checkpoint_every == 0 || cfg_.max_checkpoints >= 2,
              "recorder needs room for at least two checkpoints");
}

void FlightRecorder::attach(machine::Machine& m) { m.set_observer(this); }

void FlightRecorder::checkpoint_now(machine::Machine& m) {
  checkpoints_.push_back(
      Checkpoint{m.stats().steps, journal_.next_seq(), m.save_state()});
  steps_since_checkpoint_ = 0;
}

const FlightRecorder::Checkpoint* FlightRecorder::nearest(StepId step) const {
  const Checkpoint* best = nullptr;
  for (const Checkpoint& c : checkpoints_) {
    if (c.step <= step) best = &c;
  }
  return best;
}

void FlightRecorder::rewind_to(const Checkpoint* c, machine::Machine& m) {
  TCFPN_CHECK(c != nullptr, "rewind needs a checkpoint");
  m.restore_state(c->state);
  journal_.truncate_from(c->journal_seq);
  // Drop strictly later checkpoints. They all sit after `c` (the vector is
  // ascending by step), so `c` itself neither moves nor dies.
  const StepId step = c->step;
  std::erase_if(checkpoints_,
                [&](const Checkpoint& k) { return k.step > step; });
  steps_since_checkpoint_ = 0;
  fault_.reset();
}

void FlightRecorder::on_event(const machine::DebugEvent& ev) {
  journal_.push(ev);
}

void FlightRecorder::on_step(machine::Machine& m) {
  if (cfg_.checkpoint_every == 0) return;
  if (++steps_since_checkpoint_ < interval_) return;
  checkpoint_now(m);
  if (checkpoints_.size() > cfg_.max_checkpoints) {
    // Thin geometrically: keep every other checkpoint (always the newest)
    // and double the stride. Long runs converge on a roughly log-spaced
    // ladder: coarse far back, fine near the present.
    std::vector<Checkpoint> kept;
    kept.reserve(checkpoints_.size() / 2 + 1);
    for (std::size_t i = checkpoints_.size(); i-- > 0;) {
      // The oldest checkpoint is pinned so goto can always reach step 0.
      if (i == 0 || (checkpoints_.size() - 1 - i) % 2 == 0) {
        kept.push_back(std::move(checkpoints_[i]));
      }
    }
    std::reverse(kept.begin(), kept.end());
    checkpoints_ = std::move(kept);
    interval_ *= 2;
    obs::debug("debug/recorder",
               "checkpoint ladder thinned to " +
               std::to_string(checkpoints_.size()) + " rungs; stride now " +
               std::to_string(interval_) + " steps — back-steps far from the "
               "present replay longer spans");
  }
}

void FlightRecorder::on_fault(const std::string& message,
                              machine::Machine& m) {
  FaultRecord rec;
  rec.message = message;
  rec.fault_class = classify_fault(message);
  rec.step = m.stats().steps;
  rec.flow = parse_fault_flow(message);
  rec.address = parse_fault_address(message);
  machine::DebugEvent ev;
  ev.kind = machine::DebugEventKind::kFault;
  ev.step = rec.step;
  ev.flow = rec.flow;
  ev.a = rec.address ? static_cast<Word>(*rec.address) : 0;
  journal_.push(ev);
  fault_ = std::move(rec);
}

std::string classify_fault(const std::string& message) {
  auto has = [&](const char* needle) {
    return message.find(needle) != std::string::npos;
  };
  if (has("violation") || has("mixed multioperations")) return "policy";
  if (has("division by zero") || has("modulo by zero")) return "arith";
  if (has("out of range") || has("negative effective address")) return "addr";
  if (has("divergent branch")) return "flow";
  return "other";
}

namespace {

/// Parses the unsigned integer following `key ` in `message`; npos-safe.
std::optional<std::uint64_t> parse_after(const std::string& message,
                                         const std::string& key) {
  const std::size_t at = message.find(key + " ");
  if (at == std::string::npos) return std::nullopt;
  std::size_t i = at + key.size() + 1;
  if (i >= message.size() ||
      std::isdigit(static_cast<unsigned char>(message[i])) == 0) {
    return std::nullopt;
  }
  std::uint64_t v = 0;
  while (i < message.size() &&
         std::isdigit(static_cast<unsigned char>(message[i])) != 0) {
    v = v * 10 + static_cast<std::uint64_t>(message[i] - '0');
    ++i;
  }
  return v;
}

}  // namespace

FlowId parse_fault_flow(const std::string& message) {
  if (auto v = parse_after(message, "flow")) return *v;
  return machine::kNoFlow;
}

std::optional<Addr> parse_fault_address(const std::string& message) {
  if (auto v = parse_after(message, "address")) return *v;
  if (auto v = parse_after(message, "addr")) return *v;
  return std::nullopt;
}

}  // namespace tcfpn::debug
