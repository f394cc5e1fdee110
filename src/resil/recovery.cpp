#include "resil/recovery.hpp"

#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "mem/shared_memory.hpp"
#include "net/network.hpp"

namespace tcfpn::resil {

const char* to_string(RecoverMode m) {
  switch (m) {
    case RecoverMode::kOff: return "off";
    case RecoverMode::kRollback: return "rollback";
    case RecoverMode::kDegrade: return "degrade";
  }
  return "?";
}

ResilientExecutor::ResilientExecutor(machine::Machine& m, ResilConfig cfg)
    : m_(m),
      cfg_(std::move(cfg)),
      injector_(cfg_.spec, m.config().groups, m.config().shared_words),
      rec_(debug::RecorderConfig{cfg_.journal_capacity, cfg_.checkpoint_every,
                                 cfg_.max_checkpoints}) {
  rec_.attach(m_);
  // Create every resil/ instrument up front so a zero-fault run still
  // exports the full subtree (validate_metrics.py relies on presence).
  resil_.counter("resil/faults_injected");
  resil_.counter("resil/retries");
  resil_.counter("resil/retry_backoff_cycles");
  resil_.counter("resil/rollbacks");
  resil_.counter("resil/steps_lost");
  resil_.counter("resil/groups_retired");
  resil_.counter("resil/remapped_thickness");
  resil_.counter("resil/ecc_corrections");
  resil_.counter("resil/watchdog_escalations");
  resil_.counter("resil/stall_cycles");
  resil_.counter("resil/delay_cycles");
  resil_.counter("resil/mem_blocks_failed");
  resil_.histogram("resil/recovery_latency", 0, 4096, 32);
}

ResilientExecutor::~ResilientExecutor() {
  if (m_.observer() == &rec_) m_.set_observer(nullptr);
}

void ResilientExecutor::journal(machine::DebugEventKind kind, GroupId group,
                                Word a, Word b) {
  machine::DebugEvent ev;
  ev.kind = kind;
  ev.step = m_.stats().steps;
  ev.flow = machine::kNoFlow;
  ev.group = group;
  ev.a = a;
  ev.b = b;
  rec_.on_event(ev);
}

void ResilientExecutor::charge_transient(Cycle c) {
  if (c == 0) return;
  if (machine::is_step_synchronous(m_.config().variant)) {
    // Lands in the next step's memory term, like the late reply it models.
    m_.network().add_fault_delay(c);
  } else {
    // XMT runs flows to completion with immediate memory semantics; there
    // is no memory term to stretch, so charge the clock directly.
    m_.charge(c);
  }
}

void ResilientExecutor::do_rollback(const FaultEvent& ev) {
  const StepId cur = m_.stats().steps;
  const debug::FlightRecorder::Checkpoint* c = rec_.nearest(cur);
  TCFPN_CHECK(c != nullptr, "rollback with no checkpoint available at step ",
              cur);
  const StepId ck_step = c->step;
  const std::uint64_t lost = cur - ck_step;
  rec_.rewind_to(c, m_);
  // Re-journal the fault after the rewind (the pre-rollback record was just
  // truncated away with the rest of the undone tape), then the recovery.
  journal(machine::DebugEventKind::kFaultInjected, ev.group,
          static_cast<Word>(ev.kind),
          ev.kind == FaultKind::kBitFlip ? static_cast<Word>(ev.addr)
                                         : static_cast<Word>(ev.magnitude));
  journal(machine::DebugEventKind::kRollback, ev.group,
          static_cast<Word>(lost), static_cast<Word>(ck_step));
  obs::info("resil/recovery",
            "rolled back " + std::to_string(lost) + " steps to checkpoint at "
            "step " + std::to_string(ck_step) + " after injected " +
            to_string(ev.kind));
  stats_.rollbacks += 1;
  stats_.steps_lost += lost;
  resil_.counter("resil/rollbacks").add(1);
  resil_.counter("resil/steps_lost").add(lost);
  resil_.histogram("resil/recovery_latency", 0, 4096, 32)
      .add(static_cast<double>(lost));
}

void ResilientExecutor::retire(const FaultEvent& ev, bool* fatal,
                               std::string* fatal_msg) {
  if (!m_.group_alive(ev.group)) return;  // already retired earlier
  if (m_.alive_groups() <= 1) {
    *fatal = true;
    std::ostringstream os;
    os << "injected " << to_string(ev.kind) << " at step " << ev.step
       << " left no surviving group";
    *fatal_msg = os.str();
    return;
  }
  const Word moved = m_.retire_group(ev.group);  // emits kGroupRetired
  obs::warn("resil/recovery",
            "group " + std::to_string(ev.group) + " retired after injected " +
            to_string(ev.kind) + "; remapped thickness " +
            std::to_string(moved) + " onto survivors");
  stats_.groups_retired += 1;
  stats_.remapped_thickness += moved;
  resil_.counter("resil/groups_retired").add(1);
  resil_.counter("resil/remapped_thickness")
      .add(static_cast<std::uint64_t>(moved));
}

void ResilientExecutor::apply_event(const FaultEvent& ev, bool* rolled_back,
                                    bool* fatal, std::string* fatal_msg) {
  stats_.faults_injected += 1;
  resil_.counter("resil/faults_injected").add(1);
  journal(machine::DebugEventKind::kFaultInjected, ev.group,
          static_cast<Word>(ev.kind),
          ev.kind == FaultKind::kBitFlip ? static_cast<Word>(ev.addr)
                                         : static_cast<Word>(ev.magnitude));

  auto fail = [&](const char* what) {
    *fatal = true;
    std::ostringstream os;
    os << "injected " << to_string(ev.kind) << " at step " << ev.step
       << " (group " << ev.group << "): " << what;
    *fatal_msg = os.str();
  };

  switch (ev.kind) {
    case FaultKind::kNetDrop: {
      if (cfg_.mode == RecoverMode::kOff) {
        fail("reply lost and recovery is off");
        return;
      }
      // Bounded retransmission with exponential backoff: attempt i waits
      // backoff_base * 2^(i-1) cycles, so the total stretch is
      // backoff_base * (2^retries - 1). The last retry is modelled as
      // succeeding — a drop is transient by definition here; permanent
      // component loss is kGroupKill/kMemFail.
      Cycle backoff = cfg_.spec.backoff_base;
      Cycle total = 0;
      for (std::uint32_t attempt = 1; attempt <= cfg_.spec.retries;
           ++attempt) {
        journal(machine::DebugEventKind::kRetry, ev.group,
                static_cast<Word>(attempt), static_cast<Word>(backoff));
        stats_.retries += 1;
        resil_.counter("resil/retries").add(1);
        total += backoff;
        backoff *= 2;
      }
      resil_.counter("resil/retry_backoff_cycles").add(total);
      charge_transient(total);
      return;
    }
    case FaultKind::kNetDelay: {
      resil_.counter("resil/delay_cycles").add(ev.magnitude);
      charge_transient(ev.magnitude);
      return;
    }
    case FaultKind::kGroupStall: {
      if (ev.magnitude > cfg_.spec.watchdog_cycles) {
        // Watchdog expired: the stall is indistinguishable from death.
        stats_.watchdog_escalations += 1;
        resil_.counter("resil/watchdog_escalations").add(1);
        switch (cfg_.mode) {
          case RecoverMode::kRollback:
            do_rollback(ev);
            *rolled_back = true;
            return;
          case RecoverMode::kDegrade:
            retire(ev, fatal, fatal_msg);
            return;
          case RecoverMode::kOff:
            fail("stall exceeded the watchdog and recovery is off");
            return;
        }
        return;
      }
      // Short stall: the whole lockstep machine waits the group out.
      resil_.counter("resil/stall_cycles").add(ev.magnitude);
      m_.charge(ev.magnitude);
      return;
    }
    case FaultKind::kBitFlip: {
      switch (cfg_.mode) {
        case RecoverMode::kRollback:
          // The flip lands, parity detects it at the boundary, and the
          // checkpoint restore wipes it with the rest of the undone state.
          m_.shared().poke(ev.addr,
                           m_.shared().peek(ev.addr) ^
                               (Word{1} << (ev.bit & 63)));
          do_rollback(ev);
          *rolled_back = true;
          return;
        case RecoverMode::kDegrade:
          // ECC corrects in place: the word never goes bad, the scrub costs
          // cycles.
          stats_.ecc_corrections += 1;
          resil_.counter("resil/ecc_corrections").add(1);
          charge_transient(cfg_.spec.scrub_cycles);
          return;
        case RecoverMode::kOff:
          m_.shared().poke(ev.addr,
                           m_.shared().peek(ev.addr) ^
                               (Word{1} << (ev.bit & 63)));
          return;  // silent corruption — exactly what "off" means
      }
      return;
    }
    case FaultKind::kMemFail: {
      switch (cfg_.mode) {
        case RecoverMode::kRollback:
          do_rollback(ev);
          *rolled_back = true;
          return;
        case RecoverMode::kDegrade:
          if (!m_.group_alive(ev.group)) return;
          // A group without its local block cannot run flows; mark the
          // block failed (accesses fault loudly) and retire the group.
          m_.local(ev.group).set_failed(true);
          stats_.mem_blocks_failed += 1;
          resil_.counter("resil/mem_blocks_failed").add(1);
          retire(ev, fatal, fatal_msg);
          return;
        case RecoverMode::kOff:
          fail("local memory block failed and recovery is off");
          return;
      }
      return;
    }
    case FaultKind::kGroupKill: {
      switch (cfg_.mode) {
        case RecoverMode::kRollback:
          do_rollback(ev);
          *rolled_back = true;
          return;
        case RecoverMode::kDegrade:
          retire(ev, fatal, fatal_msg);
          return;
        case RecoverMode::kOff:
          fail("processor group died and recovery is off");
          return;
      }
      return;
    }
  }
}

ResilResult ResilientExecutor::run() {
  TCFPN_CHECK(!ran_, "ResilientExecutor::run may be called once");
  ran_ = true;
  // Checkpoint 0: the post-boot state. Guarantees nearest() always finds a
  // restore point, whatever checkpoint_every is.
  rec_.checkpoint_now(m_);

  ResilResult res;
  bool fatal = false;
  std::string fatal_msg;
  while (!fatal) {
    const StepId cur = m_.stats().steps;
    if (cur >= cfg_.max_steps) break;

    bool rolled_back = false;
    for (const FaultEvent& ev : injector_.pending(cur)) {
      // Fired *before* acting: a rollback replays these steps and pending()
      // would otherwise re-produce the very fault being recovered from.
      injector_.mark_fired(ev);
      apply_event(ev, &rolled_back, &fatal, &fatal_msg);
      if (rolled_back || fatal) break;  // boundary moved / run over;
                                        // unhandled events re-arise
    }
    if (fatal) break;
    if (rolled_back) continue;  // re-derive pending() at the restored step

    try {
      if (!m_.step()) break;  // every flow halted
    } catch (const SimError& e) {
      // A real program fault (or a degraded-mode access to a failed
      // component): never retried, propagates as the run's outcome. The
      // recorder captured the FaultRecord in its on_fault callback.
      res.faulted = true;
      res.fault_message = e.what();
      break;
    }
  }

  if (fatal) {
    res.faulted = true;
    res.fault_message = fatal_msg;
    // Synthesize the fault capture so post-mortems of unrecovered injected
    // faults look like any other fault.
    rec_.on_fault(fatal_msg, m_);
  }

  res.run.completed = !res.faulted && m_.done();
  res.run.cycles = m_.stats().cycles;
  res.run.steps = m_.stats().steps;
  res.resil = stats_;
  // Publish the recovery counters into the machine's registry now that no
  // further rollback can erase them (see the resil_ member comment).
  m_.metrics().merge(resil_);
  return res;
}

}  // namespace tcfpn::resil
