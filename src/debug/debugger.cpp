#include "debug/debugger.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"

namespace tcfpn::debug {

namespace {

/// Hard cap on steps a single `continue`/`goto` may execute: scripted CI
/// sessions must terminate even on runaway programs.
constexpr std::uint64_t kMaxTravelSteps = 1u << 20;

}  // namespace

DebugSession::DebugSession(
    const machine::MachineConfig& cfg, const isa::Program& program,
    BootFn boot, RecorderConfig rcfg,
    std::vector<std::pair<std::string, std::string>> meta)
    : machine_(cfg), recorder_(rcfg), meta_(std::move(meta)) {
  machine_.load(program);
  recorder_.attach(machine_);
  TCFPN_CHECK(static_cast<bool>(boot), "debug session needs a boot function");
  boot(machine_);
  // Checkpoint 0: the post-boot state, so `goto 0` lands exactly where the
  // session began (boot events stay on the tape before it).
  recorder_.checkpoint_now(machine_);
}

bool DebugSession::raw_step() {
  if (faulted()) return false;
  try {
    return machine_.step();
  } catch (const SimError&) {
    // The recorder's on_fault hook already captured the record; freeze the
    // post-mortem now, while the dying state is still inspectable — later
    // time travel restores over it.
    post_mortem_doc_ = post_mortem_json(machine_, recorder_, meta_);
    return false;
  }
}

bool DebugSession::check_triggers(std::uint64_t seq_before, std::ostream& out) {
  bool hit = false;
  for (const auto& [addr, before] : watch_before_) {
    const Word now = machine_.shared().peek(addr);
    if (now != before) {
      out << "watch: shared[" << addr << "] " << before << " -> " << now
          << " at step " << current_step() << "\n";
      hit = true;
    }
  }
  if (break_thick_) {
    for (const auto& e : recorder_.journal().since(seq_before)) {
      if (e.event.kind == machine::DebugEventKind::kThicknessChanged) {
        out << "break: flow " << e.event.flow << " thickness " << e.event.a
            << " -> " << e.event.b << " at step " << e.event.step << "\n";
        hit = true;
      }
    }
  }
  if (!pc_breaks_.empty()) {
    for (FlowId id = 0;; ++id) {
      const machine::TcfDescriptor* f = machine_.find_flow(id);
      if (f == nullptr) break;
      if (f->status != machine::FlowStatus::kHalted &&
          pc_breaks_.count(f->pc) != 0) {
        out << "break: flow " << f->id << " at pc " << f->pc << " (step "
            << current_step() << ")\n";
        hit = true;
      }
    }
  }
  return hit;
}

bool DebugSession::step_once(std::ostream& out) {
  if (faulted()) {
    out << "machine is faulted; use `back`/`goto` to travel, or `postmortem`\n";
    return false;
  }
  if (machine_.done()) {
    out << "machine is done (all flows halted) at step " << current_step()
        << "\n";
    return false;
  }
  watch_before_.clear();
  for (Addr a : watches_) {
    watch_before_.emplace_back(a, machine_.shared().peek(a));
  }
  const std::uint64_t seq_before = recorder_.journal().next_seq();
  const bool advanced = raw_step();
  if (faulted()) {
    out << "fault at step " << recorder_.fault()->step << " ["
        << recorder_.fault()->fault_class
        << "]: " << recorder_.fault()->message << "\n";
    return false;
  }
  check_triggers(seq_before, out);
  return advanced;
}

void DebugSession::run_to(StepId target, std::ostream& out) {
  if (target < current_step() || faulted()) {
    const FlightRecorder::Checkpoint* c = recorder_.nearest(target);
    if (c == nullptr) {
      out << "no checkpoint at or before step " << target << "\n";
      return;
    }
    recorder_.rewind_to(c, machine_);
    post_mortem_doc_.reset();
  }
  std::uint64_t travelled = 0;
  while (current_step() < target) {
    if (!raw_step()) break;
    if (++travelled >= kMaxTravelSteps) {
      out << "goto: gave up after " << travelled << " steps\n";
      break;
    }
  }
  if (faulted()) {
    out << "fault at step " << recorder_.fault()->step << " ["
        << recorder_.fault()->fault_class
        << "]: " << recorder_.fault()->message << "\n";
  } else if (current_step() < target) {
    out << "stopped at step " << current_step() << " (machine done)\n";
  } else {
    out << "at step " << current_step() << "\n";
  }
}

void DebugSession::back(StepId n, std::ostream& out) {
  const StepId cur = current_step();
  run_to(n >= cur ? 0 : cur - n, out);
}

void DebugSession::continue_run(std::ostream& out) {
  if (faulted()) {
    out << "machine is faulted; use `back`/`goto` to travel, or `postmortem`\n";
    return;
  }
  std::uint64_t travelled = 0;
  while (!machine_.done()) {
    watch_before_.clear();
    for (Addr a : watches_) {
      watch_before_.emplace_back(a, machine_.shared().peek(a));
    }
    const std::uint64_t seq_before = recorder_.journal().next_seq();
    if (!raw_step()) break;
    if (check_triggers(seq_before, out)) return;
    if (++travelled >= kMaxTravelSteps) {
      out << "continue: gave up after " << travelled << " steps\n";
      return;
    }
  }
  if (faulted()) {
    out << "fault at step " << recorder_.fault()->step << " ["
        << recorder_.fault()->fault_class
        << "]: " << recorder_.fault()->message << "\n";
  } else {
    out << "machine done at step " << current_step() << " ("
        << machine_.stats().cycles << " cycles)\n";
  }
}

void DebugSession::add_watch(Addr a) { watches_.insert(a); }
void DebugSession::remove_watch(Addr a) { watches_.erase(a); }

void DebugSession::print_flows(std::ostream& out) const {
  for (FlowId id = 0;; ++id) {
    const machine::TcfDescriptor* f = machine_.find_flow(id);
    if (f == nullptr) break;
    out << "flow " << f->id << ": " << machine::to_string(f->status)
        << " pc=" << f->pc << " thickness=" << f->thickness << " home=g"
        << f->home << " mode="
        << (f->mode == machine::FlowMode::kPram ? "pram" : "numa");
    if (f->parent != machine::kNoFlow) out << " parent=" << f->parent;
    if (f->live_children > 0) out << " children=" << f->live_children;
    out << "\n";
  }
}

void DebugSession::print_queues(std::ostream& out) const {
  for (GroupId g = 0; g < machine_.config().groups; ++g) {
    out << "group " << g << ": resident=" << machine_.resident_flows(g) << "/"
        << machine_.config().slots_per_group << "\n";
  }
  out << "live flows: " << machine_.live_flows() << "\n";
}

void DebugSession::print_events(std::size_t n, std::ostream& out) const {
  for (const auto& e : recorder_.journal().last(n)) {
    out << "#" << e.seq << " step " << e.event.step << " "
        << machine::to_string(e.event.kind);
    if (e.event.flow != machine::kNoFlow) out << " flow=" << e.event.flow;
    out << " a=" << e.event.a << " b=" << e.event.b << "\n";
  }
}

void DebugSession::print_info(std::ostream& out) const {
  const auto& cfg = machine_.config();
  out << "variant=" << machine::to_string(cfg.variant)
      << " policy=" << mem::to_string(cfg.crcw) << " groups=" << cfg.groups
      << " slots=" << cfg.slots_per_group << "\n"
      << "journal: " << recorder_.journal().size() << " events (seq "
      << recorder_.journal().first_seq() << ".."
      << recorder_.journal().next_seq() << ")\n"
      << "checkpoints: " << recorder_.checkpoints().size();
  if (!recorder_.checkpoints().empty()) {
    out << " (steps";
    for (const auto& c : recorder_.checkpoints()) out << " " << c.step;
    out << ")";
  }
  out << "\n";
  out << "watches:";
  for (Addr a : watches_) out << " " << a;
  out << "\nbreakpoints:";
  for (std::uint64_t pc : pc_breaks_) out << " pc=" << pc;
  if (break_fault_) out << " fault";
  if (break_thick_) out << " thickness";
  out << "\n";
}

void DebugSession::print_where(std::ostream& out) const {
  out << "step " << current_step() << ", " << machine_.stats().cycles
      << " cycles, " << machine_.live_flows() << " live flows";
  if (faulted()) {
    out << " [FAULTED: " << recorder_.fault()->fault_class << "]";
  } else if (machine_.done()) {
    out << " [done]";
  }
  out << "\n";
}

bool DebugSession::execute(const std::string& line, std::ostream& out) {
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd) || cmd[0] == '#') return true;  // blank line or comment

  auto parse_u64 = [&](std::uint64_t& v) -> bool {
    if (in >> v) return true;
    out << "expected a number\n";
    return false;
  };

  if (cmd == "quit" || cmd == "q" || cmd == "exit") return false;
  if (cmd == "help") {
    out << "commands:\n"
           "  step|s [N]       advance N steps (default 1)\n"
           "  back|b [N]       travel N steps backwards (default 1)\n"
           "  goto|g STEP      travel to an absolute step\n"
           "  continue|c|run   run until break/watch/fault/done\n"
           "  watch ADDR       watch a shared-memory cell\n"
           "  unwatch ADDR     remove a watch\n"
           "  break pc N       break when a live flow sits at pc N\n"
           "  break fault      run until a fault (continue stops anyway)\n"
           "  break thick      break on thickness changes\n"
           "  flows            list flow descriptors\n"
           "  mem ADDR [N]     dump N shared words from ADDR\n"
           "  queues           TCF buffer occupancy per group\n"
           "  events [N]       last N journal events (default 16)\n"
           "  info             session configuration and tape status\n"
           "  where|status     current step / fault state\n"
           "  postmortem [F]   print (or write to F) the fault post-mortem\n"
           "  quit|q|exit      end the session\n";
    return true;
  }
  if (cmd == "step" || cmd == "s") {
    std::uint64_t n = 1;
    in >> n;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!step_once(out)) break;
    }
    print_where(out);
    return true;
  }
  if (cmd == "back" || cmd == "b") {
    std::uint64_t n = 1;
    in >> n;
    back(n, out);
    return true;
  }
  if (cmd == "goto" || cmd == "g") {
    std::uint64_t target = 0;
    if (!parse_u64(target)) return true;
    run_to(target, out);
    return true;
  }
  if (cmd == "continue" || cmd == "c" || cmd == "run") {
    continue_run(out);
    return true;
  }
  if (cmd == "watch") {
    std::uint64_t a = 0;
    if (!parse_u64(a)) return true;
    if (a >= machine_.shared().size()) {
      out << "address " << a << " out of range (shared memory has "
          << machine_.shared().size() << " words)\n";
      return true;
    }
    add_watch(a);
    out << "watching shared[" << a << "]\n";
    return true;
  }
  if (cmd == "unwatch") {
    std::uint64_t a = 0;
    if (!parse_u64(a)) return true;
    remove_watch(a);
    return true;
  }
  if (cmd == "break") {
    std::string what;
    in >> what;
    if (what == "pc") {
      std::uint64_t pc = 0;
      if (!parse_u64(pc)) return true;
      break_on_pc(pc);
      out << "break at pc " << pc << "\n";
    } else if (what == "fault") {
      break_on_fault();
      out << "break on fault\n";
    } else if (what == "thick" || what == "thickness") {
      break_on_thickness();
      out << "break on thickness changes\n";
    } else {
      out << "usage: break pc N | break fault | break thick\n";
    }
    return true;
  }
  if (cmd == "flows") {
    print_flows(out);
    return true;
  }
  if (cmd == "mem") {
    std::uint64_t a = 0;
    if (!parse_u64(a)) return true;
    std::uint64_t n = 1;
    in >> n;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (a + i >= machine_.shared().size()) {
        out << "shared[" << a + i << "]: out of range\n";
        break;
      }
      out << "shared[" << a + i << "] = " << machine_.shared().peek(a + i)
          << "\n";
    }
    return true;
  }
  if (cmd == "queues") {
    print_queues(out);
    return true;
  }
  if (cmd == "events") {
    std::uint64_t n = 16;
    in >> n;
    print_events(n, out);
    return true;
  }
  if (cmd == "info") {
    print_info(out);
    return true;
  }
  if (cmd == "where" || cmd == "status") {
    print_where(out);
    return true;
  }
  if (cmd == "postmortem") {
    if (!post_mortem_doc_) {
      out << "no fault recorded\n";
      return true;
    }
    std::string file;
    if (in >> file) {
      std::ofstream f(file, std::ios::binary);
      if (!f) {
        out << "cannot write " << file << "\n";
        return true;
      }
      f << *post_mortem_doc_;
      out << "post-mortem written to " << file << "\n";
    } else {
      out << *post_mortem_doc_;
    }
    return true;
  }
  out << "unknown command '" << cmd << "' (try `help`)\n";
  return true;
}

}  // namespace tcfpn::debug
