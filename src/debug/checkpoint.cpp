#include "debug/checkpoint.hpp"

#include <bit>
#include <cstring>

#include "common/check.hpp"

namespace tcfpn::debug {

namespace {

// Version 2 appends the dead-group vector (degraded-mode execution,
// DESIGN.md §9) after the pending-spawn list. Version 3 appends the
// attribution profile (src/prof, DESIGN.md §11) after the step samples;
// version-2 images still deserialize (with an empty profile).
constexpr char kMagic[8] = {'T', 'C', 'F', 'C', 'K', 'P', 'T', '\3'};
constexpr char kMagicV2[8] = {'T', 'C', 'F', 'C', 'K', 'P', 'T', '\2'};

class Writer {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu));
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void b(bool v) { u64(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) out_.push_back(static_cast<std::uint8_t>(c));
    // Pad to an 8-byte boundary so every u64 read stays aligned in concept
    // (the reader is byte-addressed; padding just keeps the format regular).
    while (out_.size() % 8 != 0) out_.push_back(0);
  }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  std::uint64_t u64() {
    TCFPN_CHECK(pos_ + 8 <= bytes_.size(),
                "truncated checkpoint at byte ", pos_);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool b() { return u64() != 0; }
  /// Bounded count read: guards length-prefixed loops against garbage sizes
  /// before any allocation happens.
  std::size_t count(const char* what) {
    const std::uint64_t n = u64();
    TCFPN_CHECK(n <= bytes_.size(),
                "implausible ", what, " count ", n, " in checkpoint");
    return static_cast<std::size_t>(n);
  }
  std::string str() {
    const std::size_t n = count("string-length");
    TCFPN_CHECK(pos_ + n <= bytes_.size(),
                "truncated checkpoint string at byte ", pos_);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    while (pos_ % 8 != 0) {
      TCFPN_CHECK(pos_ < bytes_.size(), "truncated checkpoint padding");
      ++pos_;
    }
    return s;
  }
  bool done() const { return pos_ == bytes_.size(); }
  std::size_t pos() const { return pos_; }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

void write_stats(Writer& w, const machine::MachineStats& st) {
  w.u64(st.cycles);
  w.u64(st.steps);
  w.u64(st.tcf_instructions);
  w.u64(st.operations);
  w.u64(st.instruction_fetches);
  w.u64(st.spawns);
  w.u64(st.joins);
  w.u64(st.busy_slots);
  w.u64(st.idle_slots);
  w.u64(st.memory_wait_cycles);
  w.u64(st.task_switch_cycles);
  w.u64(st.branch_cost_cycles);
}

machine::MachineStats read_stats(Reader& r) {
  machine::MachineStats st;
  st.cycles = r.u64();
  st.steps = r.u64();
  st.tcf_instructions = r.u64();
  st.operations = r.u64();
  st.instruction_fetches = r.u64();
  st.spawns = r.u64();
  st.joins = r.u64();
  st.busy_slots = r.u64();
  st.idle_slots = r.u64();
  st.memory_wait_cycles = r.u64();
  st.task_switch_cycles = r.u64();
  st.branch_cost_cycles = r.u64();
  return st;
}

void write_flow(Writer& w, const machine::FlowState& f) {
  w.u64(f.id);
  w.u64(f.parent);
  w.u64(f.home);
  w.u64(f.pc);
  w.u64(static_cast<std::uint64_t>(f.mode));
  w.i64(f.thickness);
  w.u64(f.numa_block);
  w.u64(static_cast<std::uint64_t>(f.status));
  w.u64(f.live_children);
  w.u64(f.next_unexecuted);
  w.u64(f.lane_regs.size());
  for (const auto& regs : f.lane_regs) {
    for (Word v : regs) w.i64(v);
  }
  w.u64(f.call_stack.size());
  for (std::uint64_t pc : f.call_stack) w.u64(pc);
  w.u64(f.instr_writes.size());
  for (const auto& [a, v] : f.instr_writes) {
    w.u64(a);
    w.i64(v);
  }
  w.b(f.multiop_blocked);
  w.b(f.evicted_once);
}

machine::FlowState read_flow(Reader& r) {
  machine::FlowState f;
  f.id = r.u64();
  f.parent = r.u64();
  f.home = static_cast<GroupId>(r.u64());
  f.pc = r.u64();
  f.mode = static_cast<machine::FlowMode>(r.u64());
  f.thickness = r.i64();
  f.numa_block = static_cast<std::uint32_t>(r.u64());
  f.status = static_cast<machine::FlowStatus>(r.u64());
  f.live_children = static_cast<std::uint32_t>(r.u64());
  f.next_unexecuted = r.u64();
  f.lane_regs.resize(r.count("lane"));
  for (auto& regs : f.lane_regs) {
    for (Word& v : regs) v = r.i64();
  }
  f.call_stack.resize(r.count("call-stack"));
  for (std::uint64_t& pc : f.call_stack) pc = r.u64();
  f.instr_writes.resize(r.count("instr-write"));
  for (auto& [a, v] : f.instr_writes) {
    a = r.u64();
    v = r.i64();
  }
  f.multiop_blocked = r.b();
  f.evicted_once = r.b();
  return f;
}

void write_ids(Writer& w, const std::vector<FlowId>& ids) {
  w.u64(ids.size());
  for (FlowId id : ids) w.u64(id);
}

std::vector<FlowId> read_ids(Reader& r) {
  std::vector<FlowId> ids(r.count("flow-id"));
  for (FlowId& id : ids) id = r.u64();
  return ids;
}

}  // namespace

std::vector<std::uint8_t> serialize(const machine::MachineState& s) {
  Writer w;
  std::vector<std::uint8_t> out(kMagic, kMagic + sizeof(kMagic));
  w.u64(s.config_fingerprint);
  w.u64(s.program_fingerprint);
  write_stats(w, s.stats);

  w.u64(s.flows.size());
  for (const auto& f : s.flows) write_flow(w, f);

  w.u64(s.groups.size());
  for (const auto& g : s.groups) {
    write_ids(w, g.resident);
    write_ids(w, g.overflow);
  }
  write_ids(w, s.pending_spawns);

  w.u64(s.dead_groups.size());
  for (std::uint8_t d : s.dead_groups) w.u64(d);

  w.u64(s.shared.store.size());
  for (Word v : s.shared.store) w.i64(v);
  w.u64(s.shared.step);
  w.u64(s.shared.next_ticket);
  w.u64(s.shared.total_reads);
  w.u64(s.shared.total_writes);
  w.u64(s.shared.total_multiops);
  w.u64(s.shared.last_traffic.size());
  for (const auto& t : s.shared.last_traffic) {
    w.u64(t.reads);
    w.u64(t.writes);
    w.u64(t.multiops);
  }

  w.u64(s.locals.size());
  for (const auto& lm : s.locals) {
    w.u64(lm.store.size());
    for (Word v : lm.store) w.i64(v);
    w.u64(lm.reads);
    w.u64(lm.writes);
    w.u64(lm.remote_accesses);
  }

  w.u64(s.net.now);
  w.u64(s.net.next_id);
  w.u64(s.net.injected);
  w.u64(s.net.delivered);
  w.u64(s.net.peak_queue);

  w.u64(s.metrics.size());
  for (const auto& [path, ins] : s.metrics) {
    w.str(path);
    w.u64(static_cast<std::uint64_t>(ins.kind));
    w.u64(ins.count);
    w.f64(ins.gauge_value);
    w.b(ins.gauge_set);
    w.u64(ins.acc.n);
    w.f64(ins.acc.sum);
    w.f64(ins.acc.mean);
    w.f64(ins.acc.m2);
    w.f64(ins.acc.min);
    w.f64(ins.acc.max);
    w.f64(ins.lo);
    w.f64(ins.hi);
    w.u64(ins.buckets.size());
    for (std::uint64_t b : ins.buckets) w.u64(b);
  }

  w.u64(s.debug_out.size());
  for (Word v : s.debug_out) w.i64(v);

  w.u64(s.step_samples.size());
  for (const auto& smp : s.step_samples) {
    w.u64(smp.step);
    w.u64(smp.cycles);
    w.u64(smp.operations);
    w.u64(smp.busy_slots);
    w.u64(smp.idle_slots);
    w.u64(smp.live_flows);
  }

  w.u64(s.profile.cells.size());
  for (const auto& [k, c] : s.profile.cells) {
    w.i64(k.group);
    w.i64(k.flow);
    w.i64(k.pc);
    w.u64(static_cast<std::uint64_t>(k.term));
    w.u64(c);
  }
  w.u64(s.profile.steps.size());
  for (const auto& rec : s.profile.steps) {
    w.u64(rec.step);
    w.i64(rec.limit_group);
    w.u64(rec.fill);
    w.u64(rec.slot);
    w.u64(rec.net);
    w.u64(rec.fault);
    w.u64(rec.work);
  }
  w.b(s.profile.steps_truncated);

  auto body = w.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

machine::MachineState deserialize(const std::vector<std::uint8_t>& bytes) {
  const bool v3 =
      bytes.size() >= sizeof(kMagic) &&
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0;
  const bool v2 =
      !v3 && bytes.size() >= sizeof(kMagicV2) &&
      std::memcmp(bytes.data(), kMagicV2, sizeof(kMagicV2)) == 0;
  TCFPN_CHECK(v3 || v2, "not a tcfpn checkpoint (bad magic)");
  std::vector<std::uint8_t> body(bytes.begin() + sizeof(kMagic), bytes.end());
  Reader r(body);
  machine::MachineState s;
  s.config_fingerprint = r.u64();
  s.program_fingerprint = r.u64();
  s.stats = read_stats(r);

  s.flows.resize(r.count("flow"));
  for (auto& f : s.flows) f = read_flow(r);

  s.groups.resize(r.count("group"));
  for (auto& g : s.groups) {
    g.resident = read_ids(r);
    g.overflow = read_ids(r);
  }
  s.pending_spawns = read_ids(r);

  s.dead_groups.resize(r.count("dead-group"));
  for (std::uint8_t& d : s.dead_groups) {
    d = static_cast<std::uint8_t>(r.u64() != 0);
  }

  s.shared.store.resize(r.count("shared-word"));
  for (Word& v : s.shared.store) v = r.i64();
  s.shared.step = r.u64();
  s.shared.next_ticket = r.u64();
  s.shared.total_reads = r.u64();
  s.shared.total_writes = r.u64();
  s.shared.total_multiops = r.u64();
  s.shared.last_traffic.resize(r.count("module"));
  for (auto& t : s.shared.last_traffic) {
    t.reads = r.u64();
    t.writes = r.u64();
    t.multiops = r.u64();
  }

  s.locals.resize(r.count("local-memory"));
  for (auto& lm : s.locals) {
    lm.store.resize(r.count("local-word"));
    for (Word& v : lm.store) v = r.i64();
    lm.reads = r.u64();
    lm.writes = r.u64();
    lm.remote_accesses = r.u64();
  }

  s.net.now = r.u64();
  s.net.next_id = r.u64();
  s.net.injected = r.u64();
  s.net.delivered = r.u64();
  s.net.peak_queue = static_cast<std::size_t>(r.u64());

  const std::size_t n_metrics = r.count("metric");
  for (std::size_t i = 0; i < n_metrics; ++i) {
    const std::string path = r.str();
    metrics::RawInstrument ins;
    ins.kind = static_cast<metrics::InstrumentKind>(r.u64());
    ins.count = r.u64();
    ins.gauge_value = r.f64();
    ins.gauge_set = r.b();
    ins.acc.n = r.u64();
    ins.acc.sum = r.f64();
    ins.acc.mean = r.f64();
    ins.acc.m2 = r.f64();
    ins.acc.min = r.f64();
    ins.acc.max = r.f64();
    ins.lo = r.f64();
    ins.hi = r.f64();
    ins.buckets.resize(r.count("bucket"));
    for (std::uint64_t& b : ins.buckets) b = r.u64();
    s.metrics.emplace(path, std::move(ins));
  }

  s.debug_out.resize(r.count("debug-word"));
  for (Word& v : s.debug_out) v = r.i64();

  s.step_samples.resize(r.count("step-sample"));
  for (auto& smp : s.step_samples) {
    smp.step = r.u64();
    smp.cycles = r.u64();
    smp.operations = r.u64();
    smp.busy_slots = r.u64();
    smp.idle_slots = r.u64();
    smp.live_flows = r.u64();
  }

  if (v3) {
    const std::size_t n_cells = r.count("profile-cell");
    for (std::size_t i = 0; i < n_cells; ++i) {
      prof::Key k;
      k.group = r.i64();
      k.flow = r.i64();
      k.pc = r.i64();
      k.term = static_cast<prof::Term>(r.u64());
      const Cycle c = r.u64();
      s.profile.cells.emplace(k, c);
    }
    const std::size_t n_steps = r.count("profile-step");
    for (std::size_t i = 0; i < n_steps; ++i) {
      prof::StepRecord rec;
      rec.step = r.u64();
      rec.limit_group = r.i64();
      rec.fill = r.u64();
      rec.slot = r.u64();
      rec.net = r.u64();
      rec.fault = r.u64();
      rec.work = r.u64();
      s.profile.steps.push_back(rec);
    }
    s.profile.steps_truncated = r.b();
  }

  TCFPN_CHECK(r.done(), "trailing bytes in checkpoint after byte ", r.pos());
  return s;
}

}  // namespace tcfpn::debug
