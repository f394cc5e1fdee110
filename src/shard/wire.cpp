#include "shard/wire.hpp"

#include <cstring>

#include "common/check.hpp"
#include "isa/instr.hpp"

namespace tcfpn::shard {

namespace {

// ----- primitive stream helpers -----
//
// Same conventions as the TCFCKPT checkpoint codec: little-endian integers,
// strings length-prefixed. The Reader never throws:
// it trips a sticky `ok` flag on any out-of-bounds access, and every decode_*
// entry point returns that flag — a babbling peer yields `false`, not UB.

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>* out) : out_(out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) out_->push_back((v >> (8 * i)) & 0xff);
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_->push_back((v >> (8 * i)) & 0xff);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_->push_back((v >> (8 * i)) & 0xff);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    out_->insert(out_->end(), s.begin(), s.end());
  }
  void bytes(const std::vector<std::uint8_t>& b) {
    u64(b.size());
    out_->insert(out_->end(), b.begin(), b.end());
  }

 private:
  std::vector<std::uint8_t>* out_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t n) : data_(data), n_(n) {}

  bool ok() const { return ok_; }
  bool done() const { return ok_ && pos_ == n_; }
  std::size_t remaining() const { return n_ - pos_; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= std::uint16_t{data_[pos_++]} << (8 * i);
    return v;
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_++]} << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_++]} << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  /// Length prefix guarded against absurd counts: each element occupies at
  /// least `elem_bytes` more bytes, so a count the buffer cannot possibly
  /// hold is malformed (prevents OOM on corrupt input).
  std::uint64_t count(std::size_t elem_bytes) {
    const std::uint64_t c = u64();
    if (!ok_) return 0;
    if (elem_bytes > 0 && c > remaining() / elem_bytes) {
      ok_ = false;
      return 0;
    }
    return c;
  }

  std::string str() {
    const std::uint64_t c = count(1);
    if (!ok_) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), c);
    pos_ += c;
    return s;
  }
  std::vector<std::uint8_t> bytes() {
    const std::uint64_t c = count(1);
    if (!ok_) return {};
    std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + c);
    pos_ += c;
    return b;
  }

 private:
  bool take(std::size_t k) {
    if (!ok_ || n_ - pos_ < k) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

void put_u64_vec(Writer& w, const std::vector<std::uint64_t>& v) {
  w.u64(v.size());
  for (std::uint64_t x : v) w.u64(x);
}

bool get_u64_vec(Reader& r, std::vector<std::uint64_t>* v) {
  const std::uint64_t c = r.count(8);
  if (!r.ok()) return false;
  v->resize(c);
  for (std::uint64_t& x : *v) x = r.u64();
  return r.ok();
}

void put_word_vec(Writer& w, const std::vector<Word>& v) {
  w.u64(v.size());
  for (Word x : v) w.i64(x);
}

bool get_word_vec(Reader& r, std::vector<Word>* v) {
  const std::uint64_t c = r.count(8);
  if (!r.ok()) return false;
  v->resize(c);
  for (Word& x : *v) x = r.i64();
  return r.ok();
}

void put_lane_regs(Writer& w, const machine::LaneRegs& regs) {
  for (Word x : regs) w.i64(x);
}

bool get_lane_regs(Reader& r, machine::LaneRegs* regs) {
  for (Word& x : *regs) x = r.i64();
  return r.ok();
}

void put_stats(Writer& w, const machine::MachineStats& s) {
  w.u64(s.cycles);
  w.u64(s.steps);
  w.u64(s.tcf_instructions);
  w.u64(s.operations);
  w.u64(s.instruction_fetches);
  w.u64(s.spawns);
  w.u64(s.joins);
  w.u64(s.busy_slots);
  w.u64(s.idle_slots);
  w.u64(s.memory_wait_cycles);
  w.u64(s.task_switch_cycles);
  w.u64(s.branch_cost_cycles);
}

bool get_stats(Reader& r, machine::MachineStats* s) {
  s->cycles = r.u64();
  s->steps = r.u64();
  s->tcf_instructions = r.u64();
  s->operations = r.u64();
  s->instruction_fetches = r.u64();
  s->spawns = r.u64();
  s->joins = r.u64();
  s->busy_slots = r.u64();
  s->idle_slots = r.u64();
  s->memory_wait_cycles = r.u64();
  s->task_switch_cycles = r.u64();
  s->branch_cost_cycles = r.u64();
  return r.ok();
}

void put_port_image(Writer& w, const mem::MemoryPort::Image& img) {
  w.u64(img.writes.size());
  for (const mem::StagedWrite& sw : img.writes) {
    w.u64(sw.addr);
    w.i64(sw.value);
    w.u64(sw.lane);
  }
  w.u64(img.multis.size());
  for (const mem::StagedMulti& sm : img.multis) {
    w.u64(sm.addr);
    w.u8(static_cast<std::uint8_t>(sm.op));
    w.i64(sm.value);
    w.u64(sm.lane);
    w.u8(sm.prefix ? 1 : 0);
  }
  w.u64(img.reads.size());
  for (const auto& [a, lane] : img.reads) {
    w.u64(a);
    w.u64(lane);
  }
  put_u64_vec(w, img.mod_reads);
  put_u64_vec(w, img.mod_writes);
  put_u64_vec(w, img.mod_multis);
  w.u64(img.n_reads);
  w.u64(img.prefixes);
  w.u8(img.sealed ? 1 : 0);
}

bool get_port_image(Reader& r, mem::MemoryPort::Image* img) {
  std::uint64_t c = r.count(24);
  if (!r.ok()) return false;
  img->writes.resize(c);
  for (mem::StagedWrite& sw : img->writes) {
    sw.addr = r.u64();
    sw.value = r.i64();
    sw.lane = r.u64();
  }
  c = r.count(26);
  if (!r.ok()) return false;
  img->multis.resize(c);
  for (mem::StagedMulti& sm : img->multis) {
    sm.addr = r.u64();
    const std::uint8_t op = r.u8();
    if (op > static_cast<std::uint8_t>(mem::MultiOp::kOr)) return false;
    sm.op = static_cast<mem::MultiOp>(op);
    sm.value = r.i64();
    sm.lane = r.u64();
    sm.prefix = r.u8() != 0;
  }
  c = r.count(16);
  if (!r.ok()) return false;
  img->reads.resize(c);
  for (auto& [a, lane] : img->reads) {
    a = r.u64();
    lane = r.u64();
  }
  if (!get_u64_vec(r, &img->mod_reads)) return false;
  if (!get_u64_vec(r, &img->mod_writes)) return false;
  if (!get_u64_vec(r, &img->mod_multis)) return false;
  img->n_reads = r.u64();
  img->prefixes = r.u64();
  img->sealed = r.u8() != 0;
  return r.ok();
}

void put_flow_state(Writer& w, const machine::FlowState& fs) {
  w.u64(fs.id);
  w.u64(fs.parent);
  w.u32(fs.home);
  w.u64(fs.pc);
  w.u8(static_cast<std::uint8_t>(fs.mode));
  w.i64(fs.thickness);
  w.u32(fs.numa_block);
  w.u8(static_cast<std::uint8_t>(fs.status));
  w.u32(fs.live_children);
  w.u64(fs.next_unexecuted);
  w.u64(fs.lane_regs.size());
  for (const machine::LaneRegs& regs : fs.lane_regs) put_lane_regs(w, regs);
  put_u64_vec(w, fs.call_stack);
  w.u64(fs.instr_writes.size());
  for (const auto& [a, v] : fs.instr_writes) {
    w.u64(a);
    w.i64(v);
  }
  w.u8(fs.multiop_blocked ? 1 : 0);
  w.u8(fs.evicted_once ? 1 : 0);
}

bool get_flow_state(Reader& r, machine::FlowState* fs) {
  fs->id = r.u64();
  fs->parent = r.u64();
  fs->home = r.u32();
  fs->pc = r.u64();
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(machine::FlowMode::kNuma)) return false;
  fs->mode = static_cast<machine::FlowMode>(mode);
  fs->thickness = r.i64();
  fs->numa_block = r.u32();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(machine::FlowStatus::kHalted))
    return false;
  fs->status = static_cast<machine::FlowStatus>(status);
  fs->live_children = r.u32();
  fs->next_unexecuted = r.u64();
  const std::uint64_t lanes = r.count(8 * isa::kNumRegisters);
  if (!r.ok()) return false;
  fs->lane_regs.resize(lanes);
  for (machine::LaneRegs& regs : fs->lane_regs) {
    if (!get_lane_regs(r, &regs)) return false;
  }
  if (!get_u64_vec(r, &fs->call_stack)) return false;
  const std::uint64_t iw = r.count(16);
  if (!r.ok()) return false;
  fs->instr_writes.resize(iw);
  for (auto& [a, v] : fs->instr_writes) {
    a = r.u64();
    v = r.i64();
  }
  fs->multiop_blocked = r.u8() != 0;
  fs->evicted_once = r.u8() != 0;
  return r.ok();
}

void put_batch(Writer& w, const machine::ShardGroupBatch& b) {
  w.u32(b.group);
  w.u64(b.step);
  w.u64(b.step_ops);
  put_stats(w, b.delta);
  put_port_image(w, b.port);
  w.u64(b.refs.size());
  for (const auto& [src, module] : b.refs) {
    w.u32(src);
    w.u32(module);
  }
  put_u64_vec(w, b.net_loads);
  w.u64(b.net_refs);
  w.u32(b.net_max_dist);
  w.u64(b.prefix_reqs.size());
  for (const auto& p : b.prefix_reqs) {
    w.u64(p.flow);
    w.u64(p.lane);
    w.u8(p.rd);
    w.u64(p.local);
  }
  w.u64(b.spawns.size());
  for (const auto& s : b.spawns) {
    w.u64(s.parent);
    w.u64(s.entry);
    put_word_vec(w, s.fragments);
    put_lane_regs(w, s.broadcast);
  }
  w.u64(b.halted.size());
  for (FlowId f : b.halted) w.u64(f);
  put_word_vec(w, b.prints);
  w.u64(b.events.size());
  for (const machine::DebugEvent& ev : b.events) {
    w.u8(static_cast<std::uint8_t>(ev.kind));
    w.u64(ev.step);
    w.u64(ev.flow);
    w.u32(ev.group);
    w.i64(ev.a);
    w.i64(ev.b);
  }
  w.u64(b.prof_bins.size());
  for (const auto& [key, cycles] : b.prof_bins) {
    w.i64(key.group);
    w.i64(key.flow);
    w.i64(key.pc);
    w.u8(static_cast<std::uint8_t>(key.term));
    w.u64(cycles);
  }
  for (std::uint64_t n : b.lanes) w.u64(n);
  w.str(b.error);
  w.u64(b.flows.size());
  for (const machine::FlowState& fs : b.flows) put_flow_state(w, fs);
  w.u64(b.local_writes.size());
  for (const auto& [a, v] : b.local_writes) {
    w.u64(a);
    w.i64(v);
  }
  w.u64(b.local_reads);
  w.u64(b.local_write_count);
  w.u64(b.local_remote);
}

bool get_batch(Reader& r, machine::ShardGroupBatch* b) {
  *b = machine::ShardGroupBatch{};
  b->group = r.u32();
  b->step = r.u64();
  b->step_ops = r.u64();
  if (!get_stats(r, &b->delta)) return false;
  if (!get_port_image(r, &b->port)) return false;
  std::uint64_t c = r.count(8);
  if (!r.ok()) return false;
  b->refs.resize(c);
  for (auto& [src, module] : b->refs) {
    src = r.u32();
    module = r.u32();
  }
  if (!get_u64_vec(r, &b->net_loads)) return false;
  b->net_refs = r.u64();
  b->net_max_dist = r.u32();
  c = r.count(25);
  if (!r.ok()) return false;
  b->prefix_reqs.resize(c);
  for (auto& p : b->prefix_reqs) {
    p.flow = r.u64();
    p.lane = r.u64();
    p.rd = r.u8();
    p.local = r.u64();
  }
  c = r.count(24 + 8 * isa::kNumRegisters);
  if (!r.ok()) return false;
  b->spawns.resize(c);
  for (auto& s : b->spawns) {
    s.parent = r.u64();
    s.entry = r.u64();
    if (!get_word_vec(r, &s.fragments)) return false;
    if (!get_lane_regs(r, &s.broadcast)) return false;
  }
  c = r.count(8);
  if (!r.ok()) return false;
  b->halted.resize(c);
  for (FlowId& f : b->halted) f = r.u64();
  if (!get_word_vec(r, &b->prints)) return false;
  c = r.count(37);
  if (!r.ok()) return false;
  b->events.resize(c);
  for (machine::DebugEvent& ev : b->events) {
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(machine::DebugEventKind::kShardRetired))
      return false;
    ev.kind = static_cast<machine::DebugEventKind>(kind);
    ev.step = r.u64();
    ev.flow = r.u64();
    ev.group = r.u32();
    ev.a = r.i64();
    ev.b = r.i64();
  }
  c = r.count(33);
  if (!r.ok()) return false;
  b->prof_bins.resize(c);
  for (auto& [key, cycles] : b->prof_bins) {
    key.group = r.i64();
    key.flow = r.i64();
    key.pc = r.i64();
    const std::uint8_t term = r.u8();
    if (term > static_cast<std::uint8_t>(prof::Term::kSched)) return false;
    key.term = static_cast<prof::Term>(term);
    cycles = r.u64();
  }
  for (std::uint64_t& n : b->lanes) n = r.u64();
  b->error = r.str();
  c = r.count(8);
  if (!r.ok()) return false;
  b->flows.resize(c);
  for (machine::FlowState& fs : b->flows) {
    if (!get_flow_state(r, &fs)) return false;
  }
  c = r.count(16);
  if (!r.ok()) return false;
  b->local_writes.resize(c);
  for (auto& [a, v] : b->local_writes) {
    a = r.u64();
    v = r.i64();
  }
  b->local_reads = r.u64();
  b->local_write_count = r.u64();
  b->local_remote = r.u64();
  return r.ok();
}

}  // namespace

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kStart: return "start";
    case FrameType::kBeginStep: return "begin-step";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kBatch: return "batch";
    case FrameType::kCommit: return "commit";
    case FrameType::kRollback: return "rollback";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kRollbackAck: return "rollback-ack";
  }
  return "?";
}

namespace {

std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

/// The integrity-protected span of a frame is "step || payload": the step
/// field drives the lockstep protocol, so a damaged step must classify as
/// babble at the transport, not surface as a (spurious) lockstep violation.
std::uint32_t frame_crc(StepId step, const std::uint8_t* payload,
                        std::size_t n) {
  std::uint8_t sb[8];
  for (int i = 0; i < 8; ++i) {
    sb[i] = static_cast<std::uint8_t>(step >> (8 * i));
  }
  std::uint32_t crc = crc32_update(0xffffffffu, sb, sizeof sb);
  return crc32_update(crc, payload, n) ^ 0xffffffffu;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  return crc32_update(0xffffffffu, data, n) ^ 0xffffffffu;
}

std::vector<std::uint8_t> encode_frame(const Frame& f) {
  TCFPN_CHECK(f.payload.size() <= kMaxPayloadBytes, "shard frame payload of ",
              f.payload.size(), " bytes exceeds the ", kMaxPayloadBytes,
              "-byte wire ceiling");
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + f.payload.size());
  Writer w(&out);
  w.u32(kMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(f.type));
  w.u32(f.shard);
  w.u32(frame_crc(f.step, f.payload.data(), f.payload.size()));
  w.u64(f.step);
  w.u64(f.payload.size());
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  return out;
}

bool decode_header(const std::uint8_t* hdr, FrameHeader* out) {
  Reader r(hdr, kHeaderBytes);
  if (r.u32() != kMagic) return false;
  if (r.u16() != kWireVersion) return false;
  const std::uint16_t type = r.u16();
  if (type < static_cast<std::uint16_t>(FrameType::kHello) ||
      type > static_cast<std::uint16_t>(FrameType::kRollbackAck)) {
    return false;
  }
  out->type = static_cast<FrameType>(type);
  out->shard = r.u32();
  out->crc = r.u32();
  out->step = r.u64();
  out->payload_len = r.u64();
  // The CRC covers step || payload only, so a damaged len passes every
  // other check; bounding it here is what keeps receivers from allocating
  // (or resizing past) an attacker-sized buffer.
  if (out->payload_len > kMaxPayloadBytes) return false;
  return r.ok();
}

bool assemble_frame(const FrameHeader& h, std::vector<std::uint8_t> payload,
                    Frame* out) {
  if (payload.size() != h.payload_len) return false;
  if (frame_crc(h.step, payload.data(), payload.size()) != h.crc) return false;
  out->type = h.type;
  out->shard = h.shard;
  out->step = h.step;
  out->payload = std::move(payload);
  return true;
}

bool decode_frame(const std::vector<std::uint8_t>& bytes, Frame* out) {
  if (bytes.size() < kHeaderBytes) return false;
  FrameHeader h;
  if (!decode_header(bytes.data(), &h)) return false;
  if (bytes.size() - kHeaderBytes != h.payload_len) return false;
  return assemble_frame(
      h, std::vector<std::uint8_t>(bytes.begin() + kHeaderBytes, bytes.end()),
      out);
}

std::vector<std::uint8_t> encode_hello(const HelloPayload& p) {
  std::vector<std::uint8_t> out;
  Writer w(&out);
  w.u32(p.shard);
  w.u64(p.config_fp);
  w.u64(p.program_fp);
  return out;
}

bool decode_hello(const std::vector<std::uint8_t>& bytes, HelloPayload* out) {
  Reader r(bytes.data(), bytes.size());
  out->shard = r.u32();
  out->config_fp = r.u64();
  out->program_fp = r.u64();
  return r.done();
}

std::vector<std::uint8_t> encode_start(const StartPayload& p) {
  std::vector<std::uint8_t> out;
  Writer w(&out);
  w.bytes(p.owned);
  w.bytes(p.state);
  w.u32(p.heartbeat_ms);
  return out;
}

bool decode_start(const std::vector<std::uint8_t>& bytes, StartPayload* out) {
  Reader r(bytes.data(), bytes.size());
  out->owned = r.bytes();
  out->state = r.bytes();
  out->heartbeat_ms = r.u32();
  return r.done();
}

std::vector<std::uint8_t> encode_rollback(const RollbackPayload& p) {
  std::vector<std::uint8_t> out;
  Writer w(&out);
  w.bytes(p.state);
  w.u64(p.retires.size());
  for (GroupId g : p.retires) w.u32(g);
  return out;
}

bool decode_rollback(const std::vector<std::uint8_t>& bytes,
                     RollbackPayload* out) {
  Reader r(bytes.data(), bytes.size());
  out->state = r.bytes();
  const std::uint64_t c = r.count(4);
  if (!r.ok()) return false;
  out->retires.resize(c);
  for (GroupId& g : out->retires) g = r.u32();
  return r.done();
}

std::vector<std::uint8_t> encode_batch(const machine::ShardGroupBatch& b) {
  std::vector<std::uint8_t> out;
  Writer w(&out);
  put_batch(w, b);
  return out;
}

bool decode_batch(const std::vector<std::uint8_t>& bytes,
                  machine::ShardGroupBatch* out) {
  Reader r(bytes.data(), bytes.size());
  if (!get_batch(r, out)) return false;
  return r.done();
}

std::vector<std::uint8_t> encode_commit(
    const std::vector<machine::ShardGroupBatch>& batches) {
  std::vector<std::uint8_t> out;
  Writer w(&out);
  w.u64(batches.size());
  for (const machine::ShardGroupBatch& b : batches) put_batch(w, b);
  return out;
}

bool decode_commit(const std::vector<std::uint8_t>& bytes,
                   std::vector<machine::ShardGroupBatch>* out) {
  Reader r(bytes.data(), bytes.size());
  const std::uint64_t c = r.count(1);
  if (!r.ok()) return false;
  out->clear();
  out->reserve(c);
  for (std::uint64_t i = 0; i < c; ++i) {
    machine::ShardGroupBatch b;
    if (!get_batch(r, &b)) return false;
    out->push_back(std::move(b));
  }
  return r.done();
}

}  // namespace tcfpn::shard
