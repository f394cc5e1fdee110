#include "mem/shared_memory.hpp"

#include <algorithm>

namespace tcfpn::mem {

Word apply_multiop(MultiOp op, Word a, Word b) {
  switch (op) {
    case MultiOp::kAdd:
      return static_cast<Word>(static_cast<std::uint64_t>(a) +
                               static_cast<std::uint64_t>(b));
    case MultiOp::kMax:
      return std::max(a, b);
    case MultiOp::kMin:
      return std::min(a, b);
    case MultiOp::kAnd:
      return a & b;
    case MultiOp::kOr:
      return a | b;
  }
  TCFPN_FAULT("unknown multiop ", static_cast<int>(op));
}

const char* to_string(CrcwPolicy policy) {
  switch (policy) {
    case CrcwPolicy::kErew: return "EREW";
    case CrcwPolicy::kCrew: return "CREW";
    case CrcwPolicy::kCommon: return "Common-CRCW";
    case CrcwPolicy::kArbitrary: return "Arbitrary-CRCW";
    case CrcwPolicy::kPriority: return "Priority-CRCW";
  }
  return "?";
}

const char* to_string(MultiOp op) {
  switch (op) {
    case MultiOp::kAdd: return "MPADD";
    case MultiOp::kMax: return "MPMAX";
    case MultiOp::kMin: return "MPMIN";
    case MultiOp::kAnd: return "MPAND";
    case MultiOp::kOr: return "MPOR";
  }
  return "?";
}

namespace {

bool before(const StagedWrite& x, const StagedWrite& y) {
  return x.addr != y.addr ? x.addr < y.addr : x.lane < y.lane;
}

/// Collapses runs of one (addr, lane) key in sorted `w` to the last staged
/// value: rewrites by one lane within a step are program-ordered, not
/// concurrent — store forwarding already made the earlier values
/// flow-private — so only the final one reaches the commit and the CRCW
/// policy.
void collapse_rewrites(std::vector<StagedWrite>& w) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (kept > 0 && w[kept - 1].addr == w[i].addr &&
        w[kept - 1].lane == w[i].lane) {
      w[kept - 1].value = w[i].value;
    } else {
      w[kept++] = w[i];
    }
  }
  w.resize(kept);
}

/// Stable-sorts `w` into (addr, lane) order and collapses rewrites.
void sort_and_collapse(std::vector<StagedWrite>& w) {
  std::stable_sort(w.begin(), w.end(), before);
  collapse_rewrites(w);
}

}  // namespace

SharedMemory::SharedMemory(std::size_t words, std::uint32_t modules,
                           CrcwPolicy policy)
    : store_(words, 0),
      modules_(modules),
      pow2_modules_((modules & (modules - 1)) == 0),
      policy_(policy),
      traffic_(modules),
      last_traffic_(modules) {
  TCFPN_CHECK(words > 0, "shared memory must hold at least one word");
  TCFPN_CHECK(modules > 0, "shared memory needs at least one module");
}

std::uint32_t SharedMemory::hashed_module(Addr a) const {
  const std::uint32_t m = hash_(a);
  TCFPN_CHECK(m < modules_, "address hash returned module ", m,
              " out of range ", modules_);
  return m;
}

void SharedMemory::set_address_hash(std::function<std::uint32_t(Addr)> hash) {
  hash_ = std::move(hash);
}

void SharedMemory::count_modules(const LaneRun& run,
                                 std::uint64_t* per_module) const {
  if (run.unit && !hash_ && run.n > 0) {
    const std::uint64_t whole = run.n / modules_;
    const std::uint64_t rest = run.n % modules_;
    std::uint32_t m = module_of(run.addr[0]);
    for (std::uint32_t k = 0; k < modules_; ++k) {
      per_module[m] += whole + (k < rest ? 1 : 0);
      if (++m == modules_) m = 0;
    }
    return;
  }
  for (std::size_t i = 0; i < run.n; ++i) ++per_module[module_of(run.addr[i])];
}

void SharedMemory::check_addr(Addr a) const {
  if (a >= store_.size()) {
    TCFPN_FAULT("shared memory access out of range: addr ", a, " >= ",
                store_.size());
  }
}

void SharedMemory::note_traffic(Addr a, std::uint64_t ModuleTraffic::*field) {
  ++(traffic_[module_of(a)].*field);
}

Word SharedMemory::read(Addr a, LaneId lane) {
  check_addr(a);
  note_traffic(a, &ModuleTraffic::reads);
  ++total_reads_;
  if (policy_ == CrcwPolicy::kErew) {
    step_reads_.emplace_back(a, lane);
  }
  return store_[a];
}

void SharedMemory::write(Addr a, Word v, LaneId lane) {
  check_addr(a);
  note_traffic(a, &ModuleTraffic::writes);
  ++total_writes_;
  expand_pending_runs();
  append_write(StagedWrite{a, v, lane});
}

void SharedMemory::append_write(const StagedWrite& w) {
  if (!pending_writes_.empty() && !before(pending_writes_.back(), w)) {
    sorted_ = false;
  }
  pending_writes_.push_back(w);
}

void SharedMemory::multiop(Addr a, MultiOp op, Word v, LaneId lane) {
  check_addr(a);
  note_traffic(a, &ModuleTraffic::multiops);
  ++total_multiops_;
  pending_multis_.push_back(PendingMulti{a, op, v, lane, ~std::size_t{0}});
}

std::size_t SharedMemory::multiprefix(Addr a, MultiOp op, Word v, LaneId lane) {
  check_addr(a);
  note_traffic(a, &ModuleTraffic::multiops);
  ++total_multiops_;
  const std::size_t ticket = next_ticket_++;
  pending_multis_.push_back(PendingMulti{a, op, v, lane, ticket});
  return ticket;
}

void SharedMemory::read_run(const LaneRun& run, const std::uint64_t* per_module,
                            Word* out) {
  for (std::uint32_t m = 0; m < modules_; ++m) {
    traffic_[m].reads += per_module[m];
  }
  total_reads_ += run.n;
  if (policy_ == CrcwPolicy::kErew) {
    for (std::size_t i = 0; i < run.n; ++i) {
      step_reads_.emplace_back(run.addr[i], run.lane0 + i);
    }
  }
  if (out == nullptr || run.n == 0) return;
  if (run.unit) {
    std::copy_n(store_.data() + run.addr[0], run.n, out);
    return;
  }
  for (std::size_t i = 0; i < run.n; ++i) out[i] = store_[run.addr[i]];
}

void SharedMemory::write_run(const LaneRun& run, const Word* value,
                             const std::uint64_t* per_module) {
  for (std::uint32_t m = 0; m < modules_; ++m) {
    traffic_[m].writes += per_module[m];
  }
  total_writes_ += run.n;
  if (run.n == 0) return;
  // Groups writing ascending windows leave one list of pending runs that
  // commit copies. EREW stays on records: check_erew_reads walks them.
  if (run.unit && policy_ != CrcwPolicy::kErew && pending_writes_.empty() &&
      (pending_runs_.empty() ||
       run.addr[0] >= pending_runs_.back().addr + pending_runs_.back().n)) {
    pending_runs_.push_back(
        PendingRun{run.addr[0], run.lane0, run.n, run_values_.size()});
    run_values_.insert(run_values_.end(), value, value + run.n);
    return;
  }
  expand_pending_runs();
  for (std::size_t i = 0; i < run.n; ++i) {
    append_write(StagedWrite{run.addr[i], value[i], run.lane0 + i});
  }
}

Word SharedMemory::prefix_result(std::size_t ticket) const {
  TCFPN_CHECK(ticket < prefix_results_.size(),
              "prefix ticket ", ticket, " has no committed result");
  return prefix_results_[ticket];
}

void SharedMemory::bind_metrics(metrics::MetricsRegistry* reg) {
  if (reg == nullptr) {
    m_write_cells_ = nullptr;
    m_concurrent_write_cells_ = nullptr;
    m_multiop_cells_ = nullptr;
    m_prefix_tickets_ = nullptr;
    return;
  }
  m_write_cells_ = &reg->counter("mem/committed_write_cells");
  m_concurrent_write_cells_ = &reg->counter("mem/concurrent_write_cells");
  m_multiop_cells_ = &reg->counter("mem/multiop_cells_combined");
  m_prefix_tickets_ = &reg->counter("mem/prefix_tickets");
}

void SharedMemory::commit_writes() {
  // Unit runs ascend without overlap: one copy each, no concurrent cell.
  if (!pending_runs_.empty()) {
    std::uint64_t cells = 0;
    for (const PendingRun& r : pending_runs_) {
      std::copy_n(run_values_.data() + r.at, r.n, store_.data() + r.addr);
      cells += r.n;
    }
    if (m_write_cells_ != nullptr) m_write_cells_->add(cells);
    pending_runs_.clear();
    run_values_.clear();
  }
  // Records out of strict order are stably sorted (equal keys keep issue
  // order) and collapsed; strictly ordered ones are committed as they are.
  if (!sorted_) sort_and_collapse(pending_writes_);
  sorted_ = true;
  for (std::size_t i = 0; i < pending_writes_.size();) {
    std::size_t j = i + 1;
    while (j < pending_writes_.size() &&
           pending_writes_[j].addr == pending_writes_[i].addr) {
      ++j;
    }
    const std::size_t writers = j - i;
    const Addr addr = pending_writes_[i].addr;
    if (m_write_cells_ != nullptr) m_write_cells_->add();
    if (writers > 1) {
      if (m_concurrent_write_cells_ != nullptr) {
        m_concurrent_write_cells_->add();
      }
      switch (policy_) {
        case CrcwPolicy::kErew:
        case CrcwPolicy::kCrew:
          TCFPN_FAULT(to_string(policy_), " violation: ", writers,
                      " concurrent writes to address ", addr, " in step ",
                      step_);
        case CrcwPolicy::kCommon:
          for (std::size_t k = i + 1; k < j; ++k) {
            if (pending_writes_[k].value != pending_writes_[i].value) {
              TCFPN_FAULT("Common-CRCW violation: unequal concurrent writes "
                          "to address ", addr, " in step ", step_, " (",
                          pending_writes_[i].value, " vs ",
                          pending_writes_[k].value, ")");
            }
          }
          break;
        case CrcwPolicy::kArbitrary:
        case CrcwPolicy::kPriority:
          break;  // lowest lane (= first after sort) wins
      }
    }
    store_[addr] = pending_writes_[i].value;
    i = j;
  }
  check_erew_reads();
  pending_writes_.clear();
}

void SharedMemory::check_erew_reads() {
  if (policy_ != CrcwPolicy::kErew || step_reads_.empty()) return;
  std::sort(step_reads_.begin(), step_reads_.end());
  // Re-reads by one (flow, lane) key are exclusive accesses, not concurrent
  // ones — a single lane may touch a cell any number of times in a step.
  step_reads_.erase(std::unique(step_reads_.begin(), step_reads_.end()),
                    step_reads_.end());
  for (std::size_t r = 1; r < step_reads_.size(); ++r) {
    if (step_reads_[r].first == step_reads_[r - 1].first) {
      TCFPN_FAULT("EREW violation: concurrent reads of address ",
                  step_reads_[r].first, " in step ", step_);
    }
  }
  // At most one key per read address from here on; a write by a *different*
  // key to a read address breaks exclusivity (read-modify-write by the same
  // key is legal).
  for (const auto& w : pending_writes_) {
    const auto it = std::lower_bound(
        step_reads_.begin(), step_reads_.end(), w.addr,
        [](const auto& lhs, Addr rhs) { return lhs.first < rhs; });
    if (it != step_reads_.end() && it->first == w.addr &&
        it->second != w.lane) {
      TCFPN_FAULT("EREW violation: address ", w.addr,
                  " both read and written in step ", step_);
    }
  }
}

void SharedMemory::commit_multis() {
  if (pending_multis_.empty()) return;
  std::sort(pending_multis_.begin(), pending_multis_.end());
  prefix_results_.resize(next_ticket_);
  for (std::size_t i = 0; i < pending_multis_.size();) {
    std::size_t j = i + 1;
    while (j < pending_multis_.size() &&
           pending_multis_[j].addr == pending_multis_[i].addr) {
      ++j;
    }
    const Addr addr = pending_multis_[i].addr;
    const MultiOp op = pending_multis_[i].op;
    if (m_multiop_cells_ != nullptr) m_multiop_cells_->add();
    Word running = store_[addr];
    for (std::size_t k = i; k < j; ++k) {
      if (pending_multis_[k].op != op) {
        TCFPN_FAULT("mixed multioperations (", to_string(op), " vs ",
                    to_string(pending_multis_[k].op), ") on address ", addr,
                    " in step ", step_);
      }
      if (pending_multis_[k].ticket != ~std::size_t{0}) {
        // Multiprefix semantics: participant k receives the combination of
        // the cell's previous value with all lower-lane contributions.
        prefix_results_[pending_multis_[k].ticket] = running;
        if (m_prefix_tickets_ != nullptr) m_prefix_tickets_->add();
      }
      running = apply_multiop(op, running, pending_multis_[k].value);
    }
    store_[addr] = running;
    i = j;
  }
  pending_multis_.clear();
}

void SharedMemory::expand_pending_runs() {
  // pending_writes_ is empty while runs are pending, and ascending,
  // disjoint runs make strictly ordered records.
  for (const PendingRun& r : pending_runs_) {
    for (std::size_t i = 0; i < r.n; ++i) {
      pending_writes_.push_back(
          StagedWrite{r.addr + i, run_values_[r.at + i], r.lane + i});
    }
  }
  pending_runs_.clear();
  run_values_.clear();
}

void SharedMemory::commit_step() {
  commit_writes();
  commit_multis();
  step_reads_.clear();
  last_traffic_ = traffic_;
  std::fill(traffic_.begin(), traffic_.end(), ModuleTraffic{});
  ++step_;
}

Word SharedMemory::peek(Addr a) const {
  check_addr(a);
  return store_[a];
}

void SharedMemory::poke(Addr a, Word v) {
  check_addr(a);
  store_[a] = v;
}

SharedMemoryState SharedMemory::save_state() const {
  TCFPN_CHECK(pending_writes_.empty() && pending_runs_.empty() &&
                  pending_multis_.empty() && step_reads_.empty(),
              "shared-memory checkpoint requires a step boundary");
  SharedMemoryState s;
  s.store = store_;
  s.step = step_;
  s.next_ticket = next_ticket_;
  s.total_reads = total_reads_;
  s.total_writes = total_writes_;
  s.total_multiops = total_multiops_;
  s.last_traffic = last_traffic_;
  return s;
}

void SharedMemory::restore_state(const SharedMemoryState& s) {
  TCFPN_CHECK(s.store.size() == store_.size(),
              "shared-memory restore size mismatch: ", s.store.size(),
              " words into ", store_.size());
  TCFPN_CHECK(s.last_traffic.size() == traffic_.size(),
              "shared-memory restore module-count mismatch");
  store_ = s.store;
  step_ = s.step;
  next_ticket_ = s.next_ticket;
  total_reads_ = s.total_reads;
  total_writes_ = s.total_writes;
  total_multiops_ = s.total_multiops;
  last_traffic_ = s.last_traffic;
  // Discard any mid-step staging the current (possibly fault-aborted) step
  // left behind. Prefix results are write-once-read-once within their own
  // step, so a zeroed table of the right size is indistinguishable from the
  // original.
  pending_writes_.clear();
  pending_runs_.clear();
  run_values_.clear();
  sorted_ = true;
  pending_multis_.clear();
  step_reads_.clear();
  prefix_results_.assign(next_ticket_, 0);
  std::fill(traffic_.begin(), traffic_.end(), ModuleTraffic{});
}

std::uint64_t SharedMemory::last_step_max_module_load() const {
  std::uint64_t peak = 0;
  for (const auto& t : last_traffic_) peak = std::max(peak, t.total());
  return peak;
}

}  // namespace tcfpn::mem
