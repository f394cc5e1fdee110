// The per-flow store-forwarding buffer: an append-only write log with a
// lazily built hash index.
//
// Every thick ST appends its whole lane run to the log, a unit-stride run
// as one record; most logs are cleared at the step boundary without ever
// being searched (a flow whose step ends after its ST never reads its own
// writes back). The open-addressed index over the log is therefore built
// only on the first lookup, and later appends join it incrementally on the
// next lookup. The index keeps its slot array across steps (epoch tagging
// makes clear() O(1)) and never allocates on the clear path. Keys are
// shared-memory addresses; the last write to a key wins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "mem/shared_memory.hpp"

namespace tcfpn::machine {

class WriteBuffer {
 public:
  bool empty() const { return log_.empty(); }
  /// Logged writes, rewrites of one key included.
  std::size_t size() const { return values_.size(); }

  /// Forgets every write without releasing storage: bumps the index epoch
  /// so old slots read as vacant. O(1) except once per 2^64 clears.
  void clear() {
    log_.clear();
    values_.clear();
    if (indexed_ == 0) return;  // the index holds nothing of this epoch
    indexed_ = 0;
    if (++epoch_ == 0) {  // epoch wrapped: scrub slots so stale tags die
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  /// Appends one write.
  void put(Addr a, Word v) {
    log_.push_back(Record{a, 1, values_.size()});
    values_.push_back(v);
  }

  /// Appends the writes (run.addr[i], v[i]) for i in [0, run.n), in that
  /// order: one record for a unit run, one per lane otherwise.
  void put_run(const mem::LaneRun& run, const Word* v) {
    const std::size_t at = values_.size();
    values_.insert(values_.end(), v, v + run.n);
    if (run.unit) {
      log_.push_back(Record{run.addr[0], run.n, at});
      return;
    }
    for (std::size_t i = 0; i < run.n; ++i) {
      log_.push_back(Record{run.addr[i], 1, at + i});
    }
  }

  /// Moves every write of `other` after this buffer's own, leaving `other`
  /// empty. Takes over other's log wholesale when this one is empty.
  void absorb(WriteBuffer& other) {
    if (log_.empty()) {
      log_.swap(other.log_);
      values_.swap(other.values_);
    } else {
      const std::size_t shift = values_.size();
      values_.insert(values_.end(), other.values_.begin(),
                     other.values_.end());
      for (const Record& r : other.log_) {
        log_.push_back(Record{r.addr, r.n, r.at + shift});
      }
    }
    other.clear();
  }

  /// Last value written to `a`, or nullptr. Indexes any writes appended
  /// since the previous lookup first.
  const Word* find(Addr a) {
    if (log_.empty()) return nullptr;
    if (indexed_ < log_.size()) index_log();
    std::size_t i = probe_start(a);
    for (;;) {
      const Slot& s = slots_[i];
      if (s.epoch != epoch_) return nullptr;
      if (s.key == a) return &s.value;
      i = (i + 1) & mask_;
    }
  }

  /// One (addr, last value) pair per written key, keys in first-write order
  /// (checkpoint layer; the caller sorts for a canonical serialization).
  std::vector<std::pair<Addr, Word>> items() const {
    std::vector<std::pair<Addr, Word>> out;
    std::unordered_map<Addr, std::size_t> at;
    for (const Record& r : log_) {
      for (std::size_t k = 0; k < r.n; ++k) {
        const Word v = values_[r.at + k];
        const auto [it, fresh] = at.try_emplace(r.addr + k, out.size());
        if (fresh) {
          out.emplace_back(r.addr + k, v);
        } else {
          out[it->second].second = v;
        }
      }
    }
    return out;
  }

 private:
  /// Writes to addr, addr + 1, ..., addr + n - 1 of values_[at, at + n).
  struct Record {
    Addr addr;
    std::size_t n;
    std::size_t at;
  };

  struct Slot {
    Addr key = 0;
    Word value = 0;
    std::uint64_t epoch = 0;  ///< vacant unless == current epoch
  };

  std::size_t probe_start(Addr a) const {
    // Fibonacci hashing spreads the low-entropy address keys over the table.
    return static_cast<std::size_t>((a * 0x9e3779b97f4a7c15ull) >> 32) & mask_;
  }

  /// Brings the index up to date with the log. The table holds at least
  /// twice as many slots as logged writes, so it is never more than half
  /// full; outgrowing it re-indexes the whole log into a larger table.
  void index_log() {
    if (2 * values_.size() > slots_.size()) {
      std::size_t cap = slots_.empty() ? 16 : slots_.size();
      while (cap < 2 * values_.size()) cap *= 2;
      slots_.assign(cap, Slot{});
      mask_ = cap - 1;
      epoch_ = 1;
      indexed_ = 0;
    }
    for (; indexed_ < log_.size(); ++indexed_) {
      const Record& r = log_[indexed_];
      for (std::size_t k = 0; k < r.n; ++k) {
        const Addr a = r.addr + k;
        std::size_t i = probe_start(a);
        while (slots_[i].epoch == epoch_ && slots_[i].key != a) {
          i = (i + 1) & mask_;
        }
        slots_[i] = Slot{a, values_[r.at + k], epoch_};
      }
    }
  }

  std::vector<Record> log_;   ///< every write record, in order
  std::vector<Word> values_;  ///< the logged values, in log order
  std::size_t indexed_ = 0;   ///< log_[0, indexed_) is in the index
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint64_t epoch_ = 1;
};

}  // namespace tcfpn::machine
