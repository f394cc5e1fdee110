// Bounded ring-buffer event journal (the flight recorder's tape).
//
// Entries carry a monotone sequence number that survives ring eviction, so
// "the last N events before the fault" and "rewind the tape to sequence s"
// are well-defined even after old entries have been dropped. The journal is
// fed from the machine's StepObserver callbacks, which the stepping engine
// delivers in deterministic (group-merge) order — the tape is bit-identical
// across reruns and rollback replays.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/check.hpp"
#include "machine/machine.hpp"

namespace tcfpn::debug {

class Journal {
 public:
  struct Entry {
    std::uint64_t seq = 0;
    machine::DebugEvent event;
  };

  explicit Journal(std::size_t capacity = 4096) : capacity_(capacity) {
    TCFPN_CHECK(capacity_ >= 1, "journal capacity must be >= 1");
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Sequence number the next push will receive.
  std::uint64_t next_seq() const { return next_seq_; }
  /// Sequence number of the oldest retained entry (== next_seq when empty).
  std::uint64_t first_seq() const {
    return entries_.empty() ? next_seq_ : entries_.front().seq;
  }

  /// Appends an event; evicts the oldest entry when full. Returns the
  /// event's sequence number.
  std::uint64_t push(const machine::DebugEvent& ev) {
    if (entries_.size() == capacity_) entries_.pop_front();
    entries_.push_back(Entry{next_seq_, ev});
    return next_seq_++;
  }

  /// The most recent `n` entries, oldest first.
  std::vector<Entry> last(std::size_t n) const {
    const std::size_t count = std::min(n, entries_.size());
    return std::vector<Entry>(entries_.end() - static_cast<std::ptrdiff_t>(count),
                              entries_.end());
  }

  /// All retained entries, oldest first.
  const std::deque<Entry>& entries() const { return entries_; }

  /// Entries recorded at or after sequence `seq`, oldest first.
  std::vector<Entry> since(std::uint64_t seq) const {
    std::vector<Entry> out;
    for (const Entry& e : entries_) {
      if (e.seq >= seq) out.push_back(e);
    }
    return out;
  }

  /// Rewinds the tape: drops every entry with sequence >= `seq` and makes
  /// `seq` the next sequence to be assigned (time-travel re-record).
  void truncate_from(std::uint64_t seq) {
    while (!entries_.empty() && entries_.back().seq >= seq) {
      entries_.pop_back();
    }
    next_seq_ = seq;
  }

  void clear() {
    entries_.clear();
    next_seq_ = 0;
  }

 private:
  std::size_t capacity_;
  std::deque<Entry> entries_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace tcfpn::debug
