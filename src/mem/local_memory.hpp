// Per-group local memory blocks (the NUMA side of PRAM-NUMA).
//
// Section 2.1: "each processor group is attached to its own local memory
// block". NUMA-mode accesses hit this block with a small fixed latency and
// *immediate* (non-step-buffered) semantics — a NUMA bunch is a single
// sequential instruction stream, so ordinary sequential consistency within
// the bunch is exactly the model.
//
// Accesses from a *different* group are legal in the model (the
// interconnection network connects the local-memory access paths together)
// but pay distance-proportional latency; the machine layer routes those
// through src/net and merely calls remote_access() here for accounting.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace tcfpn::mem {

/// Complete state of a LocalMemory (checkpoint layer). NUMA accesses are
/// immediate, so unlike SharedMemory there is no staging to exclude.
struct LocalMemoryState {
  std::vector<Word> store;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t remote_accesses = 0;
};

class LocalMemory {
 public:
  LocalMemory(GroupId owner, std::size_t words, Cycle access_latency = 1);

  GroupId owner() const { return owner_; }
  std::size_t size() const { return store_.size(); }
  Cycle access_latency() const { return latency_; }

  Word read(Addr a) const;
  void write(Addr a, Word v);

  /// Accounting hook for accesses that arrived over the network.
  void remote_access() { ++remote_accesses_; }

  // ----- fault injection (src/resil, DESIGN.md §9) -----
  /// Marks the block dead: every subsequent access faults. Executor-owned
  /// and transient — deliberately not part of LocalMemoryState, so a
  /// checkpoint restore (rollback repair) revives the block.
  void set_failed(bool failed) { failed_ = failed; }
  bool failed() const { return failed_; }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t remote_accesses() const { return remote_accesses_; }

  // ----- checkpointing -----
  LocalMemoryState save_state() const {
    return LocalMemoryState{store_, reads_, writes_, remote_accesses_};
  }
  void restore_state(const LocalMemoryState& s) {
    TCFPN_CHECK(s.store.size() == store_.size(),
                "local-memory restore size mismatch: ", s.store.size(),
                " words into ", store_.size());
    store_ = s.store;
    reads_ = s.reads;
    writes_ = s.writes;
    remote_accesses_ = s.remote_accesses;
  }

 private:
  void check_addr(Addr a) const;

  GroupId owner_;
  std::vector<Word> store_;
  Cycle latency_;
  bool failed_ = false;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t remote_accesses_ = 0;
};

}  // namespace tcfpn::mem
