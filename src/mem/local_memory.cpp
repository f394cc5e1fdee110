#include "mem/local_memory.hpp"

namespace tcfpn::mem {

LocalMemory::LocalMemory(GroupId owner, std::size_t words,
                         Cycle access_latency)
    : owner_(owner), store_(words, 0), latency_(access_latency) {
  TCFPN_CHECK(words > 0, "local memory must hold at least one word");
  TCFPN_CHECK(access_latency >= 1, "local memory latency must be >= 1 cycle");
}

void LocalMemory::check_addr(Addr a) const {
  if (failed_) {
    TCFPN_FAULT("local memory block of group ", owner_,
                " has failed; access to address ", a, " lost");
  }
  if (a >= store_.size()) {
    TCFPN_FAULT("local memory (group ", owner_, ") access out of range: ", a,
                " >= ", store_.size());
  }
}

Word LocalMemory::read(Addr a) const {
  check_addr(a);
  ++reads_;
  return store_[a];
}

void LocalMemory::write(Addr a, Word v) {
  check_addr(a);
  ++writes_;
  store_[a] = v;
}

}  // namespace tcfpn::mem
