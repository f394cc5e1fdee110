// A single-slot, lock-free seal channel between one producer and one
// consumer.
//
// The parallel stepping engine gives every processor group an effect buffer
// (Machine::GroupCtx) that only its executing host thread writes during the
// group phase. An EffectChannel per group turns the step's hard barrier into
// a stream: the worker publishes exactly one message per step — "this
// group's buffer is sealed" — and the stepping thread awaits the channels in
// group order, merging group g's effects while higher groups are still
// executing. Merge order is unchanged, so results stay bit-identical to the
// barrier engine; only the wall-clock overlap differs.
//
// The protocol is the degenerate (capacity-1) SPSC queue: publish() is a
// seq_cst store + wake, await()/ready() are acquire loads, so everything the
// producer wrote to the group's buffer before publishing happens-before the
// consumer's reads after awaiting. reset() must only be called while neither
// side is active (between steps, on the stepping thread).
#pragma once

#include <atomic>
#include <cstdint>

namespace tcfpn::common {

class EffectChannel {
 public:
  /// Re-arms the channel for the next step. Caller must guarantee quiescence.
  void reset() { sealed_.store(0, std::memory_order_relaxed); }

  /// Producer: seals the message. Everything written before this call is
  /// visible to a consumer that observed the seal.
  void publish() {
    // seq_cst, not release: libstdc++'s notify skips the futex wake when its
    // waiter-count load reads zero, and after a release store that load may
    // be satisfied before the store is visible — a consumer that checked
    // the flag and went to sleep in between would never wake. The seq_cst
    // store orders the load after it.
    sealed_.store(1, std::memory_order_seq_cst);
    sealed_.notify_one();
  }

  /// Consumer: non-blocking poll.
  bool ready() const { return sealed_.load(std::memory_order_acquire) != 0; }

  /// Consumer: blocks until published (futex wait; no spinning).
  void await() const {
    sealed_.wait(0, std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint32_t> sealed_{0};
};

}  // namespace tcfpn::common
