// A persistent host-side worker pool for the machine's step driver.
//
// The machine layer commits shared-memory effects at step boundaries
// (DESIGN.md §4), which makes the per-group work inside one machine step
// embarrassingly parallel: each group touches only its own flows, local
// memory and effect buffers, and everything cross-group merges in a fixed
// order. ThreadPool provides the fan-out half of that contract.
//
// One job at a time, in three calls: begin(n, fn) publishes the job and
// wakes the workers but returns immediately; the caller may then interleave
// its own work (the step driver consumes per-group seal channels in merge
// order) with try_run_one() calls that steal one index at a time; end()
// waits for the stragglers and rethrows the lowest faulting index's
// exception.
//
// The dispatch path is lock-free: job claims and completion counts are
// packed atomics (claims generation-tagged so a straggler from job N can
// never touch job N+1's state), and idle workers sleep in
// std::atomic::wait on the generation counter. The only mutex guards the
// cold error-capture path. A machine step is two atomic RMWs per group —
// the old mutex+condvar handshake cost more than small groups' work.
//
// Index->thread assignment is dynamic (a shared claim cursor) and therefore
// nondeterministic; callers that need determinism must make fn(i)'s effects
// independent of assignment and merge them afterwards in index order —
// exactly what Machine::step_synchronous does.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tcfpn::common {

class ThreadPool {
 public:
  /// A pool that runs work on `threads` host threads total: `threads - 1`
  /// persistent workers plus the thread that calls begin() and end().
  explicit ThreadPool(std::uint32_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::uint32_t threads() const { return threads_; }

  /// Publishes a job of n indices and wakes the workers; returns
  /// immediately. `fn` must stay alive until end() returns. Not reentrant.
  void begin(std::size_t n, const std::function<void(std::size_t)>& fn);
  /// Claims and runs one index of the active job on the calling thread.
  /// Returns false when no unclaimed index remains (some may still be
  /// running on workers). Callable between begin() and end().
  bool try_run_one();
  /// Drains remaining indices on the calling thread, waits for every index
  /// to complete, then rethrows the exception of the *lowest* faulting
  /// index, if any (deterministic across index->thread assignments); the
  /// others are dropped. Every non-faulting index still runs.
  void end();

  /// Host threads the hardware supports (>= 1 even when unknown).
  static std::uint32_t hardware_threads();

 private:
  /// claim_ packs (generation << kIndexBits) | next-unclaimed-index. The
  /// generation tag makes a straggler's compare-exchange against a newer
  /// job fail structurally — no ABA window across jobs.
  static constexpr std::uint32_t kIndexBits = 24;
  static constexpr std::uint64_t kIndexMask = (1ull << kIndexBits) - 1;

  void worker_loop();
  /// Claims and runs one index of job `gen`; false when none remain (or the
  /// job is no longer current).
  bool try_claim(std::uint64_t gen);
  void run_index(std::uint64_t idx);

  std::uint32_t threads_;
  std::vector<std::thread> workers_;

  // Job payload: written by begin() before its release-store to gen_, read
  // by workers after their acquire-load of gen_. fn_ needs no further sync
  // (it is only dereferenced after a successful generation-tagged claim).
  // size_ is atomic because a straggler whose stale claim_ load still
  // carries the old generation tag can reach its bound check while the
  // next begin() rewrites size_; the stale value is harmless (the claim
  // CAS fails structurally) but the access must still be race-free.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::atomic<std::uint64_t> size_{0};
  bool active_ = false;  ///< between begin() and end(); caller thread only

  std::atomic<std::uint64_t> gen_{0};    ///< job generation; workers wait here
  std::atomic<std::uint64_t> claim_{0};  ///< (gen << kIndexBits) | next index
  std::atomic<std::uint64_t> done_{0};   ///< completed indices of current job
  std::atomic<bool> stop_{false};

  /// Cold path: only faulting indices take this lock. The lowest index wins
  /// so the surfaced error never depends on thread timing; end() reads the
  /// result without the lock (all completions happened-before done_ == n).
  std::mutex err_mu_;
  std::exception_ptr job_error_;
  std::uint64_t job_error_index_ = 0;
};

}  // namespace tcfpn::common
