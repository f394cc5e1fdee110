#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace tcfpn::common {

ThreadPool::ThreadPool(std::uint32_t threads) : threads_(std::max(threads, 1u)) {
  workers_.reserve(threads_ - 1);
  for (std::uint32_t i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  gen_.fetch_add(1, std::memory_order_release);
  gen_.notify_all();
  for (auto& w : workers_) w.join();
}

std::uint32_t ThreadPool::hardware_threads() {
  return std::max(std::thread::hardware_concurrency(), 1u);
}

bool ThreadPool::try_claim(std::uint64_t gen) {
  const std::uint64_t tag = gen << kIndexBits;
  std::uint64_t cur = claim_.load(std::memory_order_acquire);
  while (true) {
    if (((cur ^ tag) >> kIndexBits) != 0) return false;  // not this job
    const std::uint64_t idx = cur & kIndexMask;
    // Relaxed: a stale size_ only mis-answers the bound check for a job
    // that is no longer current, and then the tagged CAS below fails.
    if (idx >= size_.load(std::memory_order_relaxed)) return false;
    if (claim_.compare_exchange_weak(cur, tag | (idx + 1),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      run_index(idx);
      return true;
    }
    // cur was reloaded by the failed exchange; re-check the tag.
  }
}

void ThreadPool::run_index(std::uint64_t idx) {
  std::exception_ptr error;
  try {
    (*fn_)(static_cast<std::size_t>(idx));
  } catch (...) {
    // Captured, not propagated: letting it unwind a worker thread would
    // std::terminate. end() rethrows after the drain.
    error = std::current_exception();
  }
  if (error) {
    std::lock_guard<std::mutex> lock(err_mu_);
    if (!job_error_ || idx < job_error_index_) {
      job_error_ = error;
      job_error_index_ = idx;
    }
  }
  // The release increment orders everything fn(idx) wrote before the
  // caller's acquire read of done_ == n in end().
  const std::uint64_t d = done_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (d == size_.load(std::memory_order_relaxed)) done_.notify_all();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  while (true) {
    gen_.wait(seen, std::memory_order_acquire);
    // Read the generation before stop_: the destructor bumps gen_ after
    // setting stop_, and that bump is no job — end() has already left the
    // claim cursor at index 0 of the next tag, so claiming it would call a
    // null fn_. Whoever sees the bump here also sees stop_.
    seen = gen_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    while (try_claim(seen)) {
    }
  }
}

void ThreadPool::begin(std::size_t n,
                       const std::function<void(std::size_t)>& fn) {
  TCFPN_CHECK(!active_, "ThreadPool job already active (begin without end)");
  TCFPN_CHECK(n <= kIndexMask, "ThreadPool job too large: ", n);
  // No worker touches the previous job anymore: end() returned only after
  // every claimed index reported, and unclaimed stragglers bounce off the
  // generation tag. Plain stores are safe before the release publish.
  fn_ = &fn;
  size_.store(n, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  const std::uint64_t g = gen_.load(std::memory_order_relaxed) + 1;
  claim_.store(g << kIndexBits, std::memory_order_relaxed);
  active_ = true;
  // seq_cst for the same reason as EffectChannel::publish: a release store
  // lets notify_all's waiter-count load pass it, and a worker that just
  // went to sleep would miss this job.
  gen_.store(g, std::memory_order_seq_cst);
  gen_.notify_all();
}

bool ThreadPool::try_run_one() {
  return try_claim(gen_.load(std::memory_order_acquire));
}

void ThreadPool::end() {
  TCFPN_CHECK(active_, "ThreadPool::end() without begin()");
  const std::uint64_t g = gen_.load(std::memory_order_acquire);
  while (try_claim(g)) {
  }
  std::uint64_t d = done_.load(std::memory_order_acquire);
  const std::uint64_t n = size_.load(std::memory_order_relaxed);
  while (d < n) {
    done_.wait(d, std::memory_order_acquire);
    d = done_.load(std::memory_order_acquire);
  }
  // Close the generation before fn_/size_ can be reused: a worker stalled
  // inside try_claim still holds this job's tag, and once the next begin()
  // rewrites size_ its "cursor exhausted" check is no longer conclusive.
  // Bumping the tag here makes any such straggler's compare-exchange fail
  // structurally instead.
  claim_.store((g + 1) << kIndexBits, std::memory_order_release);
  active_ = false;
  fn_ = nullptr;
  std::exception_ptr error = job_error_;
  job_error_ = nullptr;
  job_error_index_ = 0;
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Inline fast path: a 1-thread pool or a 1-item job never pays the
    // publish/wake/complete handshake (exceptions propagate directly).
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  begin(n, fn);
  while (try_run_one()) {
  }
  end();
}

}  // namespace tcfpn::common
