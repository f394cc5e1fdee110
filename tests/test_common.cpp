// Unit tests for src/common: RNG determinism and distributions, statistics
// accumulators, table rendering, trace rendering, check macros, thread-pool
// exception propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/effect_channel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "machine/write_buffer.hpp"

namespace tcfpn {
namespace {

TEST(Check, FailingCheckThrowsSimError) {
  EXPECT_THROW(TCFPN_CHECK(false, "boom ", 42), SimError);
}

TEST(Check, FaultCarriesMessage) {
  try {
    TCFPN_FAULT("addr ", 7, " bad");
    FAIL() << "expected throw";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("addr 7 bad"), std::string::npos);
  }
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowZeroBoundThrows) {
  Rng r(7);
  EXPECT_THROW(r.below(0), SimError);
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = r.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  // The child stream should not be a shifted copy of the parent's.
  Rng b(5);
  b.next();  // advance like a did
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += child.next() == b.next();
  EXPECT_LT(equal, 4);
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 1.25);
}

TEST(Accumulator, EmptyThrowsOnStatistics) {
  Accumulator acc;
  EXPECT_THROW(acc.mean(), SimError);
  EXPECT_THROW(acc.min(), SimError);
  EXPECT_THROW(acc.variance(), SimError);
}

TEST(Accumulator, MergeEqualsCombinedStream) {
  Accumulator a, b, all;
  Rng r(3);
  for (int i = 0; i < 100; ++i) {
    const double x = r.uniform() * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Samples, ExactPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 0.2);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Samples, SingleElement) {
  Samples s;
  s.add(42);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 42.0);
}

TEST(Samples, OutOfRangePercentileThrows) {
  Samples s;
  s.add(1);
  EXPECT_THROW(s.percentile(-1), SimError);
  EXPECT_THROW(s.percentile(101), SimError);
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0, 10, 5);
  h.add(-1);   // clamps to bucket 0
  h.add(0.5);
  h.add(9.9);
  h.add(25);   // clamps to last bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(4), 10.0);
  EXPECT_FALSE(h.render().empty());
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add("alpha", 1);
  t.add("b", 22.5);
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.5"), std::string::npos);
  // header + rule + 2 rows
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), SimError);
}

TEST(Table, BoolFormatting) {
  Table t({"x"});
  t.add(true);
  t.add(false);
  const std::string out = t.render();
  EXPECT_NE(out.find("yes"), std::string::npos);
  EXPECT_NE(out.find("no"), std::string::npos);
}

TEST(Trace, DisabledTraceDropsSpans) {
  ScheduleTrace tr;
  tr.add(0, 0, 5, 'A', "x");
  EXPECT_TRUE(tr.spans().empty());
}

TEST(Trace, RendersGantt) {
  ScheduleTrace tr;
  tr.set_enabled(true);
  tr.add(0, 0, 4, 'A', "flow A");
  tr.add(1, 2, 6, 'B', "flow B");
  const std::string out = tr.render();
  EXPECT_NE(out.find("AAAA"), std::string::npos);
  EXPECT_NE(out.find("BBBB"), std::string::npos);
  EXPECT_NE(out.find("A=flow A"), std::string::npos);
}

TEST(Trace, CompressesLongRuns) {
  ScheduleTrace tr;
  tr.set_enabled(true);
  tr.add(0, 0, 100000, 'A', "long");
  const std::string out = tr.render(1, 80);
  // Must fit: the renderer widens cycles-per-column.
  const auto first_line_end = out.find('\n');
  ASSERT_NE(first_line_end, std::string::npos);
  const auto second_line_end = out.find('\n', first_line_end + 1);
  EXPECT_LE(second_line_end - first_line_end, 90u);
}

TEST(Trace, BackwardsSpanThrows) {
  ScheduleTrace tr;
  tr.set_enabled(true);
  EXPECT_THROW(tr.add(0, 5, 3, 'A', "bad"), SimError);
}

// ---- ThreadPool: begin / try_run_one / end ----

/// One whole job: begin, then end() as the completion barrier.
void run_job(common::ThreadPool& pool, std::size_t n,
             const std::function<void(std::size_t)>& fn) {
  pool.begin(n, fn);
  pool.end();
}

// A worker exception must be captured and rethrown by end() on the calling
// thread — before the hardening it unwound a worker thread and
// std::terminate'd the whole process.
TEST(ThreadPool, WorkerExceptionRethrownAtBarrier) {
  common::ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(run_job(pool, 64,
                       [&](std::size_t i) {
                         if (i >= 5) TCFPN_FAULT("index ", i, " exploded");
                         completed.fetch_add(1, std::memory_order_relaxed);
                       }),
               SimError);
  // Every non-throwing index still ran: the job drains fully before end()
  // rethrows.
  EXPECT_EQ(completed.load(), 5);
}

// With several faulting indices the *lowest* one surfaces, independent of
// which worker hit which index first — the deterministic-error contract.
TEST(ThreadPool, LowestFaultingIndexWins) {
  common::ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    try {
      run_job(pool, 128, [&](std::size_t i) {
        if (i % 2 == 1) TCFPN_FAULT("index ", i, " exploded");
      });
      FAIL() << "end() did not throw";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("index 1 exploded"),
                std::string::npos)
          << "surfaced: " << e.what();
    }
  }
}

// The pool stays usable after a throwing job: end() clears the error state,
// later jobs run normally.
TEST(ThreadPool, ReusableAfterException) {
  common::ThreadPool pool(4);
  EXPECT_THROW(run_job(pool, 8, [](std::size_t) { TCFPN_FAULT("boom"); }),
               SimError);
  std::atomic<int> sum{0};
  run_job(pool, 100, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950);
}

// Exceptions on the calling thread's own share take the same path.
TEST(ThreadPool, SingleThreadPoolStillThrows) {
  common::ThreadPool pool(1);
  EXPECT_THROW(run_job(pool, 4,
                       [](std::size_t i) {
                         if (i == 2) TCFPN_FAULT("index ", i, " exploded");
                       }),
               SimError);
}

// The caller may do unrelated work between begin() and end(); every index
// still runs exactly once, and end() is the completion barrier.
TEST(ThreadPool, StreamingJobRunsEveryIndexOnce) {
  common::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  const std::function<void(std::size_t)> fn = [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  };
  pool.begin(hits.size(), fn);
  pool.end();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// try_run_one lets the calling thread steal indices while the job is open;
// with no workers at all it is the only executor and must drain the job.
TEST(ThreadPool, CallerDrainsStreamingJobAlone) {
  common::ThreadPool pool(1);  // no workers
  std::atomic<int> sum{0};
  const std::function<void(std::size_t)> fn = [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  };
  pool.begin(100, fn);
  int stolen = 0;
  while (pool.try_run_one()) ++stolen;
  pool.end();
  EXPECT_EQ(stolen, 100);
  EXPECT_EQ(sum.load(), 4950);
}

// The lowest faulting index wins on every round of a reused pool, and the
// pool still runs a clean job afterwards.
TEST(ThreadPool, StreamingEndRethrowsLowestIndex) {
  common::ThreadPool pool(8);
  const std::function<void(std::size_t)> fn = [](std::size_t i) {
    if (i % 3 == 2) TCFPN_FAULT("index ", i, " exploded");
  };
  for (int round = 0; round < 10; ++round) {
    pool.begin(96, fn);
    try {
      pool.end();
      FAIL() << "end() did not throw";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("index 2 exploded"),
                std::string::npos)
          << "surfaced: " << e.what();
    }
  }
  std::atomic<int> ran{0};
  run_job(pool, 32, [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 32);
}

// A generation straggler — a worker that saw job N's claim word late — must
// not leak work into job N+1. Back-to-back streaming jobs through the same
// pool are the stress: any cross-job claim shows up as a double-run.
TEST(ThreadPool, BackToBackStreamingJobsDoNotCrossTalk) {
  common::ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    const std::function<void(std::size_t)> fn = [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    };
    pool.begin(7, fn);
    pool.end();
    EXPECT_EQ(count.load(), 7) << "round " << round;
  }
}

// ---- EffectChannel: SPSC seal handoff ----

// publish() must make every prior producer write visible to a consumer that
// observed the seal — the happens-before edge the streaming merge rides on.
TEST(EffectChannel, PublishHandsOffPayload) {
  common::EffectChannel ch;
  std::uint64_t payload = 0;
  std::thread producer([&] {
    payload = 0xfeedface;
    ch.publish();
  });
  ch.await();
  EXPECT_TRUE(ch.ready());
  EXPECT_EQ(payload, 0xfeedfaceu);
  producer.join();
}

TEST(EffectChannel, ResetRearmsForTheNextStep) {
  common::EffectChannel ch;
  EXPECT_FALSE(ch.ready());
  ch.publish();
  EXPECT_TRUE(ch.ready());
  ch.reset();
  EXPECT_FALSE(ch.ready());
  ch.publish();  // second step publishes again after re-arm
  EXPECT_TRUE(ch.ready());
  ch.await();    // already sealed: returns immediately
}

// ---- Lost wake-ups: store-then-notify under a deadline ----
//
// EffectChannel::publish() and ThreadPool::begin() store a flag and then
// notify. If that store does not order the notifier's waiter check after
// it, a thread that tested the flag and went to sleep in between is never
// woken, and the handoff hangs. The two ping-pongs below run 500 000 rounds
// each; a round that makes no progress for the stall deadline ends the
// process with a message instead of hanging the suite.

constexpr int kHandoffRounds = 500'000;
constexpr auto kHandoffStall = std::chrono::seconds(30);

/// Ends the process when `round` stops advancing for `stall`.
class Watchdog {
 public:
  Watchdog(const char* what, std::chrono::seconds stall)
      : thread_([this, what, stall] {
          std::unique_lock<std::mutex> lock(mu_);
          int seen = -1;
          while (!cv_.wait_for(lock, stall, [this] { return done_; })) {
            const int now = round.load();
            if (now == seen) {
              std::fprintf(stderr, "%s: round %d made no progress in %lld s "
                           "(lost wake-up)\n", what, now,
                           static_cast<long long>(stall.count()));
              std::_Exit(1);
            }
            seen = now;
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  std::atomic<int> round{0};

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

TEST(LostWakeup, ChannelPingPong) {
  common::EffectChannel ping, pong;
  Watchdog dog("EffectChannel ping-pong", kHandoffStall);
  std::thread partner([&] {
    for (int r = 0; r < kHandoffRounds; ++r) {
      ping.await();
      ping.reset();  // the other side publishes ping again only after pong
      pong.publish();
    }
  });
  for (int r = 0; r < kHandoffRounds; ++r) {
    dog.round.store(r, std::memory_order_relaxed);
    ping.publish();
    pong.await();
    pong.reset();
  }
  partner.join();
}

// The engine's own handshake: begin() must wake the worker, whose publish()
// must wake the stepping thread. The stepping thread never steals the job,
// so a lost wake on either side stalls the round.
TEST(LostWakeup, PoolAndChannelPingPong) {
  common::ThreadPool pool(2);
  common::EffectChannel sealed;
  const std::function<void(std::size_t)> job = [&](std::size_t) {
    sealed.publish();
  };
  Watchdog dog("ThreadPool/EffectChannel ping-pong", kHandoffStall);
  for (int r = 0; r < kHandoffRounds; ++r) {
    dog.round.store(r, std::memory_order_relaxed);
    sealed.reset();
    pool.begin(1, job);
    sealed.await();
    pool.end();
  }
}

// ---- WriteBuffer: the store-forwarding log ----

TEST(WriteBuffer, PutFindLastWins) {
  machine::WriteBuffer wb;
  EXPECT_TRUE(wb.empty());
  EXPECT_EQ(wb.find(7), nullptr);
  wb.put(7, 100);
  wb.put(9, 200);
  wb.put(7, 300);  // a rewrite: the log keeps both, lookups see the last
  EXPECT_EQ(wb.size(), 3u);
  ASSERT_NE(wb.find(7), nullptr);
  EXPECT_EQ(*wb.find(7), 300);
  ASSERT_NE(wb.find(9), nullptr);
  EXPECT_EQ(*wb.find(9), 200);
  EXPECT_EQ(wb.find(8), nullptr);
}

TEST(WriteBuffer, ItemsKeepInsertionOrder) {
  machine::WriteBuffer wb;
  wb.put(30, 1);
  wb.put(10, 2);
  wb.put(20, 3);
  wb.put(10, 4);  // a rewrite keeps the key's first position
  const auto items = wb.items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], (std::pair<Addr, Word>{30, 1}));
  EXPECT_EQ(items[1], (std::pair<Addr, Word>{10, 4}));
  EXPECT_EQ(items[2], (std::pair<Addr, Word>{20, 3}));
}

// clear() is epoch-based: entries the index already holds must be invisible
// afterwards even though their slots were never scrubbed, and the buffer is
// fully reusable.
TEST(WriteBuffer, ClearForgetsWithoutScrubbing) {
  machine::WriteBuffer wb;
  for (Addr a = 0; a < 100; ++a) wb.put(a, static_cast<Word>(a));
  ASSERT_NE(wb.find(50), nullptr);  // builds the index
  wb.clear();
  EXPECT_TRUE(wb.empty());
  for (Addr a = 0; a < 100; ++a) EXPECT_EQ(wb.find(a), nullptr) << a;
  wb.put(42, 777);
  EXPECT_EQ(wb.size(), 1u);
  ASSERT_NE(wb.find(42), nullptr);
  EXPECT_EQ(*wb.find(42), 777);
  EXPECT_EQ(wb.find(50), nullptr);
}

// Growth re-indexes the log: every key stays findable across the resize and
// insertion order survives (the checkpoint layer depends on it).
TEST(WriteBuffer, GrowthPreservesEntriesAndOrder) {
  machine::WriteBuffer wb;
  constexpr Addr kCount = 10000;  // forces several doublings
  for (Addr a = 0; a < kCount; ++a) {
    wb.put(a * 64, static_cast<Word>(a + 1));  // sparse keys, same hash band
    if (a % 1000 == 0) {
      ASSERT_NE(wb.find(a * 64), nullptr);  // index as we go
    }
  }
  EXPECT_EQ(wb.size(), kCount);
  for (Addr a = 0; a < kCount; ++a) {
    ASSERT_NE(wb.find(a * 64), nullptr) << a;
    EXPECT_EQ(*wb.find(a * 64), static_cast<Word>(a + 1));
  }
  const auto items = wb.items();
  for (Addr a = 0; a < kCount; ++a) {
    EXPECT_EQ(items[a].first, a * 64);
  }
}

// The index is built lazily: writes appended after a lookup join it on the
// next one, and a later write to an indexed key replaces its value.
TEST(WriteBuffer, AppendsAfterALookupJoinTheIndex) {
  machine::WriteBuffer wb;
  const Addr a[] = {5, 6, 7};
  const Word v[] = {50, 60, 70};
  wb.put_run(mem::LaneRun{a, 3, 0, false}, v);
  ASSERT_NE(wb.find(6), nullptr);
  EXPECT_EQ(*wb.find(6), 60);
  wb.put(6, 61);
  wb.put(8, 80);
  EXPECT_EQ(*wb.find(6), 61);
  EXPECT_EQ(*wb.find(8), 80);
  EXPECT_EQ(*wb.find(5), 50);
}

// absorb() appends another buffer's writes after this one's and empties it;
// the later buffer's writes win.
TEST(WriteBuffer, AbsorbAppendsAndEmptiesTheSource) {
  machine::WriteBuffer step, instr;
  instr.put(1, 10);
  step.absorb(instr);  // empty target: takes the log over
  EXPECT_TRUE(instr.empty());
  ASSERT_NE(step.find(1), nullptr);
  EXPECT_EQ(*step.find(1), 10);
  instr.put(1, 11);
  instr.put(2, 20);
  step.absorb(instr);  // non-empty target: appends
  EXPECT_TRUE(instr.empty());
  EXPECT_EQ(step.size(), 3u);
  EXPECT_EQ(*step.find(1), 11);
  EXPECT_EQ(*step.find(2), 20);
  instr.put(3, 30);  // the source stays usable
  EXPECT_EQ(instr.size(), 1u);
  EXPECT_EQ(instr.items(), (std::vector<std::pair<Addr, Word>>{{3, 30}}));
}

// Unit-run records and per-lane pairs interleave in one log. find returns
// the last write to each key, absorb (into an empty and a non-empty
// target) and clear work across index epochs, and items() equals the
// pair-only log of the same writes, so checkpoint bytes do not depend on
// how the writes were logged.
TEST(WriteBuffer, UnitRunRecordsAndPairsLogAlike) {
  const Addr run_a[] = {10, 11, 12, 13};
  const Addr scatter[] = {12, 3, 11};
  const Addr run_b[] = {11, 12, 13, 14};
  machine::WriteBuffer step, instr;  // unit runs logged as one record each
  machine::WriteBuffer step_pairs, instr_pairs;  // every write one pair
  auto put = [&](const Addr* a, std::size_t n, Word v0, bool unit) {
    std::vector<Word> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = v0 + static_cast<Word>(i);
    instr.put_run(mem::LaneRun{a, n, 0, unit}, v.data());
    for (std::size_t i = 0; i < n; ++i) instr_pairs.put(a[i], v[i]);
  };
  for (Word epoch = 0; epoch < 3; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    const Word base = 100 * epoch;
    // One instruction: a unit run, then a scatter over two of its cells.
    put(run_a, 4, base + 1, true);
    ASSERT_NE(instr.find(12), nullptr);  // indexes now; later appends join
    EXPECT_EQ(*instr.find(12), base + 3);
    put(scatter, 3, base + 10, false);
    EXPECT_EQ(*instr.find(12), base + 10);
    EXPECT_EQ(*instr.find(11), base + 12);
    step.absorb(instr);  // empty target: takes the log over
    step_pairs.absorb(instr_pairs);
    EXPECT_TRUE(instr.empty());
    // A second instruction: a unit run over the scatter's cells, appended.
    put(run_b, 4, base + 20, true);
    step.absorb(instr);
    step_pairs.absorb(instr_pairs);
    const std::pair<Addr, Word> want[] = {{10, base + 1},  {11, base + 20},
                                          {12, base + 21}, {13, base + 22},
                                          {14, base + 23}, {3, base + 11}};
    for (const auto& [a, v] : want) {
      ASSERT_NE(step.find(a), nullptr) << a;
      EXPECT_EQ(*step.find(a), v) << a;
    }
    EXPECT_EQ(step.find(15), nullptr);
    EXPECT_EQ(step.size(), 11u);
    EXPECT_EQ(step.size(), step_pairs.size());
    EXPECT_EQ(step.items(), step_pairs.items());
    step.clear();
    step_pairs.clear();
    EXPECT_EQ(step.find(10), nullptr);
  }
}

}  // namespace
}  // namespace tcfpn
