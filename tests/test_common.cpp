// Unit tests for src/common: RNG determinism and distributions, statistics
// accumulators, table rendering, trace rendering, check macros and the
// store-forwarding write buffer.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
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
