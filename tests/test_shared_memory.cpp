// Unit tests for the step-synchronous shared memory: visibility, CRCW
// policies, multioperations and multiprefix, traffic accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "mem/shared_memory.hpp"

namespace tcfpn::mem {
namespace {

TEST(SharedMemory, WritesInvisibleUntilCommit) {
  SharedMemory m(64, 4);
  m.write(10, 42, 0);
  EXPECT_EQ(m.read(10, 1), 0);  // pre-step state
  m.commit_step();
  EXPECT_EQ(m.read(10, 1), 42);
}

TEST(SharedMemory, PeekPokeBypassStaging) {
  SharedMemory m(64, 4);
  m.poke(3, 7);
  EXPECT_EQ(m.peek(3), 7);
}

TEST(SharedMemory, OutOfRangeAccessFaults) {
  SharedMemory m(16, 2);
  EXPECT_THROW(m.read(16, 0), SimError);
  EXPECT_THROW(m.write(100, 1, 0), SimError);
  EXPECT_THROW(m.peek(16), SimError);
}

TEST(SharedMemory, ModuleInterleaving) {
  SharedMemory m(64, 4);
  EXPECT_EQ(m.module_of(0), 0u);
  EXPECT_EQ(m.module_of(1), 1u);
  EXPECT_EQ(m.module_of(5), 1u);
  EXPECT_EQ(m.module_of(7), 3u);
}

TEST(SharedMemory, CustomAddressHash) {
  SharedMemory m(64, 4);
  m.set_address_hash([](Addr a) { return static_cast<std::uint32_t>((a / 2) % 4); });
  EXPECT_EQ(m.module_of(0), 0u);
  EXPECT_EQ(m.module_of(2), 1u);
  EXPECT_EQ(m.module_of(3), 1u);
}

TEST(SharedMemory, BadHashRangeFaults) {
  SharedMemory m(64, 4);
  m.set_address_hash([](Addr) { return 99u; });
  EXPECT_THROW(m.module_of(0), SimError);
}

// ---- CRCW policies ----

TEST(CrcwPolicy, ErewRejectsConcurrentWrites) {
  SharedMemory m(64, 4, CrcwPolicy::kErew);
  m.write(5, 1, 0);
  m.write(5, 2, 1);
  EXPECT_THROW(m.commit_step(), SimError);
}

TEST(CrcwPolicy, ErewRejectsConcurrentReads) {
  SharedMemory m(64, 4, CrcwPolicy::kErew);
  m.read(5, 0);
  m.read(5, 1);
  m.write(6, 1, 2);  // commit path runs when there are writes
  EXPECT_THROW(m.commit_step(), SimError);
}

TEST(CrcwPolicy, ErewRejectsReadWriteSameCell) {
  SharedMemory m(64, 4, CrcwPolicy::kErew);
  m.read(5, 0);
  m.write(5, 1, 1);
  EXPECT_THROW(m.commit_step(), SimError);
}

TEST(CrcwPolicy, ErewAllowsDisjointTraffic) {
  SharedMemory m(64, 4, CrcwPolicy::kErew);
  m.read(1, 0);
  m.read(2, 1);
  m.write(3, 9, 2);
  EXPECT_NO_THROW(m.commit_step());
  EXPECT_EQ(m.peek(3), 9);
}

TEST(CrcwPolicy, CrewAllowsConcurrentReads) {
  SharedMemory m(64, 4, CrcwPolicy::kCrew);
  m.read(5, 0);
  m.read(5, 1);
  m.write(6, 1, 2);
  EXPECT_NO_THROW(m.commit_step());
}

TEST(CrcwPolicy, CrewRejectsConcurrentWrites) {
  SharedMemory m(64, 4, CrcwPolicy::kCrew);
  m.write(5, 1, 0);
  m.write(5, 2, 1);
  EXPECT_THROW(m.commit_step(), SimError);
}

TEST(CrcwPolicy, CommonAcceptsEqualWrites) {
  SharedMemory m(64, 4, CrcwPolicy::kCommon);
  m.write(5, 7, 0);
  m.write(5, 7, 1);
  EXPECT_NO_THROW(m.commit_step());
  EXPECT_EQ(m.peek(5), 7);
}

TEST(CrcwPolicy, CommonRejectsUnequalWrites) {
  SharedMemory m(64, 4, CrcwPolicy::kCommon);
  m.write(5, 7, 0);
  m.write(5, 8, 1);
  EXPECT_THROW(m.commit_step(), SimError);
}

TEST(CrcwPolicy, PriorityLowestLaneWins) {
  SharedMemory m(64, 4, CrcwPolicy::kPriority);
  m.write(5, 20, 2);
  m.write(5, 10, 1);
  m.write(5, 30, 3);
  m.commit_step();
  EXPECT_EQ(m.peek(5), 10);
}

TEST(CrcwPolicy, ErewRejectsConcurrentReadsInWriteFreeStep) {
  // Regression: the read check must run even when the step stages no
  // writes (commit_writes used to return early on an empty pending list).
  SharedMemory m(64, 4, CrcwPolicy::kErew);
  m.read(5, 0);
  m.read(5, 1);
  EXPECT_THROW(m.commit_step(), SimError);
}

TEST(CrcwPolicy, ErewSameKeyReReadAndReadModifyWriteAreLegal) {
  // Exclusivity is per (flow, lane) key: one lane may touch its cell as
  // often as it likes within a step, reads and writes together.
  SharedMemory m(64, 4, CrcwPolicy::kErew);
  m.poke(5, 3);
  m.read(5, 7);
  m.read(5, 7);
  m.write(5, 4, 7);
  EXPECT_NO_THROW(m.commit_step());
  EXPECT_EQ(m.peek(5), 4);
}

TEST(CrcwPolicy, SameKeyRewriteLastWinsUnderEveryPolicy) {
  // Two staged writes from the SAME key are program-ordered — the later
  // value wins and the pair is invisible to every concurrent-write check.
  for (auto policy : {CrcwPolicy::kErew, CrcwPolicy::kCrew,
                      CrcwPolicy::kCommon, CrcwPolicy::kArbitrary,
                      CrcwPolicy::kPriority}) {
    SharedMemory m(64, 4, policy);
    m.write(5, 1, 3);
    m.write(5, 2, 3);
    EXPECT_NO_THROW(m.commit_step()) << to_string(policy);
    EXPECT_EQ(m.peek(5), 2) << to_string(policy);
  }
}

TEST(CrcwPolicy, CommonJudgesFinalValuesAfterSameKeyRewrite) {
  // Key 0 writes 7 then rewrites to 9; key 1 writes 9. Common compares the
  // surviving values (9 vs 9) — no fault.
  SharedMemory m(64, 4, CrcwPolicy::kCommon);
  m.write(5, 7, 0);
  m.write(5, 9, 0);
  m.write(5, 9, 1);
  EXPECT_NO_THROW(m.commit_step());
  EXPECT_EQ(m.peek(5), 9);
}

TEST(CrcwPolicy, PriorityLowestFlowLaneKeyWins) {
  // Machine keys are (flow << 40) | lane, so any lane of a lower flow
  // outranks every lane of a higher flow.
  const auto key = [](std::uint64_t flow, std::uint64_t lane) {
    return (flow << 40) | lane;
  };
  SharedMemory m(64, 4, CrcwPolicy::kPriority);
  m.write(5, 111, key(1, 0));
  m.write(5, 222, key(0, 3));
  m.write(5, 333, key(2, 63));
  m.commit_step();
  EXPECT_EQ(m.peek(5), 222);
}

TEST(CrcwPolicy, ArbitraryIsDeterministic) {
  SharedMemory a(64, 4, CrcwPolicy::kArbitrary);
  SharedMemory b(64, 4, CrcwPolicy::kArbitrary);
  for (auto* m : {&a, &b}) {
    m->write(5, 20, 2);
    m->write(5, 10, 1);
    m->commit_step();
  }
  EXPECT_EQ(a.peek(5), b.peek(5));
}

// ---- multioperations ----

TEST(MultiOps, AddCombinesAllContributions) {
  SharedMemory m(64, 4);
  m.poke(8, 100);
  m.multiop(8, MultiOp::kAdd, 1, 0);
  m.multiop(8, MultiOp::kAdd, 2, 1);
  m.multiop(8, MultiOp::kAdd, 3, 2);
  m.commit_step();
  EXPECT_EQ(m.peek(8), 106);
}

TEST(MultiOps, MaxMinAndOr) {
  SharedMemory m(64, 4);
  m.poke(1, 5);
  m.multiop(1, MultiOp::kMax, 9, 0);
  m.multiop(1, MultiOp::kMax, 3, 1);
  m.commit_step();
  EXPECT_EQ(m.peek(1), 9);

  m.poke(2, 5);
  m.multiop(2, MultiOp::kMin, 9, 0);
  m.multiop(2, MultiOp::kMin, 3, 1);
  m.commit_step();
  EXPECT_EQ(m.peek(2), 3);

  m.poke(3, 0b1111);
  m.multiop(3, MultiOp::kAnd, 0b1100, 0);
  m.multiop(3, MultiOp::kAnd, 0b1010, 1);
  m.commit_step();
  EXPECT_EQ(m.peek(3), 0b1000);

  m.poke(4, 0b0001);
  m.multiop(4, MultiOp::kOr, 0b0100, 0);
  m.multiop(4, MultiOp::kOr, 0b0010, 1);
  m.commit_step();
  EXPECT_EQ(m.peek(4), 0b0111);
}

TEST(MultiOps, MixedOpsOnSameCellFault) {
  SharedMemory m(64, 4);
  m.multiop(8, MultiOp::kAdd, 1, 0);
  m.multiop(8, MultiOp::kMax, 2, 1);
  EXPECT_THROW(m.commit_step(), SimError);
}

TEST(MultiPrefix, OrderedByLane) {
  SharedMemory m(64, 4);
  m.poke(8, 100);
  // Issue out of lane order; results must follow lane order.
  const auto t2 = m.multiprefix(8, MultiOp::kAdd, 30, 2);
  const auto t0 = m.multiprefix(8, MultiOp::kAdd, 10, 0);
  const auto t1 = m.multiprefix(8, MultiOp::kAdd, 20, 1);
  m.commit_step();
  EXPECT_EQ(m.prefix_result(t0), 100);
  EXPECT_EQ(m.prefix_result(t1), 110);
  EXPECT_EQ(m.prefix_result(t2), 130);
  EXPECT_EQ(m.peek(8), 160);
}

TEST(MultiPrefix, SeparateCellsIndependent) {
  SharedMemory m(64, 4);
  const auto ta = m.multiprefix(1, MultiOp::kAdd, 5, 0);
  const auto tb = m.multiprefix(2, MultiOp::kAdd, 7, 0);
  m.commit_step();
  EXPECT_EQ(m.prefix_result(ta), 0);
  EXPECT_EQ(m.prefix_result(tb), 0);
  EXPECT_EQ(m.peek(1), 5);
  EXPECT_EQ(m.peek(2), 7);
}

TEST(MultiPrefix, UnknownTicketThrows) {
  SharedMemory m(64, 4);
  EXPECT_THROW(m.prefix_result(0), SimError);
}

// ---- traffic ----

TEST(Traffic, PerModuleCountsReflectInterleaving) {
  SharedMemory m(64, 4);
  m.read(0, 0);   // module 0
  m.read(4, 1);   // module 0
  m.write(1, 1, 2);  // module 1
  m.commit_step();
  const auto& t = m.last_step_traffic();
  EXPECT_EQ(t[0].reads, 2u);
  EXPECT_EQ(t[1].writes, 1u);
  EXPECT_EQ(m.last_step_max_module_load(), 2u);
}

TEST(Traffic, ResetsEachStep) {
  SharedMemory m(64, 4);
  m.read(0, 0);
  m.commit_step();
  m.commit_step();
  EXPECT_EQ(m.last_step_max_module_load(), 0u);
  EXPECT_EQ(m.total_reads(), 1u);
}

TEST(Traffic, StepCounterAdvances) {
  SharedMemory m(64, 4);
  EXPECT_EQ(m.step(), 0u);
  m.commit_step();
  m.commit_step();
  EXPECT_EQ(m.step(), 2u);
}

// ---- lane runs, presorted runs, images ----

std::vector<Word> image_of(const SharedMemory& m) {
  std::vector<Word> out;
  for (Addr a = 0; a < m.size(); ++a) out.push_back(m.peek(a));
  return out;
}

// read_run/write_run account, read and commit exactly what read()/write()
// do lane by lane.
TEST(SharedMemory, LaneRunsMatchPerLaneCalls) {
  SharedMemory direct(64, 4, CrcwPolicy::kErew);
  SharedMemory runs(64, 4, CrcwPolicy::kErew);
  for (Addr a = 0; a < 64; ++a) {
    direct.poke(a, static_cast<Word>(100 + a));
    runs.poke(a, static_cast<Word>(100 + a));
  }
  const Addr rd[] = {3, 9, 10, 17};
  const Addr wr[] = {40, 41, 47, 50};
  const Word val[] = {-1, -2, -3, -4};
  Word want[4], got[4];
  std::uint64_t rd_mod[4] = {}, wr_mod[4] = {};
  for (std::size_t i = 0; i < 4; ++i) {
    want[i] = direct.read(rd[i], 8 + i);
    direct.write(wr[i], val[i], 8 + i);
    ++rd_mod[runs.module_of(rd[i])];
    ++wr_mod[runs.module_of(wr[i])];
  }
  runs.read_run(LaneRun{rd, 4, 8, false}, rd_mod, got);
  runs.write_run(LaneRun{wr, 4, 8, false}, val, wr_mod);
  EXPECT_TRUE(std::equal(want, want + 4, got));
  direct.commit_step();
  runs.commit_step();
  EXPECT_EQ(image_of(direct), image_of(runs));
  EXPECT_EQ(direct.total_reads(), runs.total_reads());
  EXPECT_EQ(direct.total_writes(), runs.total_writes());
  for (std::uint32_t m = 0; m < 4; ++m) {
    EXPECT_EQ(direct.last_step_traffic()[m].reads,
              runs.last_step_traffic()[m].reads);
    EXPECT_EQ(direct.last_step_traffic()[m].writes,
              runs.last_step_traffic()[m].writes);
  }
}

// One-lane runs staged group after group commit exactly as the same writes
// staged by write() — whether they arrive ascending (nothing sorted),
// interleaved (sorted at commit), or unsorted with same-key rewrites
// (sorted and collapsed at commit).
TEST(SharedMemory, OneLaneRunsCommitLikeWrites) {
  struct W {
    Addr addr;
    Word value;
    LaneId lane;
  };
  const std::vector<std::vector<W>> cases[] = {
      {{{1, 10, 0}, {2, 20, 1}}, {{5, 50, 8}, {6, 60, 9}}},
      {{{1, 10, 0}, {5, 11, 1}}, {{1, 12, 8}, {3, 13, 9}}, {{0, 14, 16}}},
      {{{7, 1, 3}, {2, 2, 1}, {7, 3, 3}}, {{2, 4, 0}, {7, 5, 9}}},
  };
  for (const auto& groups : cases) {
    SharedMemory direct(16, 4, CrcwPolicy::kPriority);
    SharedMemory runs(16, 4, CrcwPolicy::kPriority);
    for (const auto& g : groups) {
      for (const W& w : g) {
        direct.write(w.addr, w.value, w.lane);
        std::uint64_t per_module[4] = {};
        ++per_module[runs.module_of(w.addr)];
        runs.write_run(LaneRun{&w.addr, 1, w.lane, false}, &w.value,
                       per_module);
      }
    }
    direct.commit_step();
    runs.commit_step();
    EXPECT_EQ(image_of(direct), image_of(runs));
  }
}

// ---- unit runs against per-lane records ----

/// One thick access as a group stages it: lane lane0 + i touches addr[i],
/// writing value[i] when `write`.
struct Access {
  bool write;
  std::vector<Addr> addr;
  LaneId lane0;
  std::vector<Word> value;
};

std::vector<Addr> span_at(Addr a0, std::size_t n) {
  std::vector<Addr> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = a0 + i;
  return out;
}

Access st(std::vector<Addr> addr, LaneId lane0, std::vector<Word> value) {
  return Access{true, std::move(addr), lane0, std::move(value)};
}

/// Everything one commit leaves behind that the carrying form must not
/// change.
struct CommitOutcome {
  std::vector<Word> image;
  std::uint64_t total_reads = 0;
  std::uint64_t total_writes = 0;
  std::vector<std::uint64_t> module_reads, module_writes;
  std::uint64_t write_cells = 0;
  std::uint64_t concurrent_cells = 0;
  std::string error;
};

/// How the accesses reach the memory: whole accesses as lane runs (a unit
/// run when the addresses are consecutive), one-lane runs, or per-lane
/// read()/write() calls.
enum class Form { kRuns, kRecords, kDirect };

/// Stages `groups` in order, as the machine's groups stage a step, commits,
/// and reports the outcome.
CommitOutcome commit_in_form(const std::vector<std::vector<Access>>& groups,
                             CrcwPolicy policy, Form form) {
  SharedMemory m(16, 4, policy);
  metrics::MetricsRegistry reg;
  m.bind_metrics(&reg);
  for (Addr a = 0; a < m.size(); ++a) m.poke(a, static_cast<Word>(100 + a));
  CommitOutcome out;
  try {
    for (const auto& accesses : groups) {
      for (const Access& x : accesses) {
        const std::size_t n = x.addr.size();
        auto stage = [&](const LaneRun& run, const Word* value) {
          std::vector<std::uint64_t> per_module(m.modules(), 0);
          m.count_modules(run, per_module.data());
          if (x.write) {
            m.write_run(run, value, per_module.data());
          } else {
            m.read_run(run, per_module.data(), nullptr);
          }
        };
        if (form == Form::kRuns) {
          bool unit = true;
          for (std::size_t i = 0; i < n; ++i) {
            unit &= x.addr[i] == x.addr[0] + i;
          }
          stage(LaneRun{x.addr.data(), n, x.lane0, unit}, x.value.data());
          continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (form == Form::kRecords) {
            stage(LaneRun{&x.addr[i], 1, x.lane0 + i, false},
                  x.write ? &x.value[i] : nullptr);
          } else if (x.write) {
            m.write(x.addr[i], x.value[i], x.lane0 + i);
          } else {
            m.read(x.addr[i], x.lane0 + i);
          }
        }
      }
    }
    m.commit_step();
  } catch (const SimError& e) {
    out.error = e.what();
  }
  out.image = image_of(m);
  out.total_reads = m.total_reads();
  out.total_writes = m.total_writes();
  for (const ModuleTraffic& t : m.last_step_traffic()) {
    out.module_reads.push_back(t.reads);
    out.module_writes.push_back(t.writes);
  }
  out.write_cells = reg.counter("mem/committed_write_cells").value();
  out.concurrent_cells = reg.counter("mem/concurrent_write_cells").value();
  return out;
}

// The same staged traffic carried as unit runs, as one-lane records and as
// per-lane calls commits alike under every CRCW policy: store image,
// totals, per-module traffic, committed and concurrent write cells, and
// the SimError of a violated policy.
TEST(SharedMemory, UnitRunsCommitLikeRecords) {
  constexpr CrcwPolicy kErew = CrcwPolicy::kErew;
  constexpr CrcwPolicy kCrew = CrcwPolicy::kCrew;
  constexpr CrcwPolicy kCommon = CrcwPolicy::kCommon;
  struct Case {
    const char* what;
    std::vector<std::vector<Access>> groups;
    std::uint64_t concurrent;  ///< concurrent write cells (Arbitrary-CRCW)
    std::vector<CrcwPolicy> faulting;  ///< the policies the commit violates
  };
  const Case cases[] = {
      {"disjoint ascending runs in one group",
       {{st(span_at(0, 3), 0, {1, 2, 3}), st(span_at(5, 2), 8, {4, 5}),
         st(span_at(9, 4), 16, {6, 7, 8, 9})}},
       0, {}},
      {"ascending runs across groups",
       {{st(span_at(0, 4), 0, {1, 2, 3, 4})},
        {st(span_at(4, 4), 8, {5, 6, 7, 8})},
        {st(span_at(10, 2), 16, {9, 10})}},
       0, {}},
      {"a run rewrites an earlier run's cells with the same lanes",
       {{st(span_at(2, 4), 0, {1, 2, 3, 4}),
         st(span_at(2, 4), 0, {5, 6, 7, 8})}},
       0, {}},
      {"a run overlaps other lanes' cells",
       {{st(span_at(2, 4), 0, {1, 2, 3, 4}), st(span_at(4, 3), 8, {5, 6, 7})}},
       2, {kErew, kCrew, kCommon}},
      {"runs from two groups overlap with equal values",
       {{st(span_at(0, 4), 0, {1, 2, 3, 4})},
        {st(span_at(2, 3), 8, {3, 4, 9})}},
       2, {kErew, kCrew}},
      {"runs from two groups in descending order",
       {{st(span_at(8, 3), 0, {1, 2, 3})}, {st(span_at(0, 3), 8, {4, 5, 6})}},
       0, {}},
      {"a unit run after scattered records in one group",
       {{st({7, 1, 12}, 0, {1, 2, 3}), st(span_at(3, 3), 8, {4, 5, 6})}},
       0, {}},
      {"scattered records after a unit run in one group",
       {{st(span_at(3, 3), 0, {1, 2, 3}), st({12, 0, 4}, 8, {4, 5, 6})}},
       1, {kErew, kCrew, kCommon}},
      {"one-lane runs",
       {{st(span_at(3, 1), 0, {7})}, {st(span_at(4, 1), 8, {9})}}, 0, {}},
      {"a run writes cells another lane read",
       {{Access{false, span_at(0, 4), 0, {}}},
        {st(span_at(2, 2), 8, {1, 2})}},
       0, {kErew}},
  };
  const CrcwPolicy policies[] = {kErew, kCrew, kCommon,
                                 CrcwPolicy::kArbitrary,
                                 CrcwPolicy::kPriority};
  for (const Case& c : cases) {
    for (const CrcwPolicy policy : policies) {
      SCOPED_TRACE(std::string(c.what) + " under " + to_string(policy));
      const CommitOutcome runs = commit_in_form(c.groups, policy, Form::kRuns);
      for (const Form form : {Form::kRecords, Form::kDirect}) {
        const CommitOutcome other = commit_in_form(c.groups, policy, form);
        EXPECT_EQ(runs.error, other.error);
        EXPECT_EQ(runs.image, other.image);
        EXPECT_EQ(runs.total_reads, other.total_reads);
        EXPECT_EQ(runs.total_writes, other.total_writes);
        EXPECT_EQ(runs.module_reads, other.module_reads);
        EXPECT_EQ(runs.module_writes, other.module_writes);
        EXPECT_EQ(runs.write_cells, other.write_cells);
        EXPECT_EQ(runs.concurrent_cells, other.concurrent_cells);
      }
      const bool faults = std::find(c.faulting.begin(), c.faulting.end(),
                                    policy) != c.faulting.end();
      EXPECT_EQ(runs.error.empty(), !faults) << runs.error;
      if (policy == CrcwPolicy::kArbitrary) {
        EXPECT_EQ(runs.concurrent_cells, c.concurrent);
      }
    }
  }
}

// A write after pending unit runs joins them as records, so the commit
// still sees the overlap as concurrent writers.
TEST(SharedMemory, WriteAfterPendingRunsSeesTheOverlap) {
  SharedMemory m(16, 4, CrcwPolicy::kPriority);
  metrics::MetricsRegistry reg;
  m.bind_metrics(&reg);
  const Addr addr[] = {4, 5, 6};
  const Word value[] = {1, 2, 3};
  const LaneRun run{addr, 3, 8, true};
  std::vector<std::uint64_t> per_module(m.modules(), 0);
  m.count_modules(run, per_module.data());
  m.write_run(run, value, per_module.data());
  m.write(5, 99, 20);  // lane 9 of the run wins under Priority-CRCW
  m.commit_step();
  EXPECT_EQ((std::vector<Word>{m.peek(4), m.peek(5), m.peek(6)}),
            (std::vector<Word>{1, 2, 3}));
  EXPECT_EQ(reg.counter("mem/committed_write_cells").value(), 3u);
  EXPECT_EQ(reg.counter("mem/concurrent_write_cells").value(), 1u);
}

TEST(MultiOpsHelper, ApplyMultiop) {
  EXPECT_EQ(apply_multiop(MultiOp::kAdd, 2, 3), 5);
  EXPECT_EQ(apply_multiop(MultiOp::kMax, 2, 3), 3);
  EXPECT_EQ(apply_multiop(MultiOp::kMin, 2, 3), 2);
  EXPECT_EQ(apply_multiop(MultiOp::kAnd, 6, 3), 2);
  EXPECT_EQ(apply_multiop(MultiOp::kOr, 6, 3), 7);
}

TEST(MultiOpsHelper, ApplyMultiopIdentities) {
  // The identity element of each combiner — the value a fresh accumulator
  // cell must hold so the first contribution passes through unchanged.
  const Word samples[] = {0, 1, -1, 42, -42, Word{1} << 40};
  const std::pair<MultiOp, Word> identities[] = {
      {MultiOp::kAdd, 0},
      {MultiOp::kMax, std::numeric_limits<Word>::min()},
      {MultiOp::kMin, std::numeric_limits<Word>::max()},
      {MultiOp::kAnd, Word{-1}},
      {MultiOp::kOr, 0},
  };
  for (const auto& [op, id] : identities) {
    for (Word v : samples) {
      EXPECT_EQ(apply_multiop(op, id, v), v) << to_string(op) << " " << v;
      EXPECT_EQ(apply_multiop(op, v, id), v) << to_string(op) << " " << v;
    }
  }
}

TEST(MultiOpsHelper, ApplyMultiopCommutativeAndAssociative) {
  // Commutativity + associativity make every multioperation independent of
  // arrival order — the property the commit-time key sort relies on.
  const Word vals[] = {0, 1, -3, 17, 100, -100};
  for (auto op : {MultiOp::kAdd, MultiOp::kMax, MultiOp::kMin, MultiOp::kAnd,
                  MultiOp::kOr}) {
    for (Word a : vals) {
      for (Word b : vals) {
        EXPECT_EQ(apply_multiop(op, a, b), apply_multiop(op, b, a))
            << to_string(op);
        for (Word c : vals) {
          EXPECT_EQ(apply_multiop(op, apply_multiop(op, a, b), c),
                    apply_multiop(op, a, apply_multiop(op, b, c)))
              << to_string(op);
        }
      }
    }
  }
}

TEST(Strings, PolicyAndOpNames) {
  EXPECT_STREQ(to_string(CrcwPolicy::kErew), "EREW");
  EXPECT_STREQ(to_string(MultiOp::kAdd), "MPADD");
}

}  // namespace
}  // namespace tcfpn::mem
