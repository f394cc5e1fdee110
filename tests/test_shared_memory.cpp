// Unit tests for the step-synchronous shared memory: visibility, CRCW
// policies, multioperations and multiprefix, traffic accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
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

// ---- memory ports: lane runs, presorted runs, images ----

std::vector<Word> image_of(const SharedMemory& m) {
  std::vector<Word> out;
  for (Addr a = 0; a < m.size(); ++a) out.push_back(m.peek(a));
  return out;
}

// read_run/write_run through a port account, read and commit exactly what
// the direct SharedMemory read()/write() calls do lane by lane.
TEST(MemoryPort, LaneRunsMatchDirectAccess) {
  SharedMemory direct(64, 4, CrcwPolicy::kErew);
  SharedMemory ported(64, 4, CrcwPolicy::kErew);
  for (Addr a = 0; a < 64; ++a) {
    direct.poke(a, static_cast<Word>(100 + a));
    ported.poke(a, static_cast<Word>(100 + a));
  }
  const Addr rd[] = {3, 9, 10, 17};
  const Addr wr[] = {40, 41, 47, 50};
  const Word val[] = {-1, -2, -3, -4};
  Word want[4], got[4];
  std::uint64_t rd_mod[4] = {}, wr_mod[4] = {};
  for (std::size_t i = 0; i < 4; ++i) {
    want[i] = direct.read(rd[i], 8 + i);
    direct.write(wr[i], val[i], 8 + i);
    ++rd_mod[ported.module_of(rd[i])];
    ++wr_mod[ported.module_of(wr[i])];
  }
  MemoryPort port(&ported);
  port.read_run(rd, 4, 8, rd_mod, got);
  port.write_run(wr, val, 4, 8, wr_mod);
  EXPECT_TRUE(std::equal(want, want + 4, got));
  port.seal();
  ported.drain(port);
  direct.commit_step();
  ported.commit_step();
  EXPECT_EQ(image_of(direct), image_of(ported));
  EXPECT_EQ(direct.total_reads(), ported.total_reads());
  EXPECT_EQ(direct.total_writes(), ported.total_writes());
  for (std::uint32_t m = 0; m < 4; ++m) {
    EXPECT_EQ(direct.last_step_traffic()[m].reads,
              ported.last_step_traffic()[m].reads);
    EXPECT_EQ(direct.last_step_traffic()[m].writes,
              ported.last_step_traffic()[m].writes);
  }
}

// Port runs drained in group order commit exactly as the same writes
// staged directly in issue order — whether the runs arrive presorted and
// ascending (one run, nothing merged), interleaved (merged), or unsorted
// with same-key rewrites (sorted and collapsed by seal).
TEST(MemoryPort, RunsCommitLikeDirectWrites) {
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
    SharedMemory ported(16, 4, CrcwPolicy::kPriority);
    MemoryPort port(&ported);
    for (const auto& g : groups) {
      for (const W& w : g) {
        direct.write(w.addr, w.value, w.lane);
        std::uint64_t per_module[4] = {};
        ++per_module[ported.module_of(w.addr)];
        port.write_run(&w.addr, &w.value, 1, w.lane, per_module);
      }
      port.seal();
      ported.drain(port);
      port.clear();
    }
    direct.commit_step();
    ported.commit_step();
    EXPECT_EQ(image_of(direct), image_of(ported));
  }
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
