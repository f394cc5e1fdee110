// Core machine-simulator tests: instruction semantics, thickness control,
// lockstep memory visibility, spawning/joining, NUMA blocks, counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "conformance/oracle.hpp"
#include "debug/recorder.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::machine {
namespace {

MachineConfig small_cfg() {
  MachineConfig cfg;
  cfg.groups = 4;
  cfg.slots_per_group = 8;
  cfg.shared_words = 1 << 14;
  cfg.local_words = 1 << 10;
  cfg.topology = net::TopologyKind::kMesh2D;
  return cfg;
}

TEST(MachineBasic, VecAddTcfComputesCorrectly) {
  auto cfg = small_cfg();
  Machine m(cfg);
  const Word n = 10;
  const Addr a = 100, b = 200, c = 300;
  m.load(tcf::kernels::vecadd_tcf(n, a, b, c));
  for (Word i = 0; i < n; ++i) {
    m.shared().poke(a + i, i);
    m.shared().poke(b + i, 100 + i);
  }
  m.boot(1);
  const auto run = m.run();
  EXPECT_TRUE(run.completed);
  for (Word i = 0; i < n; ++i) {
    EXPECT_EQ(m.shared().peek(c + i), 100 + 2 * i) << "element " << i;
  }
  // SETTHICK + LD + LD + ADD + ST + HALT: one fetch per TCF instruction
  // regardless of thickness — the headline economy of the model.
  EXPECT_EQ(m.stats().instruction_fetches, 6u);
  EXPECT_EQ(m.stats().tcf_instructions, 6u);
  EXPECT_EQ(m.stats().operations, 2u + 4u * n);
  EXPECT_EQ(m.stats().steps, 6u);
}

TEST(MachineBasic, DeterministicCycleCounts) {
  auto run_once = [] {
    auto cfg = small_cfg();
    Machine m(cfg);
    m.load(tcf::kernels::vecadd_tcf(64, 100, 200, 300));
    m.boot(1);
    m.run();
    return m.stats().cycles;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(MachineBasic, ThicknessQueryAndTid) {
  auto cfg = small_cfg();
  Machine m(cfg);
  const auto p = isa::assemble(R"(
      SETTHICK 5
      TID r1
      THICK r2
      ST r1, [r0+50+@]
      ST r2, [r0+60+@]
      HALT
  )");
  m.load(p);
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  for (Word i = 0; i < 5; ++i) {
    EXPECT_EQ(m.shared().peek(50 + i), i);
    EXPECT_EQ(m.shared().peek(60 + i), 5);
  }
}

TEST(MachineBasic, SetThickZeroHaltsFlow) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("SETTHICK 0\nST r1, [r0+5]\nHALT"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(5), 0);  // store never executed
}

TEST(MachineBasic, GrowingThicknessBroadcastsLaneZeroRegs) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      LDI r1, 77
      SETTHICK 4
      ST r1, [r0+10+@]
      HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  for (Word i = 0; i < 4; ++i) EXPECT_EQ(m.shared().peek(10 + i), 77);
}

TEST(MachineBasic, LockstepVisibilityAcrossSteps) {
  // Writes of step s are visible at step s+1, not within s.
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      LDI r1, 1
      ST r1, [r0+20]
      LD r2, [r0+20]   ; same flow: forwarding gives 1
      ST r2, [r0+21]
      HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(20), 1);
  EXPECT_EQ(m.shared().peek(21), 1);
}

TEST(MachineBasic, DependentScanIsCorrect) {
  // The Section 4 dependent loop: log-time inclusive scan with no explicit
  // synchronisation — lockstep PRAM semantics carry the dependence.
  auto cfg = small_cfg();
  Machine m(cfg);
  const Word n = 16;
  const Addr data = 64;  // guard zeros live at 48..63
  m.load(tcf::kernels::scan_doubling_tcf(n, data));
  for (Word i = 0; i < n; ++i) m.shared().poke(data + i, i + 1);
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  Word expect = 0;
  for (Word i = 0; i < n; ++i) {
    expect += i + 1;
    EXPECT_EQ(m.shared().peek(data + i), expect) << "element " << i;
  }
}

TEST(MachineBasic, DivergentBranchFaults) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      SETTHICK 4
      TID r1
      BNEZ r1, 0     ; lane 0 disagrees with lanes 1..3
      HALT
  )"));
  m.boot(1);
  EXPECT_THROW(m.run(), SimError);
}

TEST(MachineBasic, UniformBranchLoops) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      SETTHICK 4
      LDI r1, 3
  loop: SUB r1, r1, 1
      BNEZ r1, loop
      ST r1, [r0+9+@]
      HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  for (Word i = 0; i < 4; ++i) EXPECT_EQ(m.shared().peek(9 + i), 0);
}

TEST(MachineBasic, CallReturnAtFlowLevel) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      helper: ADD r1, r1, 10
              RET
      main:   SETTHICK 3
              LDI r1, 5
              CALL helper
              CALL helper
              ST r1, [r0+30+@]
              HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  for (Word i = 0; i < 3; ++i) EXPECT_EQ(m.shared().peek(30 + i), 25);
}

// A RET without a CALL and a jump, branch, call or spawn to a target
// outside the program are program faults, with one message on the
// step-synchronous path and in the XMT lane runner.
TEST(MachineBasic, RetWithoutCallFaults) {
  struct Case {
    const char* src;
    const char* fault;
  };
  const Case cases[] = {
      {"RET", "RET with empty call stack in flow 0"},
      {"JMP -5", "branch target -5 out of range in flow 0"},
      {"LDI r1, 1\nBNEZ r1, 9", "branch target 9 out of range in flow 0"},
      {"CALL 7", "branch target 7 out of range in flow 0"},
      {"LDI r1, 2\nSPAWN r1, 8", "branch target 8 out of range in flow 0"},
  };
  for (const Variant v :
       {Variant::kSingleInstruction, Variant::kMultiInstruction}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(to_string(v)) + ": " + c.src);
      auto cfg = small_cfg();
      cfg.variant = v;
      Machine m(cfg);
      m.load(isa::assemble(c.src));
      m.boot(1);
      try {
        m.run();
        ADD_FAILURE() << "no fault";
      } catch (const SimError& e) {
        EXPECT_EQ(std::string(e.what()), c.fault);
      }
    }
  }
}

TEST(MachineBasic, RunningOffProgramEndFaults) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("NOP"));
  m.boot(1);
  EXPECT_THROW(m.run(), SimError);
}

TEST(MachineBasic, DivisionByZeroFaults) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("LDI r1, 4\nDIV r2, r1, r0\nHALT"));
  m.boot(1);
  EXPECT_THROW(m.run(), SimError);
}

TEST(MachineBasic, PrintCollectsDebugOutput) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("LDI r1, 42\nPRINT r1\nPRINT 7\nHALT"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.debug_output(), (std::vector<Word>{42, 7}));
}

TEST(MachineSpawn, ParallelSplitJoin) {
  auto cfg = small_cfg();
  Machine m(cfg);
  const Word n = 12;
  const Addr a = 100, b = 200, c = 300;
  m.load(tcf::kernels::cond_split_tcf(n, a, b, c));
  for (Word i = 0; i < n; ++i) {
    m.shared().poke(a + i, 2 * i);
    m.shared().poke(b + i, 3 * i);
    m.shared().poke(c + i, -1);
  }
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  for (Word i = 0; i < n / 2; ++i) EXPECT_EQ(m.shared().peek(c + i), 5 * i);
  for (Word i = n / 2; i < n; ++i) EXPECT_EQ(m.shared().peek(c + i), 0);
  EXPECT_EQ(m.stats().spawns, 2u);
  EXPECT_GE(m.stats().joins, 1u);
  EXPECT_GT(m.stats().branch_cost_cycles, 0u);
}

TEST(MachineSpawn, NestedSpawns) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      main:  LDI r1, 2
             SPAWN r1, mid
             JOINALL
             PRINT 1
             HALT
      mid:   LDI r2, 3
             SPAWN r2, leaf
             JOINALL
             HALT
      leaf:  MPADD r3, [r0+40]   ; r3 == 0 contributes nothing
             LDI r4, 1
             MPADD r4, [r0+41]
             HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  // SPAWN is flow-level: main creates ONE mid flow (thickness 2), which
  // creates ONE leaf flow (thickness 3) whose 3 lanes add 1 to cell 41.
  EXPECT_EQ(m.shared().peek(41), 3);
  EXPECT_EQ(m.debug_output(), (std::vector<Word>{1}));
  EXPECT_EQ(m.stats().spawns, 2u);
}

TEST(MachineSpawn, SpawnThicknessZeroIsNoChild) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      main: SPAWN r1, child    ; r1 == 0
            JOINALL
            HALT
      child: HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.live_flows(), 0u);
}

TEST(MachineSpawn, JoinWithoutChildrenContinues) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("JOINALL\nPRINT 5\nHALT"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.debug_output(), (std::vector<Word>{5}));
}

TEST(MachineMultiprefix, PrefixTcfOrderedResults) {
  auto cfg = small_cfg();
  Machine m(cfg);
  const Word n = 5;
  const Addr src = 100, dst = 200, sum = 50;
  m.load(tcf::kernels::prefix_tcf(n, src, dst, sum));
  for (Word i = 0; i < n; ++i) m.shared().poke(src + i, i + 1);
  m.shared().poke(sum, 1000);
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  // dst[i] = 1000 + (1 + ... + i); sum = 1000 + 15.
  Word run = 1000;
  for (Word i = 0; i < n; ++i) {
    EXPECT_EQ(m.shared().peek(dst + i), run);
    run += i + 1;
  }
  EXPECT_EQ(m.shared().peek(sum), 1015);
}

TEST(MachineMultiprefix, MultiopCombines) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      SETTHICK 8
      TID r1
      ADD r2, r1, 1
      MPADD r2, [r0+70]
      HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(70), 36);  // 1+2+...+8
}

TEST(MachineNuma, NumaBlockRunsSequentially) {
  auto cfg = small_cfg();
  Machine m(cfg);
  const Word len = 10;
  m.load(tcf::kernels::low_tlp_numa(4, len));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.local(0).read(0), len);  // counter incremented len times
  // NUMA fetches one instruction per executed instruction.
  EXPECT_EQ(m.stats().instruction_fetches, m.stats().tcf_instructions);
  // Block length 4 packs ~4 instructions per step: far fewer steps than
  // instructions.
  EXPECT_LT(m.stats().steps, m.stats().tcf_instructions);
}

TEST(MachineNuma, NumaSetZeroReturnsToPram) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      NUMASET 4
      LST r1, [r0+3]
      NUMASET 0
      SETTHICK 3
      ST r1, [r0+80+@]
      HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  for (Word i = 0; i < 3; ++i) EXPECT_EQ(m.shared().peek(80 + i), 0);
}

TEST(MachineNuma, SharedAccessFromNumaIsSequentiallyConsistent) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      NUMASET 8
      LDI r1, 5
      ST r1, [r0+90]
      LD r2, [r0+90]    ; forwarding: sees its own write
      ADD r2, r2, 1
      ST r2, [r0+91]
      HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(91), 6);
}

TEST(MachineCounters, UtilizationBetweenZeroAndOne) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(tcf::kernels::spin_ops(32, 20));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_GT(m.stats().utilization(), 0.0);
  EXPECT_LE(m.stats().utilization(), 1.0);
}

TEST(MachineCounters, PokePeekRegisters) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("ST r5, [r0+11]\nHALT"));
  const FlowId id = m.boot(1);
  m.poke_reg(id, 0, 5, 123);
  EXPECT_EQ(m.peek_reg(id, 0, 5), 123);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(11), 123);
}

TEST(MachineCounters, TraceRecordsWhenEnabled) {
  auto cfg = small_cfg();
  cfg.record_trace = true;
  Machine m(cfg);
  m.load(tcf::kernels::spin_ops(8, 5));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_FALSE(m.trace().spans().empty());
  EXPECT_NE(m.trace().render().find("flow 0"), std::string::npos);
}

// On a clocked shape each group's slot term is its work over its clock,
// rounded up — ceil(work * den / (num * fu)) — and the step takes the max
// over groups. One functional unit does not make that division the
// identity: a 3/1 group still shrinks its work and a 2/3 group stretches it.
// The fast group also does more operations than the step body is long, so
// it has no idle capacity to count (body - min(body, work) = 0).
TEST(MachineCounters, ClockedShapeSlotTermIsTheCeilingDivision) {
  auto cfg = small_cfg();
  cfg.groups = 2;
  cfg.functional_units = 1;
  cfg.group_specs.resize(2);
  cfg.group_specs[0].clock_num = 3;
  cfg.group_specs[0].clock_den = 1;
  cfg.group_specs[1].clock_num = 2;
  cfg.group_specs[1].clock_den = 3;
  Machine m(cfg);
  m.load(isa::assemble("TID r1\nADD r2, r1, 1\nHALT\n"));
  m.boot_at(0, 40, 0);
  m.boot_at(0, 7, 1);
  const metrics::Counter& slot =
      m.metrics().counter("machine/slot_term_cycles");
  std::vector<std::uint64_t> per_step;
  std::uint64_t before = 0;
  while (m.step()) {
    per_step.push_back(slot.value() - before);
    before = slot.value();
  }
  // TID, then ADD: 40 lane ops on group 0 take ceil(40*1 / (3*1)) = 14,
  // 7 on group 1 take ceil(7*3 / (2*1)) = 11. HALT, one op per group:
  // ceil(1/3) = 1 and ceil(3/2) = 2.
  EXPECT_EQ(per_step, (std::vector<std::uint64_t>{14, 14, 2}));
  EXPECT_EQ(slot.value(), 30u);
  // No memory term, so each body is the slot term. Idle: group 0 none in
  // the 14-cycle steps, group 1 14 - 7 = 7 in each; 2 - 1 per group at HALT.
  EXPECT_EQ(m.stats().busy_slots, 2u * (40 + 7) + 2);
  EXPECT_EQ(m.stats().idle_slots, 7u + 7 + 2);
}

TEST(MachineBuffer, OverflowFlowsEventuallyRun) {
  auto cfg = small_cfg();
  cfg.groups = 1;
  cfg.slots_per_group = 2;  // tiny TCF buffer
  Machine m(cfg);
  m.load(isa::assemble(R"(
      LDI r1, 1
      MPADD r1, [r0+33]
      HALT
  )"));
  for (int i = 0; i < 5; ++i) m.boot_at(0, 1, 0);
  EXPECT_EQ(m.resident_flows(0), 2u);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(33), 5);
}

TEST(MachineBuffer, DetailedNetworkModeMatchesResults) {
  for (bool detailed : {false, true}) {
    auto cfg = small_cfg();
    cfg.detailed_network = detailed;
    Machine m(cfg);
    m.load(tcf::kernels::vecadd_tcf(16, 100, 200, 300));
    for (Word i = 0; i < 16; ++i) {
      m.shared().poke(100 + i, i);
      m.shared().poke(200 + i, i);
    }
    m.boot(1);
    EXPECT_TRUE(m.run().completed);
    for (Word i = 0; i < 16; ++i) {
      EXPECT_EQ(m.shared().peek(300 + i), 2 * i);
    }
  }
}

TEST(MachineConfigChecks, FixedThicknessNeedsOneGroup) {
  auto cfg = small_cfg();
  cfg.variant = Variant::kFixedThickness;
  EXPECT_THROW(Machine m(cfg), SimError);
}

TEST(MachineConfigChecks, BootValidation) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("HALT"));
  EXPECT_THROW(m.boot(0), SimError);
  EXPECT_THROW(m.boot_at(5, 1, 0), SimError);
  EXPECT_THROW(m.boot_at(0, 1, 99), SimError);
}

// ---- The shared-memory lane sweep against the reference oracle ----
//
// A thick LD or ST runs as one sweep over its lanes (exec_shared_lanes).
// Each case runs a program on the machine and on conformance::run_oracle,
// and requires the same final shared memory, PRINT stream, completion and
// fault (message and class). The pinned cycle counts are the ones the
// lane-by-lane implementation charged.

MachineConfig sweep_cfg() {
  MachineConfig cfg;
  cfg.groups = 4;
  cfg.slots_per_group = 8;
  cfg.shared_words = 4096;
  cfg.local_words = 512;
  return cfg;
}

/// ".data at, f(0), ..., f(n - 1)" plus a newline.
template <class F>
std::string data_line(Addr at, Word n, F f) {
  std::string s = ".data " + std::to_string(at);
  for (Word i = 0; i < n; ++i) s += ", " + std::to_string(f(i));
  return s + "\n";
}

struct SweepOutcome {
  bool completed = false;
  std::string fault;
  std::vector<Word> shared;
  std::vector<Word> prints;
  Cycle cycles = 0;
  std::uint64_t shared_reads = 0;
  std::uint64_t shared_writes = 0;
  std::uint64_t store_forwards = 0;
  std::uint64_t write_cells = 0;       ///< mem/committed_write_cells
  std::uint64_t concurrent_cells = 0;  ///< mem/concurrent_write_cells
};

using MachineSetup = std::function<void(Machine&)>;

SweepOutcome run_sweep_case(const isa::Program& prog, Word thickness,
                            const MachineConfig& cfg,
                            const MachineSetup& setup) {
  Machine m(cfg);
  if (setup) setup(m);
  m.load(prog);
  m.boot(thickness);
  SweepOutcome o;
  try {
    o.completed = m.run(1u << 16).completed;
  } catch (const SimError& e) {
    o.fault = e.what();
  }
  for (Addr a = 0; a < cfg.shared_words; ++a) {
    o.shared.push_back(m.shared().peek(a));
  }
  o.prints = m.debug_output();
  o.cycles = m.stats().cycles;
  o.shared_reads = m.metrics().counter("mem/shared_reads").value();
  o.shared_writes = m.metrics().counter("mem/shared_writes").value();
  o.store_forwards = m.metrics().counter("mem/store_forwards").value();
  o.write_cells = m.metrics().counter("mem/committed_write_cells").value();
  o.concurrent_cells =
      m.metrics().counter("mem/concurrent_write_cells").value();
  return o;
}

/// Index of the first differing word, or -1.
std::int64_t first_difference(const std::vector<Word>& a,
                              const std::vector<Word>& b) {
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i] != b[i]) return static_cast<std::int64_t>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<std::int64_t>(a.size());
}

/// Runs `src` on the oracle and on the machine, checks them as described
/// above, and returns the machine's outcome.
SweepOutcome expect_sweep_matches_oracle(const std::string& src,
                                         Word thickness,
                                         const MachineConfig& cfg,
                                         const MachineSetup& setup = {}) {
  const isa::Program prog = isa::assemble(src);
  conformance::OracleOptions oo;
  oo.policy = cfg.crcw;
  oo.shared_words = cfg.shared_words;
  oo.local_words = cfg.local_words;
  const conformance::OracleResult want =
      conformance::run_oracle(prog, thickness, 0, false, oo);
  const SweepOutcome got = run_sweep_case(prog, thickness, cfg, setup);
  EXPECT_EQ(got.fault, want.fault);
  EXPECT_EQ(debug::classify_fault(got.fault),
            debug::classify_fault(want.fault));
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(first_difference(got.shared, want.shared), -1)
      << "shared memory differs from the oracle";
  EXPECT_EQ(got.prints, want.debug);
  return got;
}

TEST(MachineSweep, LaneAndPlainAddressingAndR0MatchOracle) {
  const Word t = 40;
  const std::string src =
      data_line(100, t, [](Word i) { return 3 * i + 1; }) +
      data_line(200, t, [](Word i) { return 1000 - i; }) +
      data_line(600, t, [](Word) { return 77; }) + R"(
      TID r1
      LD  r2, [r0+100+@]
      LD  r3, [r1+200]
      LD  r0, [r1+100]
      ADD r4, r2, r3
      ST  r4, [r0+400+@]
      ST  r2, [r1+500]
      ST  r0, [r1+600]
      LD  r5, [r1+400]
      ST  r5, [r1+700]
      HALT
  )";
  const SweepOutcome out = expect_sweep_matches_oracle(src, t, sweep_cfg());
  EXPECT_TRUE(out.completed);
  // LD into r0 discards the words but is still shared-memory traffic; the
  // zeros ST r0 wrote over the 77s show r0 stayed zero.
  EXPECT_EQ(out.shared_reads, 4u * t);
  EXPECT_EQ(out.shared_writes, 4u * t);
  EXPECT_EQ(out.shared[600], 0);
  EXPECT_EQ(out.shared[700 + 39], 3 * 39 + 1 + 1000 - 39);
  EXPECT_EQ(out.cycles, 445u);
}

// Lanes past the register cache pay the spill penalty on LD and ST exactly
// as on an ALU op: the sweep charges the per-lane sum in closed form.
TEST(MachineSweep, ThicknessPastRegisterCacheChargesEveryLane) {
  const Word t = 100;
  MachineConfig cfg = sweep_cfg();
  cfg.register_spill_penalty = 3;
  const std::uint64_t cached =
      cfg.register_cache_words / cfg.registers_per_context;
  ASSERT_LT(cached, static_cast<std::uint64_t>(t));
  const std::string src = data_line(1000, t, [](Word i) { return i * i; }) +
                          R"(
      TID r1
      LD  r2, [r1+1000]
      ADD r2, r2, 1
      ST  r2, [r1+2000]
      HALT
  )";
  const SweepOutcome out = expect_sweep_matches_oracle(src, t, cfg);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.cycles, 853u);

  Machine m(cfg);
  m.load(isa::assemble(src));
  m.boot(t);
  const metrics::Counter& slot =
      m.metrics().counter("machine/slot_term_cycles");
  std::vector<std::uint64_t> per_step;
  std::uint64_t before = 0;
  while (m.step()) {
    per_step.push_back(slot.value() - before);
    before = slot.value();
  }
  std::uint64_t per_instruction = 0;
  for (Word lane = 0; lane < t; ++lane) {
    per_instruction += 1 + (static_cast<std::uint64_t>(lane) >= cached
                                ? cfg.register_spill_penalty
                                : 0);
  }
  ASSERT_EQ(per_step.size(), 5u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(per_step[s], per_instruction) << "step " << s;
  }
  EXPECT_EQ(per_step[4], 1u);  // HALT: one activation slot
}

// Balanced bound 16 over thickness 12: the ST is cut after 8 lanes, and the
// step that finishes it runs the LD of the same cells. Lanes 8..11 of that
// LD must see the ST's still-uncommitted words through store forwarding.
TEST(MachineSweep, BalancedInterruptedStoreForwardsToSameStepLoad) {
  const Word t = 12;
  MachineConfig cfg = sweep_cfg();
  cfg.variant = Variant::kBalanced;
  cfg.balanced_bound = 16;
  const std::string src = data_line(300, t, [](Word) { return 7; }) + R"(
      TID r1
      ADD r2, r1, 1000
      ST  r2, [r1+300]
      LD  r3, [r1+300]
      ST  r3, [r1+600]
      HALT
  )";
  const SweepOutcome out = expect_sweep_matches_oracle(src, t, cfg);
  EXPECT_TRUE(out.completed);
  EXPECT_EQ(out.store_forwards, static_cast<std::uint64_t>(t));
  EXPECT_EQ(out.shared_reads, 0u);
  for (Word i = 0; i < t; ++i) EXPECT_EQ(out.shared[600 + i], 1000 + i);
  EXPECT_EQ(out.cycles, 80u);
}

TEST(MachineSweep, ErewReadLoggingAndViolation) {
  MachineConfig cfg = sweep_cfg();
  cfg.crcw = mem::CrcwPolicy::kErew;
  const std::string legal = data_line(100, 16, [](Word i) { return i; }) + R"(
      TID r1
      LD  r2, [r1+100]
      ST  r2, [r1+300]
      LD  r3, [r0+300+@]
      ADD r3, r3, r2
      ST  r3, [r0+300+@]
      HALT
  )";
  const SweepOutcome ok = expect_sweep_matches_oracle(legal, 16, cfg);
  EXPECT_TRUE(ok.completed);
  EXPECT_EQ(ok.shared[300 + 5], 10);
  EXPECT_EQ(ok.cycles, 125u);

  const SweepOutcome bad = expect_sweep_matches_oracle(R"(
      TID r1
      LD  r2, [r0+100]
      HALT
  )", 4, cfg);
  EXPECT_EQ(bad.fault,
            "EREW violation: concurrent reads of address 100 in step 1");
}

// The detailed router replays references in issue order and a custom
// address hash moves modules; neither may change results, and the cycles
// must be the ones the per-lane reference stream produced. Four functional
// units shrink the slot term so the memory term decides the step length.
TEST(MachineSweep, DetailedNetworkAndAddressHash) {
  const Word t = 64;
  const std::string src = data_line(100, 5 * t, [](Word i) { return i; }) +
                          R"(
      TID r1
      MUL r2, r1, 5
      LD  r3, [r2+100]
      ST  r3, [r2+1000]
      LD  r4, [r0+1000+@]
      ST  r4, [r1+3000]
      HALT
  )";
  const MachineSetup hashed = [](Machine& m) {
    m.shared().set_address_hash(
        [](Addr a) { return static_cast<std::uint32_t>((a * a) % 4); });
  };
  const Cycle want[2][2] = {{125u, 189u}, {197u, 193u}};  // [detailed][hash]
  for (const bool detailed : {false, true}) {
    for (const bool hash : {false, true}) {
      SCOPED_TRACE(std::string(detailed ? "detailed" : "analytic") +
                   (hash ? " hashed" : " interleaved"));
      MachineConfig cfg = sweep_cfg();
      cfg.functional_units = 4;
      cfg.detailed_network = detailed;
      const SweepOutcome out = expect_sweep_matches_oracle(
          src, t, cfg, hash ? hashed : MachineSetup{});
      EXPECT_TRUE(out.completed);
      EXPECT_EQ(out.cycles, want[detailed][hash]);
    }
  }
}

// A root SPAWNs three 32-lane children, which the default placement puts
// on groups 1, 2 and 3, each with its own window base in r5. A delay loop
// keyed to the base lines the children up, so all three store their
// windows in one step. Adjacent ascending windows drain in group order as
// one list of unit runs; windows that overlap by four words fall back to
// records, and Arbitrary-CRCW gives each shared cell to the lowest lane
// key (the earlier child).
TEST(MachineSweep, CrossGroupWindowsCommitAsRunsOrRecords) {
  auto program = [](Word stride) {
    const std::string s = std::to_string(stride);
    const std::string last = std::to_string(1000 + 2 * stride);
    return R"(
        LDI  r1, 32
        LDI  r5, 1000
        SPAWN r1, child
        ADD  r5, r5, )" + s + R"(
        SPAWN r1, child
        ADD  r5, r5, )" + s + R"(
        SPAWN r1, child
        JOINALL
        HALT
child:  LDI  r7, )" + last + R"(
        SUB  r7, r7, r5
        DIV  r7, r7, )" + s + R"(
        ADD  r7, r7, 1
delay:  SUB  r7, r7, 1
        BNEZ r7, delay
        TID  r2
        MUL  r3, r2, 7
        ADD  r3, r3, r5
        ST   r3, [r5+0+@]
        HALT
    )";
  };
  MachineConfig cfg = sweep_cfg();
  cfg.crcw = mem::CrcwPolicy::kArbitrary;

  const SweepOutcome adjacent =
      expect_sweep_matches_oracle(program(32), 1, cfg);
  EXPECT_TRUE(adjacent.completed);
  EXPECT_EQ(adjacent.shared_writes, 96u);
  EXPECT_EQ(adjacent.write_cells, 96u);
  EXPECT_EQ(adjacent.concurrent_cells, 0u);
  for (Word i = 0; i < 96; ++i) {
    EXPECT_EQ(adjacent.shared[1000 + i], 7 * (i % 32) + 1000 + 32 * (i / 32))
        << "cell " << 1000 + i;
  }
  EXPECT_EQ(adjacent.cycles, 516u);

  const SweepOutcome overlap =
      expect_sweep_matches_oracle(program(28), 1, cfg);
  EXPECT_TRUE(overlap.completed);
  EXPECT_EQ(overlap.shared_writes, 96u);
  EXPECT_EQ(overlap.write_cells, 88u);
  EXPECT_EQ(overlap.concurrent_cells, 8u);
  EXPECT_EQ(overlap.shared[1028], 7 * 28 + 1000);  // child 0's lane 28
  EXPECT_EQ(overlap.shared[1032], 7 * 4 + 1028);   // child 1 alone
  EXPECT_EQ(overlap.shared[1056], 7 * 28 + 1028);  // child 1's lane 28
  EXPECT_EQ(overlap.cycles, 516u);
}

// A thick data instruction whose first bad lane is k > 0 (a bad address,
// a zero divisor) runs lanes 0..k-1 and raises the lane-k fault, as the
// lane-by-lane order does.
TEST(MachineSweep, FirstBadLaneFaultsLikeTheOracle) {
  struct Case {
    const char* what;
    const char* body;
    const char* fault_class;
  };
  const Case cases[] = {
      {"LD negative", "MUL r2, r1, -1\n LD r3, [r2+2]", "addr"},
      {"LD out of range", "LD r3, [r1+4091]", "addr"},
      {"LD @ out of range", "LD r3, [r0+4093+@]", "addr"},
      {"ST negative", "MUL r2, r1, -1\n ST r1, [r2+2]", "addr"},
      {"ST out of range", "ST r1, [r1+4091]", "addr"},
      {"ST @ out of range", "ST r1, [r0+4093+@]", "addr"},
      {"DIV by zero", "SUB r2, r1, 5\n DIV r3, r1, r2", "arith"},
      {"MOD by zero into r0", "SUB r2, r1, 3\n MOD r0, r1, r2", "arith"},
      {"LLD out of range", "LLD r3, [r1+509]", "addr"},
      {"LST out of range", "LST r1, [r1+509]", "addr"},
      {"MPADD out of range", "MPADD r1, [r1+4093]", "addr"},
      {"PPADD out of range", "PPADD r3, r1, [r1+4093]", "addr"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const std::string src = data_line(4080, 16, [](Word i) { return i + 1; }) +
                            data_line(0, 4, [](Word i) { return 50 + i; }) +
                            "TID r1\n" + c.body + "\nHALT\n";
    const SweepOutcome out = expect_sweep_matches_oracle(src, 8, sweep_cfg());
    EXPECT_FALSE(out.completed);
    EXPECT_EQ(debug::classify_fault(out.fault), c.fault_class);
  }

  // The lanes before the bad one (lane 6 of 8) did execute and the others
  // did not: LD, DIV, MOD and LLD wrote r3 in lanes 0..5.
  struct Partial {
    const char* what;
    std::string src;
    Word (*want)(Word lane);
  };
  const Partial partials[] = {
      {"LD",
       data_line(4090, 6, [](Word i) { return 60 + i; }) +
           "TID r1\nLD r3, [r1+4090]\nHALT\n",
       [](Word l) { return 60 + l; }},
      {"DIV",
       "TID r1\nADD r4, r1, 100\nSUB r2, r1, 6\nDIV r3, r4, r2\nHALT\n",
       [](Word l) { return (100 + l) / (l - 6); }},
      {"MOD",
       "TID r1\nADD r4, r1, 100\nSUB r2, r1, 6\nMOD r3, r4, r2\nHALT\n",
       [](Word l) { return (100 + l) % (l - 6); }},
      {"LLD",
       "TID r1\nADD r2, r1, 60\nLST r2, [r1+504]\nLLD r3, [r1+506]\nHALT\n",
       [](Word l) { return 62 + l; }},
  };
  for (const Partial& p : partials) {
    SCOPED_TRACE(p.what);
    Machine m(sweep_cfg());
    m.load(isa::assemble(p.src));
    const FlowId f = m.boot(8);
    EXPECT_THROW(m.run(), SimError);
    for (LaneId lane = 0; lane < 8; ++lane) {
      const Word want = lane < 6 ? p.want(static_cast<Word>(lane)) : 0;
      EXPECT_EQ(m.peek_reg(f, lane, 3), want) << "lane " << lane;
    }
  }

  // LST: lanes 0..5 wrote local words 506..511 before lane 6 faulted.
  Machine m(sweep_cfg());
  m.load(isa::assemble("TID r1\nADD r2, r1, 60\nLST r2, [r1+506]\nHALT\n"));
  m.boot(8);
  EXPECT_THROW(m.run(), SimError);
  for (Addr a = 500; a < 512; ++a) {
    const Word want = a >= 506 ? 60 + static_cast<Word>(a - 506) : 0;
    EXPECT_EQ(m.local(0).read(a), want) << "local word " << a;
  }
}

// base + imm overflowing INT64_MAX wraps to a negative address (computed
// in unsigned arithmetic, so the sum is defined) and faults the same way on
// the LD sweep, on local memory, in the multi-instruction variant and in the
// oracle. The sanitizer CI job runs this.
TEST(MachineSweep, EffectiveAddressWrapFaultsLikeTheOracle) {
  const char* const prologue = R"(
      SUB r1, r0, 1
      SHR r1, r1, 1
  )";
  for (const char* access : {"LD r2, [r1+5]", "LD r2, [r1+0+@]",
                             "LLD r2, [r1+5]", "ST r0, [r1+7]"}) {
    SCOPED_TRACE(access);
    const std::string src = std::string(prologue) + access + "\nHALT\n";
    const SweepOutcome out = expect_sweep_matches_oracle(src, 4, sweep_cfg());
    EXPECT_EQ(debug::classify_fault(out.fault), "addr");
  }
  const SweepOutcome out = expect_sweep_matches_oracle(
      std::string(prologue) + "LD r2, [r1+5]\nHALT\n", 4, sweep_cfg());
  EXPECT_EQ(out.fault,
            "negative effective address -9223372036854775804 in flow 0");

  MachineConfig xmt = sweep_cfg();
  xmt.variant = Variant::kMultiInstruction;
  const SweepOutcome x = run_sweep_case(
      isa::assemble(std::string(prologue) + "LD r2, [r1+5]\nHALT\n"), 4, xmt,
      {});
  EXPECT_EQ(debug::classify_fault(x.fault), "addr");
}

}  // namespace
}  // namespace tcfpn::machine
