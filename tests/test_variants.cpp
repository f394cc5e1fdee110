// Tests of the six execution variants (Section 3.2): result equivalence
// across variants, per-variant restrictions, and the cost/step shapes that
// the figure benches rely on.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "isa/assembler.hpp"
#include "machine/cost_model.hpp"
#include "machine/machine.hpp"
#include "tcf/builder.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::machine {
namespace {

MachineConfig base_cfg() {
  MachineConfig cfg;
  cfg.groups = 4;
  cfg.slots_per_group = 8;
  cfg.shared_words = 1 << 14;
  cfg.local_words = 1 << 10;
  return cfg;
}

void seed_arrays(mem::SharedMemory& shm, Word n, Addr a, Addr b) {
  for (Word i = 0; i < n; ++i) {
    shm.poke(a + i, 3 * i + 1);
    shm.poke(b + i, i * i);
  }
}

void check_sum(const mem::SharedMemory& shm, Word n, Addr c) {
  for (Word i = 0; i < n; ++i) {
    ASSERT_EQ(shm.peek(c + i), 3 * i + 1 + i * i) << "element " << i;
  }
}

// ---- the same computation through every front-end ----

TEST(VariantEquivalence, VecAddAllModels) {
  const Word n = 37;  // deliberately not a multiple of anything
  const Addr a = 100, b = 200, c = 300;

  {  // extended model, single-instruction
    auto cfg = base_cfg();
    Machine m(cfg);
    m.load(tcf::kernels::vecadd_tcf(n, a, b, c));
    seed_arrays(m.shared(), n, a, b);
    m.boot(1);
    ASSERT_TRUE(m.run().completed);
    check_sum(m.shared(), n, c);
  }
  {  // extended model, balanced
    auto cfg = base_cfg();
    cfg.variant = Variant::kBalanced;
    cfg.balanced_bound = 4;
    Machine m(cfg);
    m.load(tcf::kernels::vecadd_tcf(n, a, b, c));
    seed_arrays(m.shared(), n, a, b);
    m.boot(1);
    ASSERT_TRUE(m.run().completed);
    check_sum(m.shared(), n, c);
  }
  {  // threaded ESM (single-operation)
    auto cfg = base_cfg();
    Machine m([&] {
      cfg.variant = Variant::kSingleOperation;
      return cfg;
    }());
    m.load(tcf::kernels::vecadd_esm_loop(n, a, b, c));
    seed_arrays(m.shared(), n, a, b);
    tcf::kernels::boot_esm_threads(m, 0, cfg.total_slots());
    ASSERT_TRUE(m.run().completed);
    check_sum(m.shared(), n, c);
  }
  {  // XMT (multi-instruction)
    auto cfg = base_cfg();
    cfg.variant = Variant::kMultiInstruction;
    Machine m(cfg);
    m.load(tcf::kernels::vecadd_fork(n, a, b, c));
    seed_arrays(m.shared(), n, a, b);
    m.boot(1);
    ASSERT_TRUE(m.run().completed);
    check_sum(m.shared(), n, c);
  }
  {  // vector/SIMD (fixed thickness)
    auto cfg = base_cfg();
    cfg.variant = Variant::kFixedThickness;
    cfg.groups = 1;
    Machine m(cfg);
    m.load(tcf::kernels::vecadd_simd(n, cfg.slots_per_group, a, b, c));
    seed_arrays(m.shared(), n, a, b);
    m.boot(cfg.slots_per_group);
    ASSERT_TRUE(m.run().completed);
    check_sum(m.shared(), n, c);
  }
}

// ---- variant restrictions ----

TEST(VariantRestrictions, SingleOperationRejectsThickness) {
  auto cfg = base_cfg();
  cfg.variant = Variant::kSingleOperation;
  Machine m(cfg);
  m.load(isa::assemble("SETTHICK 4\nHALT"));
  m.boot(1);
  EXPECT_THROW(m.run(), SimError);
}

TEST(VariantRestrictions, SingleOperationRejectsNuma) {
  auto cfg = base_cfg();
  cfg.variant = Variant::kSingleOperation;
  Machine m(cfg);
  m.load(isa::assemble("NUMASET 4\nHALT"));
  m.boot(1);
  EXPECT_THROW(m.run(), SimError);
}

TEST(VariantRestrictions, ConfigSingleOperationAllowsNuma) {
  auto cfg = base_cfg();
  cfg.variant = Variant::kConfigSingleOperation;
  Machine m(cfg);
  m.load(tcf::kernels::low_tlp_numa(4, 8));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.local(0).read(0), 8);
}

TEST(VariantRestrictions, MultiInstructionRejectsNuma) {
  auto cfg = base_cfg();
  cfg.variant = Variant::kMultiInstruction;
  Machine m(cfg);
  m.load(isa::assemble("NUMASET 4\nHALT"));
  m.boot(1);
  EXPECT_THROW(m.run(), SimError);
}

TEST(VariantRestrictions, FixedThicknessRejectsSpawnAndSetThick) {
  auto cfg = base_cfg();
  cfg.variant = Variant::kFixedThickness;
  cfg.groups = 1;
  {
    Machine m(cfg);
    m.load(isa::assemble("LDI r1, 2\nSPAWN r1, 0\nHALT"));
    m.boot(8);
    EXPECT_THROW(m.run(), SimError);
  }
  {
    Machine m(cfg);
    m.load(isa::assemble("SETTHICK 4\nHALT"));
    m.boot(8);
    EXPECT_THROW(m.run(), SimError);
  }
}

// ---- cost shapes the figures depend on ----

TEST(VariantCosts, SingleOperationStepIsAlwaysTp) {
  // Fig. 10: the interleaved ESM pipeline burns T_p slots per step no
  // matter how few threads are active -> utilization = active / T_p.
  auto cfg = base_cfg();
  cfg.groups = 1;
  cfg.variant = Variant::kSingleOperation;
  Machine m(cfg);
  m.load(isa::assemble(R"(
      LDI r1, 0
  loop: ADD r1, r1, 1
      SLT r2, r1, 50
      BNEZ r2, loop
      HALT
  )"));
  tcf::kernels::boot_esm_threads(m, 0, 2);  // only 2 of 8 slots active
  ASSERT_TRUE(m.run().completed);
  EXPECT_NEAR(m.stats().utilization(), 2.0 / 8.0, 0.05);
}

TEST(VariantCosts, SingleInstructionStepScalesWithThickness) {
  // Fig. 7: one TCF instruction per step; a thick flow makes long steps.
  auto cfg = base_cfg();
  cfg.groups = 1;
  Machine m(cfg);
  m.load(tcf::kernels::spin_ops(100, 10));
  m.boot(1);
  ASSERT_TRUE(m.run().completed);
  // 10 payload instructions at thickness 100 dominate: >= 1000 cycles.
  EXPECT_GE(m.stats().cycles, 1000u);
  // and steps stay ~12 (setthick + 10 + halt)
  EXPECT_EQ(m.stats().steps, 12u);
}

TEST(VariantCosts, BalancedBoundsStepLength) {
  // Fig. 8: the balanced variant caps per-step work at B.
  auto cfg = base_cfg();
  cfg.groups = 1;
  cfg.variant = Variant::kBalanced;
  cfg.balanced_bound = 16;
  Machine m(cfg);
  m.load(tcf::kernels::spin_ops(100, 10));
  m.boot(1);
  ASSERT_TRUE(m.run().completed);
  // ~1000 ops at <= 16 ops/step => >= 63 steps (vs 12 for single-instr).
  EXPECT_GE(m.stats().steps, 60u);
  // An interrupted instruction is re-fetched on every resume: u/b fetches.
  EXPECT_GT(m.stats().instruction_fetches, 12u);
}

TEST(VariantCosts, BalancedUnblocksThinFlowsNextToThickOnes) {
  // Two flows on ONE group: thickness 256 and thickness 1.
  // Single-instruction: the thin flow advances one instruction per
  // 256-cycle step. Balanced: both advance within every 16-op step, so the
  // thin flow finishes much earlier in cycle terms.
  // Build a combined program: thin flow at `thin`, thick flow at `thick`.
  isa::Program prog;
  {
    tcf::AsmBuilder s;
    auto thick_entry = s.make_label("thick");
    // thin: 40 instructions at thickness 1
    for (int i = 0; i < 40; ++i) s.add(tcf::r1, tcf::r1, Word{1});
    s.halt();
    s.bind(thick_entry);
    s.setthick(256);
    for (int i = 0; i < 40; ++i) s.add(tcf::r1, tcf::r1, Word{1});
    s.halt();
    prog = s.build();
  }
  auto measure = [&](Variant v) {
    auto cfg = base_cfg();
    cfg.groups = 1;
    cfg.slots_per_group = 4;
    cfg.variant = v;
    cfg.balanced_bound = 16;
    Machine m(cfg);
    m.load(prog);
    const FlowId thin = m.boot_at(0, 1, 0);
    m.boot_at(prog.label("thick"), 1, 0);
    // Step until the thin flow halts; count cycles.
    while (m.find_flow(thin)->status != FlowStatus::kHalted && m.step()) {
    }
    return m.stats().cycles;
  };
  const Cycle thin_single = measure(Variant::kSingleInstruction);
  const Cycle thin_balanced = measure(Variant::kBalanced);
  EXPECT_LT(thin_balanced, thin_single / 2)
      << "balanced should free the thin flow from thick-step barriers";
}

TEST(VariantCosts, MultiInstructionJoinCostCharged) {
  auto cfg = base_cfg();
  cfg.variant = Variant::kMultiInstruction;
  cfg.join_cost = 100;
  Machine m(cfg);
  m.load(tcf::kernels::vecadd_fork(8, 100, 200, 300));
  m.boot(1);
  ASSERT_TRUE(m.run().completed);
  EXPECT_GE(m.stats().cycles, 100u);  // at least one join barrier
  EXPECT_EQ(m.stats().spawns, 1u);     // one SPAWN forks every worker
  EXPECT_EQ(m.stats().joins, 1u);
}

TEST(VariantCosts, TaskSwitchCostFormulas) {
  auto cfg = base_cfg();
  cfg.registers_per_context = 16;
  cfg.slots_per_group = 32;
  cfg.variant = Variant::kSingleInstruction;
  EXPECT_EQ(task_switch_cost(cfg, 10, true), 0u);   // resident: free
  EXPECT_GT(task_switch_cost(cfg, 10, false), 0u);  // spill
  cfg.variant = Variant::kMultiInstruction;
  EXPECT_EQ(task_switch_cost(cfg, 10, false), 1u);  // O(1)
  cfg.variant = Variant::kSingleOperation;
  EXPECT_EQ(task_switch_cost(cfg, 10, true), 32u * 16u);  // O(T_p)
}

TEST(VariantCosts, FlowBranchCostFormulas) {
  auto cfg = base_cfg();
  cfg.registers_per_context = 16;
  cfg.variant = Variant::kSingleInstruction;
  EXPECT_EQ(flow_branch_cost(cfg), 16u);  // O(R)
  cfg.variant = Variant::kSingleOperation;
  EXPECT_EQ(flow_branch_cost(cfg), 1u);   // O(1)
}

TEST(VariantTraitsRows, MatchTable1) {
  const auto si = variant_traits(Variant::kSingleInstruction);
  EXPECT_TRUE(si.pram_operation);
  EXPECT_TRUE(si.numa_operation);
  EXPECT_TRUE(si.mimd);
  EXPECT_STREQ(si.fetches_per_tcf, "1");
  const auto mi = variant_traits(Variant::kMultiInstruction);
  EXPECT_FALSE(mi.pram_operation);
  EXPECT_FALSE(mi.numa_operation);
  const auto ft = variant_traits(Variant::kFixedThickness);
  EXPECT_FALSE(ft.mimd);
  EXPECT_STREQ(ft.sequential_via, "scalar unit");
  const auto cso = variant_traits(Variant::kConfigSingleOperation);
  EXPECT_TRUE(cso.pram_operation);
  EXPECT_TRUE(cso.numa_operation);
}

TEST(VariantCosts, SuspendResumeAccounting) {
  auto cfg = base_cfg();
  Machine m(cfg);
  m.load(tcf::kernels::spin_ops(4, 50));
  const FlowId id = m.boot(1);
  m.step();
  const Cycle suspend_cost = m.suspend_flow(id);
  EXPECT_EQ(suspend_cost, 0u);  // resident TCF: free (Table 1)
  EXPECT_FALSE(m.step());       // nothing ready
  m.resume_flow(id);
  EXPECT_TRUE(m.run().completed);
}

TEST(VariantCosts, ThreadMachineSwitchCostsTpTimesR) {
  auto cfg = base_cfg();
  cfg.variant = Variant::kSingleOperation;
  Machine m(cfg);
  m.load(isa::assemble("LDI r3, 1\nMPADD r3, [r0+3]\nHALT"));
  const auto ids = tcf::kernels::boot_esm_threads(m, 0, 2);
  const Cycle c = m.suspend_flow(ids[0]);
  EXPECT_EQ(c, Cycle{cfg.slots_per_group} * cfg.registers_per_context);
  m.resume_flow(ids[0]);
  EXPECT_TRUE(m.run().completed);
}

}  // namespace
}  // namespace tcfpn::machine
