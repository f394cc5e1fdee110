// Tests for the scheduler layer: thickness splitting, horizontal vs
// vertical allocation on the machine, multitasking costs.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "conformance/gen.hpp"
#include "isa/assembler.hpp"
#include "sched/allocation.hpp"
#include "sched/balancer.hpp"
#include "sched/multitask.hpp"
#include "tcf/builder.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::sched {
namespace {

machine::MachineConfig cfg_groups(std::uint32_t groups,
                                  std::uint32_t slots = 8) {
  machine::MachineConfig cfg;
  cfg.groups = groups;
  cfg.slots_per_group = slots;
  cfg.shared_words = 1 << 14;
  cfg.local_words = 1 << 10;
  return cfg;
}

// ---- pure balancing algorithms ----

TEST(Balancer, SplitThicknessPartitions) {
  const auto frags = split_thickness(100, 32);
  ASSERT_EQ(frags.size(), 4u);
  Word total = 0, base = 0;
  for (const auto& f : frags) {
    EXPECT_EQ(f.base, base);
    EXPECT_LE(f.thickness, 32);
    base += f.thickness;
    total += f.thickness;
  }
  EXPECT_EQ(total, 100);
}

TEST(Balancer, SplitThicknessEdgeCases) {
  EXPECT_TRUE(split_thickness(0, 8).empty());
  const auto exact = split_thickness(64, 8);
  EXPECT_EQ(exact.size(), 8u);
  const auto single = split_thickness(5, 100);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].thickness, 5);
  EXPECT_THROW(split_thickness(10, 0), SimError);
}

TEST(Balancer, SplitEvenDistributesRemainder) {
  const auto frags = split_even(10, 4);
  ASSERT_EQ(frags.size(), 4u);
  EXPECT_EQ(frags[0].thickness, 3);
  EXPECT_EQ(frags[1].thickness, 3);
  EXPECT_EQ(frags[2].thickness, 2);
  EXPECT_EQ(frags[3].thickness, 2);
  EXPECT_EQ(frags[3].base, 8);
}

TEST(Balancer, SplitEvenSkipsEmptyParts) {
  const auto frags = split_even(2, 4);
  EXPECT_EQ(frags.size(), 2u);  // zero-thickness fragments dropped
}

// ---- group speeds (heterogeneous shapes, DESIGN.md §12) ----

TEST(Allocation, GroupSpeedsReflectShapeOverrides) {
  machine::MachineConfig cfg = cfg_groups(3, 8);
  machine::GroupSpec fat;
  fat.slots = 32;
  fat.clock_num = 3;
  machine::GroupSpec half;
  half.clock_den = 2;
  cfg.group_specs = {fat, half, machine::GroupSpec{}};
  const auto speeds = group_speeds(cfg);
  ASSERT_EQ(speeds.size(), 3u);
  EXPECT_EQ(speeds[0].num, 96u);  // 32 slots * 3x clock
  EXPECT_EQ(speeds[0].den, 1u);
  EXPECT_EQ(speeds[1].num, 8u);  // inherited slots, half clock
  EXPECT_EQ(speeds[1].den, 2u);
  EXPECT_EQ(speeds[2].num, 8u);
  EXPECT_EQ(speeds[2].den, 1u);
}

// ---- allocation on the machine ----

// A fragmentable vecadd: r15 = fragment base, thickness set at boot.
isa::Program vecadd_fragment(Addr a, Addr b, Addr c) {
  tcf::AsmBuilder s;
  using namespace tcf;
  s.tid(r1);
  s.add(r1, r1, r15);  // global index = fragment base + lane
  s.add(r2, r1, static_cast<Word>(a));
  s.ld(r3, r2);
  s.add(r4, r1, static_cast<Word>(b));
  s.ld(r5, r4);
  s.add(r6, r3, r5);
  s.add(r7, r1, static_cast<Word>(c));
  s.st(r6, r7);
  s.halt();
  return s.build();
}

TEST(Allocation, HorizontalBeatsVertical) {
  const Word n = 256;
  const Addr a = 1000, b = 2000, c = 3000;
  auto run = [&](bool horizontal) {
    machine::Machine m(cfg_groups(4));
    m.load(vecadd_fragment(a, b, c));
    for (Word i = 0; i < n; ++i) {
      m.shared().poke(a + i, i);
      m.shared().poke(b + i, 1);
    }
    if (horizontal) {
      boot_horizontal(m, 0, n, 4);
    } else {
      boot_vertical(m, 0, n);
    }
    EXPECT_TRUE(m.run().completed);
    for (Word i = 0; i < n; ++i) {
      EXPECT_EQ(m.shared().peek(c + i), i + 1);
    }
    return m.stats().cycles;
  };
  const Cycle vertical = run(false);
  const Cycle horizontal = run(true);
  // Horizontal T/P-wide fragments use all P processors.
  EXPECT_LT(horizontal, vertical);
  EXPECT_LT(horizontal * 2, vertical);  // ~4x in theory, demand >= 2x
}

TEST(Allocation, HooksControlSpawnPlacement) {
  auto prog = isa::assemble(R"(
      main:  LDI r1, 4
             SPAWN r1, child
             SPAWN r1, child
             SPAWN r1, child
             JOINALL
             HALT
      child: GID r2
             LDI r3, 1
             MPADD r3, [r0+10]
             HALT
  )");
  machine::Machine m(cfg_groups(4));
  m.set_allocation_hook([](const machine::TcfDescriptor&) {
    return GroupId{0};
  });
  m.load(prog);
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  // All three children must have landed on group 0.
  for (FlowId id = 1; id <= 3; ++id) {
    EXPECT_EQ(m.find_flow(id)->home, 0u);
  }
}

// ---- automatic splitting of overly thick flows ----

// A spawnable fragment-convention kernel: main spawns a thickness-N worker
// that triples a[] into c[] using r15 + tid indexing.
isa::Program spawn_fragment_work(Word n, Addr a, Addr c) {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto worker = s.make_label("worker");
  s.ldi(r1, n);
  s.spawn(r1, worker);
  s.joinall();
  s.halt();
  s.bind(worker);
  s.tid(r2);
  s.add(r2, r2, r15);  // global index (r15 = fragment base, 0 if unsplit)
  s.add(r3, r2, static_cast<Word>(a));
  s.ld(r4, r3);
  s.mul(r4, r4, Word{3});
  s.add(r5, r2, static_cast<Word>(c));
  s.st(r4, r5);
  s.halt();
  return s.build();
}

TEST(AutoSplit, SplitsSpawnsAndStaysCorrect) {
  const Word n = 200;
  machine::Machine m(cfg_groups(4));
  install_auto_splitter(m, 32);
  m.load(spawn_fragment_work(n, 1000, 3000));
  for (Word i = 0; i < n; ++i) m.shared().poke(1000 + i, i);
  m.boot(1);
  ASSERT_TRUE(m.run().completed);
  for (Word i = 0; i < n; ++i) {
    ASSERT_EQ(m.shared().peek(3000 + i), 3 * i);
  }
  // ceil(200/32) = 7 fragments + the root spawn event.
  EXPECT_EQ(m.stats().spawns, 1u);
  EXPECT_EQ(m.live_flows(), 0u);
}

TEST(AutoSplit, ImprovesMakespanOnMultipleGroups) {
  const Word n = 256;
  auto run = [&](bool split) {
    machine::Machine m(cfg_groups(4));
    if (split) install_auto_splitter(m, 64);
    m.load(spawn_fragment_work(n, 1000, 3000));
    for (Word i = 0; i < n; ++i) m.shared().poke(1000 + i, i);
    m.boot(1);
    EXPECT_TRUE(m.run().completed);
    for (Word i = 0; i < n; ++i) {
      EXPECT_EQ(m.shared().peek(3000 + i), 3 * i);
    }
    return m.stats().cycles;
  };
  const Cycle whole = run(false);
  const Cycle split = run(true);
  EXPECT_LT(split * 2, whole);  // 4 groups -> expect >= 2x gain
}

TEST(AutoSplit, ThinSpawnsPassThrough) {
  machine::Machine m(cfg_groups(2));
  install_auto_splitter(m, 64);
  m.load(spawn_fragment_work(8, 1000, 3000));
  for (Word i = 0; i < 8; ++i) m.shared().poke(1000 + i, i);
  m.boot(1);
  ASSERT_TRUE(m.run().completed);
  for (Word i = 0; i < 8; ++i) EXPECT_EQ(m.shared().peek(3000 + i), 3 * i);
}

TEST(AutoSplit, BadSplitterFaults) {
  machine::Machine m(cfg_groups(2));
  m.set_spawn_splitter([](Word) { return std::vector<Word>{1, 2}; });
  m.load(spawn_fragment_work(8, 1000, 3000));
  m.boot(1);
  EXPECT_THROW(m.run(), SimError);  // fragments don't sum to thickness
}

// ---- multitasking ----

isa::Program counting_task(Word iters) {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto loop = s.make_label("loop");
  s.ldi(r1, 0);
  s.bind(loop);
  s.add(r1, r1, Word{1});
  s.slt(r2, r1, iters);
  s.bnez(r2, loop);
  s.ldi(r3, 1);
  s.mp(isa::Opcode::kMpAdd, r3, r0, 5);
  s.halt();
  return s.build();
}

TEST(Multitask, RoundRobinCompletesAllTasks) {
  machine::Machine m(cfg_groups(2, 4));
  m.load(counting_task(20));
  std::vector<FlowId> tasks;
  for (int t = 0; t < 3; ++t) tasks.push_back(m.boot_at(0, 1, 0));
  TaskManager mgr(m, tasks);
  const auto res = mgr.run_round_robin(5);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(m.shared().peek(5), 3);
  EXPECT_GT(res.switches, 0u);
}

TEST(Multitask, TcfSwitchesAreFreeWhenResident) {
  machine::Machine m(cfg_groups(1, 8));  // all tasks fit the TCF buffer
  m.load(counting_task(20));
  std::vector<FlowId> tasks;
  for (int t = 0; t < 4; ++t) tasks.push_back(m.boot_at(0, 1, 0));
  TaskManager mgr(m, tasks);
  const auto res = mgr.run_round_robin(3);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.switch_cycles, 0u);  // Table 1: resident TCF switch == 0
}

TEST(Multitask, ThreadMachineSwitchesCostTpR) {
  auto cfg = cfg_groups(1, 8);
  cfg.variant = machine::Variant::kSingleOperation;
  machine::Machine m(cfg);
  m.load(counting_task(20));
  std::vector<FlowId> tasks;
  for (int t = 0; t < 4; ++t) {
    const FlowId id = m.boot_at(0, 1, 0);
    m.poke_reg(id, 0, 1, t);
    m.poke_reg(id, 0, 2, 4);
    tasks.push_back(id);
  }
  TaskManager mgr(m, tasks);
  const auto res = mgr.run_round_robin(3);
  EXPECT_TRUE(res.completed);
  // Every preemption pays O(T_p) context switching.
  EXPECT_GE(res.switch_cycles,
            res.switches * Cycle{cfg.slots_per_group});
}

TEST(Multitask, OverCapacityTcfSwitchesPaySpill) {
  machine::Machine m(cfg_groups(1, 2));  // buffer holds only 2 TCFs
  m.load(counting_task(20));
  std::vector<FlowId> tasks;
  for (int t = 0; t < 5; ++t) tasks.push_back(m.boot_at(0, 1, 0));
  TaskManager mgr(m, tasks);
  const auto res = mgr.run_round_robin(3);
  EXPECT_TRUE(res.completed);
  EXPECT_GT(res.switch_cycles, 0u);  // spills once the buffer overflows
}

TEST(Multitask, CoscheduledRunsToCompletion) {
  machine::Machine m(cfg_groups(2, 8));
  m.load(counting_task(10));
  std::vector<FlowId> tasks;
  for (int t = 0; t < 4; ++t) {
    tasks.push_back(m.boot_at(0, 1, static_cast<GroupId>(t % 2)));
  }
  TaskManager mgr(m, tasks);
  const auto res = mgr.run_coscheduled();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(m.shared().peek(5), 4);
}

// ---- suspend / resume / evict edge cases under group overflow ----

TEST(FlowControl, SuspendedFlowMakesNoProgress) {
  machine::Machine m(cfg_groups(1, 4));
  m.load(counting_task(10));
  const FlowId a = m.boot_at(0, 1, 0);
  (void)m.boot_at(0, 1, 0);
  m.suspend_flow(a);
  EXPECT_FALSE(m.run().completed);  // `a` is still live
  EXPECT_EQ(m.shared().peek(5), 1);
  // Resident TCF switches are free (Table 1) on the default variant.
  EXPECT_EQ(m.resume_flow(a), 0u);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(5), 2);
}

TEST(FlowControl, ResumeIntoFullBufferEvictsSuspendedResident) {
  // Buffer holds 2 TCFs; the third boot lands in the overflow list.
  machine::Machine m(cfg_groups(1, 2));
  m.load(counting_task(10));
  const FlowId t0 = m.boot_at(0, 1, 0);
  (void)m.boot_at(0, 1, 0);
  const FlowId t2 = m.boot_at(0, 1, 0);
  m.suspend_flow(t2);  // overflow seat, stays suspended
  m.suspend_flow(t0);  // resident, suspended -> eviction victim
  // Resuming the non-resident t2 into the full buffer must displace the
  // suspended resident t0 and pay both halves of the swap.
  EXPECT_GT(m.resume_flow(t2), 0u);
  // t0 is now in overflow; resuming it again finds no suspended resident
  // to displace, so it waits there for a free slot.
  m.resume_flow(t0);
  ASSERT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(5), 3);
  EXPECT_GT(m.stats().task_switch_cycles, 0u);
}

TEST(FlowControl, EvictedFlowIsPromotedBackAndCompletes) {
  machine::Machine m(cfg_groups(1, 2));
  m.load(counting_task(10));
  const FlowId t0 = m.boot_at(0, 1, 0);
  (void)m.boot_at(0, 1, 0);
  EXPECT_GT(m.evict_flow(t0), 0u);  // forced swap-out
  EXPECT_THROW(m.evict_flow(t0), SimError);  // already non-resident
  ASSERT_TRUE(m.run().completed);  // promotion pays the swap-in
  EXPECT_EQ(m.shared().peek(5), 2);
}

TEST(FlowControl, SuspendResumeValidateFlowStatus) {
  machine::Machine m(cfg_groups(1, 4));
  m.load(counting_task(5));
  const FlowId a = m.boot_at(0, 1, 0);
  EXPECT_THROW(m.resume_flow(a), SimError);  // not suspended
  m.suspend_flow(a);
  EXPECT_THROW(m.suspend_flow(a), SimError);  // already suspended
  m.resume_flow(a);
  EXPECT_TRUE(m.run().completed);
}

// Round-robin multitasking over generator-produced TCF workloads: thick
// flows with SETTHICK / NUMA / multioperations exercise the suspend /
// promote / evict paths far harder than the hand-written counting task.
TEST(FlowControl, GeneratedWorkloadsMultitaskUnderOverflow) {
  namespace conf = tcfpn::conformance;
  std::size_t exercised = 0;
  for (std::uint64_t seed = 1; seed <= 200 && exercised < 5; ++seed) {
    conf::GenOptions gopt;
    gopt.seed = seed;
    const conf::GenProgram gp = conf::generate(gopt);
    const conf::Profile p = conf::profile_of(gp);
    // Multitasking needs self-contained single-flow programs: spawned
    // children are not TaskManager tasks, ESM programs need poked ids, and
    // expected-SimError programs abort the whole machine.
    if (p.uses_spawn || p.expects_error || gp.esm_boot) continue;
    ++exercised;

    auto cfg = cfg_groups(1, 2);  // every extra task overflows the buffer
    cfg.shared_words = conf::kSharedWords;
    cfg.local_words = conf::kLocalWords;
    cfg.crcw = gp.policy;
    machine::Machine m(cfg);
    m.load(conf::materialize(gp).program);
    std::vector<FlowId> tasks;
    for (int t = 0; t < 4; ++t) {
      tasks.push_back(m.boot_at(0, gp.boot_thickness, 0));
    }
    TaskManager mgr(m, tasks);
    const auto res = mgr.run_round_robin(3);
    EXPECT_TRUE(res.completed) << "seed " << seed;
    EXPECT_GT(res.switches, 0u) << "seed " << seed;
    // With a 2-slot buffer and 4 live tasks the rotation cannot stay
    // resident: some switch must have paid a spill.
    EXPECT_GT(res.switch_cycles, 0u) << "seed " << seed;
    EXPECT_EQ(m.live_flows(), 0u) << "seed " << seed;
  }
  EXPECT_EQ(exercised, 5u) << "generator stopped producing usable workloads";
}

TEST(Multitask, RejectsEmptyOrBadTasks) {
  machine::Machine m(cfg_groups(1, 4));
  m.load(counting_task(5));
  EXPECT_THROW(TaskManager(m, {}), SimError);
  EXPECT_THROW(TaskManager(m, {FlowId{99}}), SimError);
}

}  // namespace
}  // namespace tcfpn::sched
