// Resilience subsystem tests (DESIGN.md §9).
//
// The central contracts:
//  - the fault schedule and the whole recovery path are a pure function of
//    (seed, step, group): a fault-injected run is bit-identical — journal
//    tape, metrics snapshot, memory image, cycle counts — at --host-threads
//    1, 2 and 8;
//  - checkpoint-rollback recovery is invisible: a run that took injected
//    faults and rolled back ends with the same completion status, memory
//    image and PRINT output as the fault-free run, on every variant;
//  - graceful degradation retires a killed group, remaps its resident
//    thickness onto survivors (Section 3.1) and still completes with the
//    right answer in the P-1 configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "debug/recorder.hpp"
#include "machine/machine.hpp"
#include "resil/fault.hpp"
#include "resil/recovery.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::resil {
namespace {

using machine::Machine;
using machine::MachineConfig;
using machine::MachineStats;
using machine::Variant;

constexpr Word kN = 48;
constexpr Addr kA = 100, kB = 400, kC = 700;

isa::Program with_arrays(isa::Program p) {
  std::vector<Word> av(kN), bv(kN);
  for (Word i = 0; i < kN; ++i) {
    av[i] = 3 * i + 1;
    bv[i] = 7 * i;
  }
  p.data.push_back({kA, av});
  p.data.push_back({kB, bv});
  return p;
}

MachineConfig base_cfg(Variant v, std::uint32_t host_threads) {
  MachineConfig cfg;
  cfg.groups = v == Variant::kFixedThickness ? 1 : 4;
  cfg.slots_per_group = 8;
  cfg.shared_words = 1 << 12;
  cfg.local_words = 1 << 10;
  cfg.variant = v;
  cfg.balanced_bound = 8;
  cfg.host_threads = host_threads;
  return cfg;
}

isa::Program program_for(Variant v) {
  switch (v) {
    case Variant::kSingleInstruction:
    case Variant::kBalanced:
      return with_arrays(tcf::kernels::vecadd_tcf(kN, kA, kB, kC));
    case Variant::kMultiInstruction:
      return with_arrays(tcf::kernels::vecadd_fork(kN, kA, kB, kC));
    case Variant::kSingleOperation:
    case Variant::kConfigSingleOperation:
      return with_arrays(tcf::kernels::vecadd_esm_loop(kN, kA, kB, kC));
    case Variant::kFixedThickness:
      return with_arrays(tcf::kernels::vecadd_simd(kN, 16, kA, kB, kC));
  }
  return {};
}

void boot_for(Variant v, Machine& m) {
  switch (v) {
    case Variant::kSingleOperation:
    case Variant::kConfigSingleOperation:
      tcf::kernels::boot_esm_threads(m, m.program().entry(), 16);
      break;
    case Variant::kFixedThickness:
      m.boot(16);
      break;
    default:
      m.boot(1);
      break;
  }
}

/// Everything a resilient run can be compared by.
struct ResilSnapshot {
  ResilResult result;
  std::vector<Word> memory;
  MachineStats stats;
  metrics::MetricsSnapshot metrics;
  std::vector<Word> debug;
  std::vector<machine::DebugEvent> journal;
};

ResilSnapshot run_resilient(Variant v, std::uint32_t host_threads,
                            const FaultSpec& spec, RecoverMode mode) {
  Machine m(base_cfg(v, host_threads));
  m.load(program_for(v));
  boot_for(v, m);
  ResilConfig rc;
  rc.spec = spec;
  rc.mode = mode;
  ResilientExecutor ex(m, rc);
  ResilSnapshot s;
  s.result = ex.run();
  s.memory.reserve(m.shared().size());
  for (Addr a = 0; a < m.shared().size(); ++a) {
    s.memory.push_back(m.shared().peek(a));
  }
  s.stats = m.stats();
  s.metrics = m.metrics_snapshot();
  s.debug = m.debug_output();
  for (const auto& e : ex.recorder().journal().entries()) {
    s.journal.push_back(e.event);
  }
  return s;
}

/// The fault-free reference for a variant (no injector, no recorder).
ResilSnapshot run_clean(Variant v) {
  Machine m(base_cfg(v, 1));
  m.load(program_for(v));
  boot_for(v, m);
  ResilSnapshot s;
  const machine::RunResult run = m.run();
  s.result.run = run;
  s.memory.reserve(m.shared().size());
  for (Addr a = 0; a < m.shared().size(); ++a) {
    s.memory.push_back(m.shared().peek(a));
  }
  s.stats = m.stats();
  s.debug = m.debug_output();
  return s;
}

class ResilVariants : public ::testing::TestWithParam<Variant> {};

// Determinism: the fault schedule and every recovery action happen at step
// boundaries on barrier-side state, so a fault-injected run is bit-identical
// at --host-threads 1, 2 and 8 — journal tape, metrics document, stats
// (cycles included) and final memory image.
TEST_P(ResilVariants, FaultedRunBitIdenticalAcrossHostThreads) {
  const Variant v = GetParam();
  // The default rates are tuned for long fuzz runs; the short kernels here
  // need hotter ones, plus one scripted flip so the comparison can never be
  // vacuous on a variant whose run is only a handful of steps.
  FaultSpec spec = default_spec_for_seed(7);
  spec.drop_rate = 0.05;
  spec.delay_rate = 0.05;
  spec.stall_rate = 0.03;
  spec.flip_rate = 0.02;
  spec.scripted.push_back({1, FaultKind::kBitFlip, kC});
  const ResilSnapshot ref = run_resilient(v, 1, spec, RecoverMode::kRollback);
  EXPECT_GE(ref.result.resil.faults_injected, 1u)
      << machine::to_string(v) << ": schedule injected nothing — the "
      << "determinism comparison would be vacuous";
  for (std::uint32_t ht : {2u, 8u}) {
    const ResilSnapshot got =
        run_resilient(v, ht, spec, RecoverMode::kRollback);
    const std::string what =
        std::string(machine::to_string(v)) + " ht=" + std::to_string(ht);
    EXPECT_EQ(ref.journal, got.journal) << what << ": journal tape";
    EXPECT_TRUE(ref.metrics == got.metrics) << what << ": metrics snapshot";
    EXPECT_TRUE(ref.stats == got.stats) << what << ": MachineStats";
    EXPECT_EQ(ref.memory, got.memory) << what << ": shared-memory image";
    EXPECT_EQ(ref.debug, got.debug) << what << ": debug output";
    EXPECT_EQ(ref.result.run.completed, got.result.run.completed) << what;
    EXPECT_EQ(ref.result.faulted, got.result.faulted) << what;
    EXPECT_EQ(ref.result.resil.faults_injected,
              got.result.resil.faults_injected) << what;
    EXPECT_EQ(ref.result.resil.rollbacks, got.result.resil.rollbacks) << what;
    EXPECT_EQ(ref.result.resil.retries, got.result.resil.retries) << what;
    EXPECT_EQ(ref.result.resil.steps_lost, got.result.resil.steps_lost)
        << what;
  }
}

// Acceptance: a guaranteed-fatal scripted fault (a bit flip into the result
// region) recovered by rollback ends bit-identical to the fault-free run —
// completion, memory image, PRINT output — with at least one rollback
// actually taken.
TEST_P(ResilVariants, RollbackRecoversBitIdenticalToFaultFree) {
  const Variant v = GetParam();
  const ResilSnapshot clean = run_clean(v);
  ASSERT_TRUE(clean.result.run.completed) << machine::to_string(v);
  ASSERT_GE(clean.stats.steps, 2u) << machine::to_string(v);

  FaultSpec spec;
  spec.seed = 5;
  spec.scripted.push_back({1, FaultKind::kBitFlip, kC + 1});
  const ResilSnapshot got =
      run_resilient(v, 1, spec, RecoverMode::kRollback);
  EXPECT_FALSE(got.result.faulted) << got.result.fault_message;
  EXPECT_TRUE(got.result.run.completed) << machine::to_string(v);
  EXPECT_EQ(got.result.resil.faults_injected, 1u) << machine::to_string(v);
  EXPECT_GE(got.result.resil.rollbacks, 1u) << machine::to_string(v);
  EXPECT_EQ(clean.memory, got.memory)
      << machine::to_string(v) << ": recovered memory image";
  EXPECT_EQ(clean.debug, got.debug)
      << machine::to_string(v) << ": recovered PRINT output";
}

// The same invisibility holds for a whole random all-kinds schedule: drops
// retried, delays/stalls absorbed, kills/flips/memfails rolled back — the
// answer never changes.
TEST_P(ResilVariants, RandomScheduleRollbackMatchesFaultFree) {
  const Variant v = GetParam();
  const ResilSnapshot clean = run_clean(v);
  ASSERT_TRUE(clean.result.run.completed) << machine::to_string(v);

  const FaultSpec spec = default_spec_for_seed(11);
  const ResilSnapshot got =
      run_resilient(v, 1, spec, RecoverMode::kRollback);
  EXPECT_FALSE(got.result.faulted) << got.result.fault_message;
  EXPECT_TRUE(got.result.run.completed) << machine::to_string(v);
  EXPECT_EQ(clean.memory, got.memory) << machine::to_string(v);
  EXPECT_EQ(clean.debug, got.debug) << machine::to_string(v);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ResilVariants,
    ::testing::Values(Variant::kSingleInstruction, Variant::kBalanced,
                      Variant::kMultiInstruction, Variant::kSingleOperation,
                      Variant::kConfigSingleOperation,
                      Variant::kFixedThickness),
    [](const ::testing::TestParamInfo<Variant>& param) {
      std::string name = machine::to_string(param.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

class DegradeVariants : public ::testing::TestWithParam<Variant> {};

// Graceful degradation: a permanent group kill retires the group, remaps its
// resident TCFs onto survivors (Section 3.1 thickness redistribution) and
// the run still completes with the fault-free memory image in the P-1
// configuration, the remapping visible in the /resil/* metrics.
TEST_P(DegradeVariants, GroupKillDegradesAndCompletes) {
  const Variant v = GetParam();
  const ResilSnapshot clean = run_clean(v);
  ASSERT_TRUE(clean.result.run.completed) << machine::to_string(v);
  ASSERT_GE(clean.stats.steps, 2u) << machine::to_string(v);

  Machine m(base_cfg(v, 1));
  m.load(program_for(v));
  boot_for(v, m);
  ResilConfig rc;
  rc.spec.seed = 5;
  rc.spec.scripted.push_back({1, FaultKind::kGroupKill, 1});
  rc.mode = RecoverMode::kDegrade;
  ResilientExecutor ex(m, rc);
  const ResilResult r = ex.run();

  EXPECT_FALSE(r.faulted) << r.fault_message;
  EXPECT_TRUE(r.run.completed) << machine::to_string(v);
  EXPECT_EQ(r.resil.groups_retired, 1u) << machine::to_string(v);
  EXPECT_EQ(m.alive_groups(), 3u) << machine::to_string(v);
  EXPECT_FALSE(m.group_alive(1)) << machine::to_string(v);

  std::vector<Word> memory;
  for (Addr a = 0; a < m.shared().size(); ++a) {
    memory.push_back(m.shared().peek(a));
  }
  EXPECT_EQ(clean.memory, memory)
      << machine::to_string(v) << ": degraded run changed the answer";

  // The remapped thickness is published in the metrics registry and agrees
  // with the executor's own accounting.
  EXPECT_EQ(m.metrics().counter("resil/groups_retired").value(), 1u);
  EXPECT_EQ(m.metrics().counter("resil/remapped_thickness").value(),
            static_cast<std::uint64_t>(r.resil.remapped_thickness));
  EXPECT_EQ(m.metrics().counter("sched/groups_retired").value(), 1u);
}

// kFixedThickness (one group) deliberately excluded: killing the only group
// leaves no survivor, which is the fatal case tested separately below.
INSTANTIATE_TEST_SUITE_P(
    MultiGroupVariants, DegradeVariants,
    ::testing::Values(Variant::kSingleInstruction, Variant::kBalanced,
                      Variant::kMultiInstruction, Variant::kSingleOperation,
                      Variant::kConfigSingleOperation),
    [](const ::testing::TestParamInfo<Variant>& param) {
      std::string name = machine::to_string(param.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---- targeted recovery-path tests (single-instruction variant) ----

TEST(Resil, DroppedReplyRetriesWithExponentialBackoff) {
  FaultSpec spec;
  spec.seed = 3;
  spec.scripted.push_back({1, FaultKind::kNetDrop, 0});
  const ResilSnapshot clean = run_clean(Variant::kSingleInstruction);
  const ResilSnapshot got = run_resilient(Variant::kSingleInstruction, 1,
                                          spec, RecoverMode::kRollback);
  EXPECT_TRUE(got.result.run.completed);
  EXPECT_EQ(got.result.resil.retries, spec.retries);
  EXPECT_EQ(got.result.resil.rollbacks, 0u);
  // The backoff stretches the faulted step's memory term, so the run is
  // strictly slower than fault-free (the exact delta depends on how much of
  // the term the variant's cost model overlaps).
  EXPECT_GT(got.stats.cycles, clean.stats.cycles);
  EXPECT_EQ(clean.memory, got.memory);
  // The retry attempts are journaled with their individual backoffs.
  std::vector<Word> backoffs;
  for (const auto& e : got.journal) {
    if (e.kind == machine::DebugEventKind::kRetry) backoffs.push_back(e.b);
  }
  const std::vector<Word> expected = {8, 16, 32};
  EXPECT_EQ(backoffs, expected);
}

TEST(Resil, StallPastWatchdogEscalatesToRollback) {
  FaultSpec spec;
  spec.seed = 4;
  spec.stall_cycles = 512;   // every draw (1x..8x) exceeds the watchdog
  spec.watchdog_cycles = 256;
  spec.scripted.push_back({1, FaultKind::kGroupStall, 2});
  const ResilSnapshot got = run_resilient(Variant::kSingleInstruction, 1,
                                          spec, RecoverMode::kRollback);
  EXPECT_TRUE(got.result.run.completed);
  EXPECT_EQ(got.result.resil.watchdog_escalations, 1u);
  EXPECT_GE(got.result.resil.rollbacks, 1u);
}

TEST(Resil, MemFailDegradeRetiresGroupAndBlocksAccess) {
  Machine m(base_cfg(Variant::kSingleInstruction, 1));
  m.load(program_for(Variant::kSingleInstruction));
  m.boot(1);
  ResilConfig rc;
  rc.spec.seed = 6;
  rc.spec.scripted.push_back({1, FaultKind::kMemFail, 2});
  rc.mode = RecoverMode::kDegrade;
  ResilientExecutor ex(m, rc);
  const ResilResult r = ex.run();
  EXPECT_FALSE(r.faulted) << r.fault_message;
  EXPECT_TRUE(r.run.completed);
  EXPECT_EQ(r.resil.mem_blocks_failed, 1u);
  EXPECT_EQ(r.resil.groups_retired, 1u);
  EXPECT_FALSE(m.group_alive(2));
  // The failed block's contents are gone: any later access faults loudly
  // instead of returning stale data.
  EXPECT_THROW(m.local(2).read(0), SimError);
}

// ---- Machine::retire_group edge cases ----
// The degrade building block itself, exercised directly: the shard
// supervisor (DESIGN.md §14) leans on exactly these properties when it
// retires a dead shard's groups.

// Retiring the highest-numbered group must work like any other: the
// least-loaded-survivor rehoming rule has no "next group" to fall off the
// end onto.
TEST(RetireGroup, HighestNumberedGroupRetiresAndRunCompletes) {
  Machine m(base_cfg(Variant::kSingleInstruction, 1));
  m.load(program_for(Variant::kSingleInstruction));
  m.boot(1);
  while (!m.done() && m.stats().steps < 2) m.step();
  ASSERT_FALSE(m.done());
  const GroupId last = m.config().groups - 1;
  m.retire_group(last);
  EXPECT_FALSE(m.group_alive(last));
  EXPECT_EQ(m.alive_groups(), m.config().groups - 1);
  const machine::RunResult r = m.run();
  EXPECT_TRUE(r.completed);
  for (Word i = 0; i < kN; ++i) {
    EXPECT_EQ(m.shared().peek(kC + static_cast<Addr>(i)), (3 * i + 1) + 7 * i);
  }
}

// Two groups dying "at the same step" are retired in ascending order (the
// supervisor sorts), and the result is identical no matter which order the
// deaths were detected in: both orders rehome onto the same survivors.
TEST(RetireGroup, TwoGroupsSameStepRetireDeterministically) {
  auto run_with_order = [](GroupId first, GroupId second) {
    Machine m(base_cfg(Variant::kSingleInstruction, 1));
    m.load(program_for(Variant::kSingleInstruction));
    m.boot(1);
    while (!m.done() && m.stats().steps < 2) m.step();
    // Ascending retire order is the canonical one; callers with unordered
    // death sets must sort first — this test pins that both sorted calls
    // land on the same machine state.
    m.retire_group(std::min(first, second));
    m.retire_group(std::max(first, second));
    const machine::RunResult r = m.run();
    EXPECT_TRUE(r.completed);
    std::vector<Word> memory;
    memory.reserve(m.shared().size());
    for (Addr a = 0; a < m.shared().size(); ++a) {
      memory.push_back(m.shared().peek(a));
    }
    return std::make_pair(memory, m.stats().cycles);
  };
  const auto a = run_with_order(1, 2);
  const auto b = run_with_order(2, 1);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// The last surviving group can never be retired: degrade-to-zero is refused
// loudly instead of wedging the machine with no group to run anything on.
TEST(RetireGroup, LastSurvivorRefusesToRetire) {
  Machine m(base_cfg(Variant::kSingleInstruction, 1));
  m.load(program_for(Variant::kSingleInstruction));
  m.boot(1);
  while (!m.done() && m.stats().steps < 2) m.step();
  m.retire_group(1);
  m.retire_group(2);
  m.retire_group(3);
  ASSERT_EQ(m.alive_groups(), 1u);
  EXPECT_THROW(m.retire_group(0), SimError);
  // The refusal is non-destructive: the survivor still finishes the run.
  EXPECT_TRUE(m.group_alive(0));
  EXPECT_TRUE(m.run().completed);
}

TEST(Resil, OffModeDiesOnFatalFault) {
  FaultSpec spec;
  spec.seed = 8;
  spec.scripted.push_back({1, FaultKind::kGroupKill, 1});
  const ResilSnapshot got = run_resilient(Variant::kSingleInstruction, 1,
                                          spec, RecoverMode::kOff);
  EXPECT_TRUE(got.result.faulted);
  EXPECT_FALSE(got.result.run.completed);
  EXPECT_NE(got.result.fault_message.find("recovery is off"),
            std::string::npos)
      << got.result.fault_message;
}

TEST(Resil, KillingLastSurvivorIsFatalInDegradeMode) {
  FaultSpec spec;
  spec.seed = 9;
  spec.scripted.push_back({1, FaultKind::kGroupKill, 0});
  const ResilSnapshot got = run_resilient(Variant::kFixedThickness, 1, spec,
                                          RecoverMode::kDegrade);
  EXPECT_TRUE(got.result.faulted);
  EXPECT_NE(got.result.fault_message.find("no surviving group"),
            std::string::npos)
      << got.result.fault_message;
}

// ---- injector unit tests ----

TEST(FaultInjector, ScheduleIsPureInSeedStepGroup) {
  const FaultSpec spec = default_spec_for_seed(42);
  FaultInjector a(spec, 4, 1 << 12);
  FaultInjector b(spec, 4, 1 << 12);
  for (StepId step = 0; step < 200; ++step) {
    const auto ea = a.pending(step);
    const auto eb = b.pending(step);
    ASSERT_EQ(ea.size(), eb.size()) << "step " << step;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].kind, eb[i].kind);
      EXPECT_EQ(ea[i].group, eb[i].group);
      EXPECT_EQ(ea[i].addr, eb[i].addr);
      EXPECT_EQ(ea[i].bit, eb[i].bit);
      EXPECT_EQ(ea[i].magnitude, eb[i].magnitude);
      EXPECT_EQ(ea[i].key, eb[i].key);
    }
    // Asking twice gives the same answer, the second time from the memo
    // when the step's random draws were all empty.
    EXPECT_EQ(a.pending(step).size(), ea.size());
  }
}

TEST(FaultInjector, ReplayedStepsRepeatTheirSchedule) {
  FaultSpec spec = default_spec_for_seed(42);
  // Script a fault onto a step whose random draws are all empty, inside
  // the window every pass below revisits.
  StepId quiet = 0;
  {
    FaultInjector probe(spec, 4, 1 << 12);
    for (StepId step = 30; step < 60 && quiet == 0; ++step) {
      if (probe.pending(step).empty()) quiet = step;
    }
  }
  ASSERT_NE(quiet, 0u) << "no quiet step in [30, 60)";
  spec.scripted.push_back({quiet, FaultKind::kGroupKill, 1});

  // Rollback-like visiting order: forward, back to 20, back to 0.
  FaultInjector replayed(spec, 4, 1 << 12);
  std::size_t random_events = 0;
  const std::pair<StepId, StepId> passes[] = {{0, 60}, {20, 90}, {0, 120}};
  for (const auto& [lo, hi] : passes) {
    for (StepId step = lo; step < hi; ++step) {
      const auto got = replayed.pending(step);
      const auto want = FaultInjector(spec, 4, 1 << 12).pending(step);
      ASSERT_EQ(got.size(), want.size()) << "step " << step;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].kind, want[i].kind) << "step " << step;
        EXPECT_EQ(got[i].step, want[i].step) << "step " << step;
        EXPECT_EQ(got[i].group, want[i].group) << "step " << step;
        EXPECT_EQ(got[i].addr, want[i].addr) << "step " << step;
        EXPECT_EQ(got[i].bit, want[i].bit) << "step " << step;
        EXPECT_EQ(got[i].magnitude, want[i].magnitude) << "step " << step;
        EXPECT_EQ(got[i].key, want[i].key) << "step " << step;
      }
      if (step == quiet) {
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0].kind, FaultKind::kGroupKill);
        EXPECT_EQ(got[0].group, 1u);
      } else {
        random_events += got.size();
      }
    }
  }
  EXPECT_GT(random_events, 0u) << "the schedule drew no random faults";

  // The scripted fault still fires once and then stays handled.
  const auto again = replayed.pending(quiet);
  ASSERT_EQ(again.size(), 1u);
  replayed.mark_fired(again[0]);
  EXPECT_TRUE(replayed.pending(quiet).empty());
}

TEST(FaultInjector, FiredEventsDoNotReArise) {
  FaultSpec spec;
  spec.seed = 1;
  spec.kill_rate = 0.5;  // plenty of occurrences in a few steps
  FaultInjector inj(spec, 4, 64);
  bool fired_any = false;
  for (StepId step = 0; step < 16; ++step) {
    for (const FaultEvent& ev : inj.pending(step)) {
      inj.mark_fired(ev);
      fired_any = true;
    }
    EXPECT_TRUE(inj.pending(step).empty()) << "step " << step;
  }
  EXPECT_TRUE(fired_any);
}

TEST(FaultInjector, DifferentSeedsGiveDifferentSchedules) {
  auto occurrences = [](std::uint64_t seed) {
    FaultInjector inj(default_spec_for_seed(seed), 4, 1 << 12);
    std::vector<std::uint64_t> keys;
    for (StepId step = 0; step < 300; ++step) {
      for (const FaultEvent& ev : inj.pending(step)) keys.push_back(ev.key);
    }
    return keys;
  };
  EXPECT_NE(occurrences(1), occurrences(2));
}

// ---- spec parser ----

TEST(FaultSpecParser, ParsesFullGrammar) {
  const FaultSpec s = parse_fault_spec(
      "seed=12,drop=0.25,delay=0.5,stall=0,memfail=1,flip=0.125,kill=0.0625,"
      "retries=5,backoff=4,delayc=32,stallc=128,watchdog=999,scrubc=2,"
      "at=7:flip:1234,at=9:kill:2");
  EXPECT_EQ(s.seed, 12u);
  EXPECT_DOUBLE_EQ(s.drop_rate, 0.25);
  EXPECT_DOUBLE_EQ(s.delay_rate, 0.5);
  EXPECT_DOUBLE_EQ(s.stall_rate, 0.0);
  EXPECT_DOUBLE_EQ(s.memfail_rate, 1.0);
  EXPECT_DOUBLE_EQ(s.flip_rate, 0.125);
  EXPECT_DOUBLE_EQ(s.kill_rate, 0.0625);
  EXPECT_EQ(s.retries, 5u);
  EXPECT_EQ(s.backoff_base, 4u);
  EXPECT_EQ(s.delay_cycles, 32u);
  EXPECT_EQ(s.stall_cycles, 128u);
  EXPECT_EQ(s.watchdog_cycles, 999u);
  EXPECT_EQ(s.scrub_cycles, 2u);
  ASSERT_EQ(s.scripted.size(), 2u);
  EXPECT_EQ(s.scripted[0].step, 7u);
  EXPECT_EQ(s.scripted[0].kind, FaultKind::kBitFlip);
  EXPECT_EQ(s.scripted[0].arg, 1234u);
  EXPECT_EQ(s.scripted[1].step, 9u);
  EXPECT_EQ(s.scripted[1].kind, FaultKind::kGroupKill);
  EXPECT_EQ(s.scripted[1].arg, 2u);
}

TEST(FaultSpecParser, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_spec("bogus=1"), SimError);
  EXPECT_THROW(parse_fault_spec("drop"), SimError);
  EXPECT_THROW(parse_fault_spec("drop=1.5"), SimError);
  EXPECT_THROW(parse_fault_spec("drop=-0.1"), SimError);
  EXPECT_THROW(parse_fault_spec("seed=abc"), SimError);
  EXPECT_THROW(parse_fault_spec("retries=17"), SimError);
  EXPECT_THROW(parse_fault_spec("at=5"), SimError);
  EXPECT_THROW(parse_fault_spec("at=5:meteor"), SimError);
  EXPECT_THROW(parse_fault_spec("at=x:kill:1"), SimError);
}

}  // namespace
}  // namespace tcfpn::resil
