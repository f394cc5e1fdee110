// Differential determinism tests for the host-parallel stepping engine.
//
// The contract (DESIGN.md §4, machine/config.hpp): for any host_threads
// value the simulated machine is bit-identical — every MachineStats field,
// the final shared-memory image, the debug output and the step trace. These
// tests run the same program under every execution variant with 1, 2 and 8
// host threads and compare everything. They are the gate for the worker
// pool: any cross-group effect that leaks past the step barrier shows up
// here as a diff (and under TSan in CI as a race).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "debug/recorder.hpp"
#include "isa/assembler.hpp"
#include "machine/cost_model.hpp"
#include "machine/machine.hpp"
#include "machine/telemetry.hpp"
#include "tcf/builder.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::machine {
namespace {

constexpr Word kN = 48;
constexpr Addr kA = 100, kB = 400, kC = 700, kSum = 900;

/// Everything observable about a finished run.
struct Snapshot {
  MachineStats stats;
  std::vector<Word> memory;
  std::vector<Word> debug;
  std::string trace;
  metrics::MetricsSnapshot metrics;  ///< every registered instrument
  bool completed = false;
};

bool operator==(const Snapshot& x, const Snapshot& y) {
  return x.completed == y.completed && x.stats.cycles == y.stats.cycles &&
         x.stats.steps == y.stats.steps &&
         x.stats.tcf_instructions == y.stats.tcf_instructions &&
         x.stats.operations == y.stats.operations &&
         x.stats.instruction_fetches == y.stats.instruction_fetches &&
         x.stats.spawns == y.stats.spawns && x.stats.joins == y.stats.joins &&
         x.stats.busy_slots == y.stats.busy_slots &&
         x.stats.idle_slots == y.stats.idle_slots &&
         x.stats.memory_wait_cycles == y.stats.memory_wait_cycles &&
         x.stats.task_switch_cycles == y.stats.task_switch_cycles &&
         x.stats.branch_cost_cycles == y.stats.branch_cost_cycles &&
         x.memory == y.memory && x.debug == y.debug && x.trace == y.trace &&
         // MetricValue::operator== is defaulted, so the float-valued
         // accumulator fields (sum/mean/variance) compare bit-exactly —
         // any merge-order dependence in the metrics layer fails here.
         x.metrics == y.metrics;
}

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

/// SPAWN / JOINALL / PPADD / PRINT across groups: the cross-group effects
/// (deferred spawns, join notices, multiprefix tickets) all in one program.
isa::Program spawn_prefix_program() {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto worker = s.make_label("worker");
  s.ldi(r1, kN);
  s.spawn(r1, worker);
  s.joinall();
  s.ld(r2, r0, static_cast<Word>(kSum));
  s.print(r2);
  s.halt();
  s.bind(worker);  // fragment convention: r15 = base lane offset
  s.tid(r2);
  s.add(r2, r2, r15);
  s.add(r3, r2, static_cast<Word>(kA));
  s.ld(r4, r3);
  s.pp(isa::Opcode::kPpAdd, r5, r4, r0, static_cast<Word>(kSum));
  s.add(r6, r2, static_cast<Word>(kC));
  s.st(r5, r6);
  s.halt();
  return s.build();
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
  cfg.record_trace = true;
  return cfg;
}

/// Configures, boots and runs one variant; returns everything observable.
Snapshot run_variant(Variant v, std::uint32_t host_threads, bool spawn_heavy) {
  Machine m(base_cfg(v, host_threads));
  switch (v) {
    case Variant::kSingleInstruction:
    case Variant::kBalanced:
      if (spawn_heavy) {
        m.load(with_arrays(spawn_prefix_program()));
        m.boot(1);
      } else {
        m.load(with_arrays(tcf::kernels::vecadd_tcf(kN, kA, kB, kC)));
        m.boot(1);
      }
      break;
    case Variant::kMultiInstruction:
      m.load(with_arrays(tcf::kernels::vecadd_fork(kN, kA, kB, kC)));
      m.boot(1);
      break;
    case Variant::kSingleOperation:
    case Variant::kConfigSingleOperation: {
      m.load(with_arrays(tcf::kernels::vecadd_esm_loop(kN, kA, kB, kC)));
      tcf::kernels::boot_esm_threads(m, m.program().entry(), 16);
      break;
    }
    case Variant::kFixedThickness:
      m.load(with_arrays(tcf::kernels::vecadd_simd(kN, 16, kA, kB, kC)));
      m.boot(16);
      break;
  }
  const RunResult run = m.run();
  Snapshot s;
  s.completed = run.completed;
  s.stats = m.stats();
  s.memory.reserve(m.shared().size());
  for (Addr a = 0; a < m.shared().size(); ++a) {
    s.memory.push_back(m.shared().peek(a));
  }
  s.debug = m.debug_output();
  s.trace = m.trace().render();
  s.metrics = m.metrics_snapshot();
  return s;
}

class DeterminismTest : public ::testing::TestWithParam<Variant> {};

TEST_P(DeterminismTest, BitIdenticalAcrossHostThreads) {
  const Variant v = GetParam();
  const Snapshot one = run_variant(v, 1, /*spawn_heavy=*/false);
  ASSERT_TRUE(one.completed);
  EXPECT_TRUE(one == run_variant(v, 2, false)) << to_string(v) << " @2";
  EXPECT_TRUE(one == run_variant(v, 8, false)) << to_string(v) << " @8";
}

TEST_P(DeterminismTest, SpawnJoinPrefixBitIdentical) {
  const Variant v = GetParam();
  if (v != Variant::kSingleInstruction && v != Variant::kBalanced) {
    GTEST_SKIP() << "spawn/prefix program targets the TCF variants";
  }
  const Snapshot one = run_variant(v, 1, /*spawn_heavy=*/true);
  ASSERT_TRUE(one.completed);
  // The multiprefix result is the running sum over lanes in lane order.
  Word expect = 0;
  for (Word i = 0; i < kN; ++i) expect += 3 * i + 1;
  ASSERT_EQ(one.debug, (std::vector<Word>{expect}));
  EXPECT_TRUE(one == run_variant(v, 2, true)) << to_string(v) << " @2";
  EXPECT_TRUE(one == run_variant(v, 8, true)) << to_string(v) << " @8";
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, DeterminismTest,
    ::testing::Values(Variant::kSingleInstruction, Variant::kBalanced,
                      Variant::kMultiInstruction, Variant::kSingleOperation,
                      Variant::kConfigSingleOperation,
                      Variant::kFixedThickness),
    [](const ::testing::TestParamInfo<Variant>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(DeterminismTest, HostThreadsBeyondGroupsIsFine) {
  // More host threads than groups: the extra workers find no indices.
  const Snapshot one = run_variant(Variant::kSingleInstruction, 1, true);
  const Snapshot many = run_variant(Variant::kSingleInstruction, 16, true);
  EXPECT_TRUE(one == many);
}

/// Runs the spawn/join/prefix program with a flight recorder attached and
/// returns the full journal tape (the observer-visible event sequence).
std::vector<DebugEvent> journal_for(std::uint32_t host_threads,
                                    std::uint64_t* merge_skips) {
  debug::FlightRecorder rec(
      debug::RecorderConfig{/*journal_capacity=*/1 << 16,
                            /*checkpoint_every=*/0, /*max_checkpoints=*/1});
  Machine m(base_cfg(Variant::kSingleInstruction, host_threads));
  rec.attach(m);
  m.load(with_arrays(spawn_prefix_program()));
  m.boot(1);
  const RunResult run = m.run();
  EXPECT_TRUE(run.completed);
  *merge_skips = m.merge_skips();
  std::vector<DebugEvent> tape;
  for (const auto& e : rec.journal().entries()) tape.push_back(e.event);
  return tape;
}

// ---- Quiet-group fast path: taken, and invisible to the journal ----

TEST(MergeSkipTest, FastPathTakenAndTapeUnchanged) {
  // boot(1) places one flow on one group; the other groups are quiet every
  // step, so the fast path must actually fire — and the flight-recorder
  // tape (telemetry the skip could plausibly eat) must be the same at every
  // host-thread count.
  std::uint64_t ref_skips = 0;
  const std::vector<DebugEvent> ref = journal_for(1, &ref_skips);
  ASSERT_FALSE(ref.empty());
  EXPECT_GT(ref_skips, 0u);
  for (std::uint32_t ht : {2u, 8u}) {
    std::uint64_t skips = 0;
    EXPECT_EQ(ref, journal_for(ht, &skips)) << "@" << ht;
    EXPECT_EQ(skips, ref_skips) << "@" << ht;
  }
}

// ---- The fault rule of the merge loop ----
//
// A group-phase fault stops the merge at the lowest faulting group, but
// every group still finishes executing its share of the faulting step, at
// any host-thread count. Group 1's flow therefore ran its instruction of
// step 2 when group 0's divide faulted, and the surfaced error and group
// 1's post-fault flow state are the same at 1, 2 and 8 host threads.

TEST(FaultRuleTest, EveryGroupExecutesTheFaultingStep) {
  const isa::Program prog = isa::assemble(R"(
      a: LDI r1, 6
         DIV r2, r1, r0   ; step 2: r0 is zero
         HALT
      b: ADD r1, r1, 2
         ADD r1, r1, 2
         ADD r1, r1, 2
         HALT
  )");
  for (std::uint32_t ht : {1u, 2u, 8u}) {
    MachineConfig cfg = base_cfg(Variant::kSingleInstruction, ht);
    cfg.groups = 2;
    Machine m(cfg);
    m.load(prog);
    m.boot_at(prog.label("a"), 1, 0);
    const FlowId b = m.boot_at(prog.label("b"), 1, 1);
    try {
      m.run();
      ADD_FAILURE() << "no fault @" << ht;
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("division by zero"),
                std::string::npos)
          << e.what() << " @" << ht;
    }
    EXPECT_EQ(m.find_flow(b)->pc, prog.label("b") + 2) << "@" << ht;
    EXPECT_EQ(m.peek_reg(b, 0, 1), 4) << "@" << ht;
  }
}

// ---- Telemetry documents: valid JSON, deterministic, subsystem coverage ---

class TelemetryTest : public ::testing::TestWithParam<Variant> {};

TEST_P(TelemetryTest, MetricsDocumentIsValidAndThreadInvariant) {
  const Variant v = GetParam();
  auto doc_for = [&](std::uint32_t threads) {
    MachineConfig cfg = base_cfg(v, threads);
    cfg.sample_every = 4;
    Machine m(cfg);
    if (v == Variant::kSingleOperation ||
        v == Variant::kConfigSingleOperation) {
      m.load(with_arrays(tcf::kernels::vecadd_esm_loop(kN, kA, kB, kC)));
      tcf::kernels::boot_esm_threads(m, m.program().entry(), 16);
    } else if (v == Variant::kMultiInstruction) {
      m.load(with_arrays(tcf::kernels::vecadd_fork(kN, kA, kB, kC)));
      m.boot(1);
    } else if (v == Variant::kFixedThickness) {
      m.load(with_arrays(tcf::kernels::vecadd_simd(kN, 16, kA, kB, kC)));
      m.boot(16);
    } else {
      m.load(with_arrays(tcf::kernels::vecadd_tcf(kN, kA, kB, kC)));
      m.boot(1);
    }
    const RunResult run = m.run();
    EXPECT_TRUE(run.completed);
    return metrics_json_document(m, run, {{"tool", "test"}});
  };
  const std::string one = doc_for(1);
  std::string err;
  ASSERT_TRUE(metrics::json_valid(one, &err)) << err;
  // The whole document except the "host_threads" metadata line must be
  // byte-identical across host parallelism.
  auto strip = [](std::string s) {
    const auto pos = s.find("\"host_threads\"");
    if (pos != std::string::npos) {
      s.erase(pos, s.find('\n', pos) - pos);
    }
    return s;
  };
  EXPECT_EQ(strip(one), strip(doc_for(2))) << to_string(v) << " @2";
  EXPECT_EQ(strip(one), strip(doc_for(8))) << to_string(v) << " @8";
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TelemetryTest,
    ::testing::Values(Variant::kSingleInstruction, Variant::kBalanced,
                      Variant::kMultiInstruction, Variant::kSingleOperation,
                      Variant::kConfigSingleOperation,
                      Variant::kFixedThickness),
    [](const ::testing::TestParamInfo<Variant>& info) {
      std::string name = to_string(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(TelemetryTest, TraceJsonIsValidAndCoversEverySubsystem) {
  MachineConfig cfg = base_cfg(Variant::kSingleInstruction, 2);
  cfg.record_trace = true;
  cfg.profile_host = true;
  Machine m(cfg);
  m.load(with_arrays(spawn_prefix_program()));
  m.boot(1);
  const RunResult run = m.run();
  ASSERT_TRUE(run.completed);

  const std::string doc = trace_json_document(m, {{"tool", "test"}});
  std::string err;
  ASSERT_TRUE(metrics::json_valid(doc, &err)) << err;
  // At least one host-side span per instrumented subsystem, named with the
  // subsystem prefix, must appear in the trace.
  for (const char* span : {"\"machine/group_phase\"", "\"mem/commit_step\"",
                           "\"net/memory_term\"",
                           "\"sched/step_housekeeping\""}) {
    EXPECT_NE(doc.find(span), std::string::npos) << span;
  }
  // Simulated schedule spans ride along in process 0.
  EXPECT_NE(doc.find("\"flow 0\""), std::string::npos);
}

// ---- Rng reproducibility (the other half of run-to-run determinism) ----

TEST(RngDeterminism, ReseedReproducesTheStream) {
  tcfpn::Rng rng(1234);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 64; ++i) first.push_back(rng.next());
  rng.reseed(1234);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(rng.next(), first[i]) << i;
}

TEST(RngDeterminism, SplitStreamsAreStableAndDistinct) {
  tcfpn::Rng a(99), b(99);
  tcfpn::Rng sa = a.split(), sb = b.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(sa.next(), sb.next());
  // The parent stream and the split stream must not collide trivially.
  tcfpn::Rng c(99);
  tcfpn::Rng sc = c.split();
  EXPECT_NE(c.next(), sc.next());
}

// ---- Cycle-arithmetic regression: products of 32-bit config fields ----

TEST(CostModelWidth, TaskSwitchCostSurvives32BitOverflow) {
  MachineConfig cfg;
  cfg.variant = Variant::kSingleOperation;
  cfg.slots_per_group = 1u << 20;        // T_p
  cfg.registers_per_context = 1u << 13;  // R; product = 2^33 > uint32
  const Cycle c = task_switch_cost(cfg, /*thickness=*/1,
                                   /*resident_in_buffer=*/false);
  EXPECT_EQ(c, Cycle{1} << 33);
}

TEST(CostModelWidth, CachedLaneSwapCostSurvives32BitOverflow) {
  MachineConfig cfg;
  cfg.variant = Variant::kSingleInstruction;
  cfg.registers_per_context = 1u << 16;   // R
  cfg.register_cache_words = 1u << 31;    // cache holds 2^15 lanes
  const Word thickness = Word{1} << 20;   // more lanes than the cache
  const Cycle r = cfg.registers_per_context;
  const Cycle cached_lanes = Cycle{1} << 15;
  const Cycle c = task_switch_cost(cfg, thickness,
                                   /*resident_in_buffer=*/false);
  EXPECT_EQ(c, r + cached_lanes * r);  // 2^16 + 2^31: needs 64-bit math
}

}  // namespace
}  // namespace tcfpn::machine
