// Determinism tests for the stepping engine (DESIGN.md §4, §10.2): the
// cross-group effects of a step (deferred spawns, join notices, multiprefix
// tickets) land in group order, a faulting step still executes every group
// and shows nothing of the faulting group or the groups above it, and the
// telemetry documents and the RNG streams the simulator derives its
// schedules from are reproducible.
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
#include "obs/njson.hpp"
#include "tcf/builder.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::machine {
namespace {

constexpr Word kN = 48;
constexpr Addr kA = 100, kB = 400, kC = 700, kSum = 900;

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

MachineConfig base_cfg(Variant v) {
  MachineConfig cfg;
  cfg.groups = v == Variant::kFixedThickness ? 1 : 4;
  cfg.slots_per_group = 8;
  cfg.shared_words = 1 << 12;
  cfg.local_words = 1 << 10;
  cfg.variant = v;
  cfg.balanced_bound = 8;
  cfg.record_trace = true;
  return cfg;
}

class DeterminismTest : public ::testing::TestWithParam<Variant> {};

TEST_P(DeterminismTest, SpawnJoinPrefixSum) {
  Machine m(base_cfg(GetParam()));
  m.load(with_arrays(spawn_prefix_program()));
  m.boot(1);
  ASSERT_TRUE(m.run().completed);
  // The multiprefix result is the running sum over lanes in lane order.
  Word expect = 0;
  for (Word i = 0; i < kN; ++i) expect += 3 * i + 1;
  EXPECT_EQ(m.debug_output(), (std::vector<Word>{expect}));
}

INSTANTIATE_TEST_SUITE_P(
    TcfVariants, DeterminismTest,
    ::testing::Values(Variant::kSingleInstruction, Variant::kBalanced),
    [](const ::testing::TestParamInfo<Variant>& param_info) {
      std::string name = to_string(param_info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---- The fault rule of the step driver ----
//
// A group's fault stops the merging at the lowest faulting group, but
// every group still finishes executing its share of the faulting step.
// Group 1's flow therefore ran its instruction of step 2 when group 0's
// divide faulted.

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
  MachineConfig cfg = base_cfg(Variant::kSingleInstruction);
  cfg.groups = 2;
  Machine m(cfg);
  m.load(prog);
  m.boot_at(prog.label("a"), 1, 0);
  const FlowId b = m.boot_at(prog.label("b"), 1, 1);
  try {
    m.run();
    ADD_FAILURE() << "no fault";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("division by zero"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(m.find_flow(b)->pc, prog.label("b") + 2);
  EXPECT_EQ(m.peek_reg(b, 0, 1), 4);
}

// Group 0 merges as it finishes; group 1 prints, stores and then divides by
// zero in the same step, and group 2 runs after it: neither shows a print,
// a counted operation, a lane count or a journal event, and the faulting
// step commits nothing.
TEST(FaultRuleTest, FaultingGroupLeavesNoEffects) {
  const isa::Program prog = isa::assemble(R"(
      a: LDI r1, 9
         PRINT r1
         ST r1, [r0+10]
         HALT
      b: LDI r1, 7
         PRINT r1
         ST r1, [r0+11]
         DIV r2, r1, r0
         HALT
      c: LDI r1, 5
         PRINT r1
         ST r1, [r0+12]
         HALT
  )");
  MachineConfig cfg = base_cfg(Variant::kBalanced);
  cfg.groups = 3;
  cfg.balanced_bound = 16;
  debug::FlightRecorder rec(
      debug::RecorderConfig{/*journal_capacity=*/1 << 16,
                            /*checkpoint_every=*/0, /*max_checkpoints=*/1});
  Machine m(cfg);
  rec.attach(m);
  m.load(prog);
  m.boot_at(prog.label("a"), 1, 0);
  m.boot_at(prog.label("b"), 1, 1);
  m.boot_at(prog.label("c"), 1, 2);
  EXPECT_THROW(m.run(), SimError);
  EXPECT_EQ(m.debug_output(), (std::vector<Word>{9}));
  EXPECT_EQ(m.stats().operations, 4u);
  EXPECT_EQ(m.stats().steps, 0u);
  EXPECT_EQ(m.metrics().counter("mem/shared_writes").value(), 1u);
  for (const Addr a : {Addr{10}, Addr{11}, Addr{12}}) {
    EXPECT_EQ(m.shared().peek(a), 0) << a;
  }
  std::vector<Word> printed;
  for (const auto& e : rec.journal().entries()) {
    if (e.event.kind == DebugEventKind::kPrint) printed.push_back(e.event.a);
  }
  EXPECT_EQ(printed, (std::vector<Word>{9}));
}

// ---- Telemetry documents: valid JSON, subsystem coverage ----

class TelemetryTest : public ::testing::TestWithParam<Variant> {};

TEST_P(TelemetryTest, MetricsDocumentIsValid) {
  const Variant v = GetParam();
  MachineConfig cfg = base_cfg(v);
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
  const std::string doc = metrics_json_document(m, run, {{"tool", "test"}});
  obs::JsonValue parsed;
  std::string err;
  EXPECT_TRUE(obs::parse_json(doc, &parsed, &err)) << err;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TelemetryTest,
    ::testing::Values(Variant::kSingleInstruction, Variant::kBalanced,
                      Variant::kMultiInstruction, Variant::kSingleOperation,
                      Variant::kConfigSingleOperation,
                      Variant::kFixedThickness),
    [](const ::testing::TestParamInfo<Variant>& param_info) {
      std::string name = to_string(param_info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(TelemetryTest, TraceJsonIsValidAndCoversEverySubsystem) {
  MachineConfig cfg = base_cfg(Variant::kSingleInstruction);
  cfg.record_trace = true;
  cfg.profile_host = true;
  Machine m(cfg);
  m.load(with_arrays(spawn_prefix_program()));
  m.boot(1);
  const RunResult run = m.run();
  ASSERT_TRUE(run.completed);

  const std::string doc = trace_json_document(m, {{"tool", "test"}});
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::parse_json(doc, &v, &err)) << err;
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
