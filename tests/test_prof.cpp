// Attribution profiler tests (DESIGN.md §11).
//
// The two load-bearing invariants:
//
//  1. Cycles conserve: with cfg.profile on, the sum of every profile cell
//     equals MachineStats::cycles exactly — on every variant, under fault
//     injection, and through checkpoint/replay. The step tape accounts for
//     the same clock: one record per step, and its step costs plus the
//     cycles charged outside a step record sum to MachineStats::cycles.
//  2. Profiles are deterministic: cells accumulate per GroupCtx and merge
//     at the step barrier in group order, so a rollback replay or a
//     debugger back-step rebuilds the straight-line profile exactly.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "debug/checkpoint.hpp"
#include "debug/debugger.hpp"
#include "machine/machine.hpp"
#include "machine/telemetry.hpp"
#include "prof/profile.hpp"
#include "prof/report.hpp"
#include "resil/recovery.hpp"
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

/// SPAWN / JOINALL / PPADD / PRINT: exercises the cross-group charges
/// (spawn dispatch, join wakes, task switches) the profiler must attribute.
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
  s.bind(worker);
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
  cfg.profile = true;
  return cfg;
}

/// Cycles the clock carries outside the step records: task switches,
/// explicit scheduler charges, and the multi-instruction phase's join and
/// dispatch costs.
Cycle off_tape_cycles(const Machine& m) {
  const auto snap = m.metrics_snapshot();
  Cycle c = m.stats().task_switch_cycles;
  for (const char* path : {"sched/charged_cycles", "machine/join_cycles",
                           "machine/spawn_cycles"}) {
    const auto it = snap.entries.find(path);
    if (it != snap.entries.end()) c += it->second.count;
  }
  return c;
}

/// The profile accounts for the clock both ways: every cycle lands in
/// exactly one cell, and the step tape holds one record per step whose
/// step costs, plus the off-tape charges, sum to the clock.
void expect_accounts_for_clock(const prof::Profile& p, const MachineStats& st,
                               Cycle off_tape) {
  EXPECT_EQ(p.attributed(), st.cycles);
  EXPECT_EQ(p.steps.size(), st.steps);
  Cycle on_tape = 0;
  for (const prof::StepRecord& r : p.steps) on_tape += prof::step_cost(r);
  EXPECT_EQ(on_tape + off_tape, st.cycles);
}

struct ProfRun {
  prof::Profile profile;
  MachineStats stats;
  Cycle off_tape = 0;  ///< off_tape_cycles of the finished machine
  bool completed = false;
};

/// Runs the canonical per-variant program with profiling on.
ProfRun run_variant(Variant v) {
  Machine m(base_cfg(v));
  switch (v) {
    case Variant::kSingleInstruction:
    case Variant::kBalanced:
      m.load(with_arrays(spawn_prefix_program()));
      m.boot(1);
      break;
    case Variant::kMultiInstruction:
      m.load(with_arrays(tcf::kernels::vecadd_fork(kN, kA, kB, kC)));
      m.boot(1);
      break;
    case Variant::kSingleOperation:
    case Variant::kConfigSingleOperation:
      m.load(with_arrays(tcf::kernels::vecadd_esm_loop(kN, kA, kB, kC)));
      tcf::kernels::boot_esm_threads(m, m.program().entry(), 16);
      break;
    case Variant::kFixedThickness:
      m.load(with_arrays(tcf::kernels::vecadd_simd(kN, 16, kA, kB, kC)));
      m.boot(16);
      break;
  }
  const RunResult run = m.run();
  ProfRun r;
  r.profile = m.profile();
  r.stats = m.stats();
  r.off_tape = off_tape_cycles(m);
  r.completed = run.completed;
  return r;
}

// ---- apportion: the deterministic largest-remainder splitter ----

TEST(Apportion, SharesSumExactlyToTotal) {
  const std::vector<Cycle> weights{3, 1, 5, 7, 2};
  for (Cycle total : {Cycle{1}, Cycle{17}, Cycle{18}, Cycle{1000003}}) {
    const auto shares = prof::apportion(total, weights);
    ASSERT_EQ(shares.size(), weights.size());
    Cycle sum = 0;
    for (Cycle s : shares) sum += s;
    EXPECT_EQ(sum, total) << "total=" << total;
  }
}

TEST(Apportion, ProportionalWhenDivisible) {
  const auto shares = prof::apportion(20, {1, 2, 3, 4});
  EXPECT_EQ(shares, (std::vector<Cycle>{2, 4, 6, 8}));
}

TEST(Apportion, RemainderGoesToLargestFraction) {
  // 10 over {1, 1, 3}: floors are 2, 2, 6; remainders identical for the two
  // 1-weights, so the leftover 0 units change nothing; with total 11 the
  // floors are 2,2,6 (sum 10) and the extra unit goes to the largest
  // fractional remainder — weight 3 (33/5 = 6.6).
  EXPECT_EQ(prof::apportion(11, {1, 1, 3}), (std::vector<Cycle>{2, 2, 7}));
}

TEST(Apportion, TiesResolveToLowerIndex) {
  // 3 over {1, 1}: floors 1,1, leftover 1, equal remainders — lower index.
  EXPECT_EQ(prof::apportion(3, {1, 1}), (std::vector<Cycle>{2, 1}));
  // Zero-weight bins never receive units.
  EXPECT_EQ(prof::apportion(5, {0, 1}), (std::vector<Cycle>{0, 5}));
}

// ---- step classification ----

TEST(StepClassify, FourWayTaxonomy) {
  using prof::StepLimit;
  prof::StepRecord r;
  r.slot = 8;
  r.work = 8;
  EXPECT_EQ(prof::classify(r), StepLimit::kCompute);
  r.work = 3;  // slot capacity exceeded the recorded work: barrier wait
  EXPECT_EQ(prof::classify(r), StepLimit::kIdle);
  r.net = 12;  // network bound stretched the body past the slot term
  EXPECT_EQ(prof::classify(r), StepLimit::kNet);
  r.fault = 9;  // fault delay stretched it past max(slot, net)
  EXPECT_EQ(prof::classify(r), StepLimit::kFault);
  EXPECT_EQ(prof::step_cost(r), r.fill + r.net + r.fault);
}

// ---- conservation across variants ----

class ProfDeterminismTest : public ::testing::TestWithParam<Variant> {};

TEST_P(ProfDeterminismTest, CyclesConserve) {
  const Variant v = GetParam();
  const ProfRun ref = run_variant(v);
  ASSERT_TRUE(ref.completed);
  ASSERT_FALSE(ref.profile.cells.empty());
  SCOPED_TRACE(to_string(v));
  expect_accounts_for_clock(ref.profile, ref.stats, ref.off_tape);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ProfDeterminismTest,
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

// ---- conservation under fault injection ----

/// Runs the spawn/prefix program on `m` under `spec` with rollback
/// recovery; the run must complete.
resil::ResilResult run_faulted(Machine& m, const char* spec) {
  m.load(with_arrays(spawn_prefix_program()));
  m.boot(1);
  resil::ResilConfig rc;
  rc.spec = resil::parse_fault_spec(spec);
  rc.mode = resil::RecoverMode::kRollback;
  resil::ResilientExecutor ex(m, rc);
  const resil::ResilResult r = ex.run();
  EXPECT_FALSE(r.faulted) << r.fault_message;
  EXPECT_TRUE(r.run.completed);
  return r;
}

TEST(ProfFaultInjection, ConservesAndChargesTheFaultTerm) {
  Machine m(base_cfg(Variant::kSingleInstruction));
  const resil::ResilResult r = run_faulted(m, "seed=5,delay=0.2,delayc=16");
  ASSERT_GT(r.resil.faults_injected, 0u) << "fault spec injected nothing";

  // Conservation holds through injected delays and any rollbacks: the
  // profile is checkpointed and restored together with the clock.
  expect_accounts_for_clock(m.profile(), m.stats(), off_tape_cycles(m));

  // Injected delays land in the fault term. The profile charges the clock
  // extension a delay actually caused — max(slot, fault+bound) −
  // max(slot, bound) — so it is bounded by the network's fault-delay
  // counter (which records the *requested* delay cycles; a delay hidden
  // under the slot term costs nothing).
  const Cycle fault_cycles = m.profile().term_total(prof::Term::kFault);
  EXPECT_GT(fault_cycles, 0u);
  const auto snap = m.metrics_snapshot();
  const auto it = snap.entries.find("net/fault_delay_cycles");
  ASSERT_NE(it, snap.entries.end());
  EXPECT_LE(fault_cycles, it->second.count);

  // A stall and drop schedule that rolls back: the tape is rewound with
  // the clock, so it still accounts for every cycle.
  Machine rolled(base_cfg(Variant::kSingleInstruction));
  const resil::ResilResult rr =
      run_faulted(rolled, "seed=9,stall=0.05,drop=0.05,retries=2");
  ASSERT_GT(rr.resil.rollbacks, 0u) << "fault spec never rolled back";
  expect_accounts_for_clock(rolled.profile(), rolled.stats(),
                            off_tape_cycles(rolled));
}

// ---- planted slowdown shows up as the hotspot ----

TEST(ProfHotspots, PlantedHotLoopIsNamedByPcRange) {
  // pc 0: ldi, pc 1: ldi, pc 2..4: the hot loop (add/sub/bnez, 64 rounds),
  // pc 5: print, pc 6: halt.
  tcf::AsmBuilder s;
  using namespace tcf;
  auto loop = s.make_label("loop");
  s.ldi(r1, 64);
  s.ldi(r2, 0);
  s.bind(loop);
  s.add(r2, r2, Word{1});
  s.sub(r1, r1, Word{1});
  s.bnez(r1, loop);
  s.print(r2);
  s.halt();

  MachineConfig cfg = base_cfg(Variant::kSingleInstruction);
  Machine m(cfg);
  m.load(s.build());
  m.boot(1);
  const RunResult run = m.run();
  ASSERT_TRUE(run.completed);
  EXPECT_EQ(m.profile().attributed(), m.stats().cycles);

  const prof::RunInfo info =
      profile_run_info(m, run, "hotloop", {{"tool", "test"}});
  const std::string report =
      prof::report_hotspots(m.profile(), info, prof::HotspotBy::kPc, 3);
  // The three loop PCs dominate and coalesce into one range row.
  EXPECT_NE(report.find("pc 2-4"), std::string::npos) << report;
}

// ---- equal keys in one step fold before apportionment ----

// Balanced bound 16 over one thickness-1 countdown loop per group: every
// step each flow meets each loop pc about eight times, and the groups' 32
// operations share a 16-cycle slot term, so the slot term is apportioned
// over bins that met the same key many times. It must be shared per key,
// not per visit: these are the cells a per-key accumulation gives. Unfolded
// unit bins hand every remainder to group 0 (200 and 200 cycles there,
// 1 and 1 on group 1) and still conserve the run's cycles.
TEST(ProfBins, EqualKeysInOneStepFoldBeforeApportionment) {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto loop = s.make_label("loop");
  s.ldi(r1, 200);
  s.bind(loop);
  s.sub(r1, r1, Word{1});
  s.bnez(r1, loop);
  s.halt();
  const isa::Program program = s.build();

  // (group, flow, pc) -> compute cycles.
  using Cell = std::tuple<std::int64_t, std::int64_t, std::int64_t>;
  const std::map<Cell, Cycle> want = {
      {{0, 0, 0}, 1},   {{0, 0, 1}, 100}, {{0, 0, 2}, 101}, {{0, 0, 3}, 1},
      {{1, 1, 1}, 100}, {{1, 1, 2}, 100}, {{1, 1, 3}, 1},
  };
  MachineConfig cfg;
  cfg.groups = 2;
  cfg.slots_per_group = 8;
  cfg.shared_words = 1 << 10;
  cfg.variant = Variant::kBalanced;
  cfg.balanced_bound = 16;
  cfg.profile = true;
  Machine m(cfg);
  m.load(program);
  m.boot_at(m.program().entry(), 1, 0);
  m.boot_at(m.program().entry(), 1, 1);
  ASSERT_TRUE(m.run().completed);
  const prof::Profile& p = m.profile();
  EXPECT_EQ(m.stats().cycles, 520u);
  EXPECT_EQ(p.attributed(), 520u);
  EXPECT_EQ(p.term_total(prof::Term::kFill), 104u);
  EXPECT_EQ(p.term_total(prof::Term::kIdle), 12u);
  std::map<Cell, Cycle> flow_cells;
  for (const auto& [k, c] : p.cells) {
    if (k.flow == prof::kNoIndex) continue;
    EXPECT_EQ(k.term, prof::Term::kCompute);
    flow_cells.emplace(Cell{k.group, k.flow, k.pc}, c);
  }
  EXPECT_EQ(flow_cells, want);
}

// ---- what-if re-costing ----

TEST(ProfWhatIf, ParsesAndRecosts) {
  prof::WhatIf w;
  EXPECT_TRUE(prof::parse_what_if("net:0.5x", &w));
  EXPECT_EQ(w.term, prof::Term::kNet);
  EXPECT_DOUBLE_EQ(w.factor, 0.5);
  EXPECT_TRUE(prof::parse_what_if("term=compute:2", &w));
  EXPECT_EQ(w.term, prof::Term::kCompute);
  EXPECT_FALSE(prof::parse_what_if("idle:0.5x", &w));  // not scalable
  EXPECT_FALSE(prof::parse_what_if("net:junk", &w));

  const ProfRun r = run_variant(Variant::kSingleInstruction);
  ASSERT_TRUE(r.completed);
  // Identity multipliers reproduce the run exactly.
  EXPECT_EQ(prof::what_if_cycles(r.profile, r.stats.cycles,
                                 {{prof::Term::kNet, 1.0}}),
            r.stats.cycles);
  // Free network can only help, and never below the slot+fill floor.
  const std::optional<Cycle> no_net = prof::what_if_cycles(
      r.profile, r.stats.cycles, {{prof::Term::kNet, 0.0}});
  ASSERT_TRUE(no_net.has_value());
  EXPECT_LE(*no_net, r.stats.cycles);
  EXPECT_GT(*no_net, 0u);
}

// A prediction between 2^63 and 2^64 cycles still fits a Cycle and prints
// as its value; one past 2^64 prints as out of range, in the per-term and
// the combined line alike, never as a wrapped count.
TEST(ProfWhatIf, HugeFactorsConvertOrLeaveTheCycleRange) {
  const ProfRun r = run_variant(Variant::kSingleInstruction);
  ASSERT_TRUE(r.completed);
  Cycle slot = 0;
  for (const prof::StepRecord& s : r.profile.steps) slot += s.slot;
  ASSERT_GT(slot, 0u);
  // The scaled slot terms alone sum to 1.5 * 2^63; the unscaled rest of
  // the run adds at most its own cycles.
  const double scaled = 1.5 * 9223372036854775808.0;
  const double f = scaled / static_cast<double>(slot);
  prof::RunInfo info;
  info.program = "huge";
  info.cycles = r.stats.cycles;
  const std::string report = prof::report_steps(
      r.profile, info,
      {{prof::Term::kCompute, f}, {prof::Term::kCompute, 4 * f}});

  std::vector<std::string> lines;  // the what-if lines, in order
  std::istringstream in(report);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("what-if ", 0) == 0) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u) << report;
  const std::size_t arrow = lines[0].find("-> ");
  ASSERT_NE(arrow, std::string::npos) << lines[0];
  const Cycle got = std::stoull(lines[0].substr(arrow + 3));
  EXPECT_NEAR(static_cast<double>(got), scaled,
              1e-9 * scaled + static_cast<double>(r.stats.cycles))
      << lines[0];
  const std::string range =
      "-> out of the 64-bit cycle range (2^64 cycles or more)";
  EXPECT_NE(lines[1].find(range), std::string::npos) << lines[1];
  EXPECT_EQ(lines[2], "what-if combined " + range);
}

// A factor of 1e6 or more prints in %g form, one short token; below that
// the two-decimal form stays, so existing "net:0.50x" lines do not move.
TEST(ProfWhatIf, HugeFactorsPrintCompactly) {
  const ProfRun r = run_variant(Variant::kSingleInstruction);
  ASSERT_TRUE(r.completed);
  prof::RunInfo info;
  info.program = "compact";
  info.cycles = r.stats.cycles;
  const std::string report = prof::report_steps(
      r.profile, info,
      {{prof::Term::kCompute, 1e300}, {prof::Term::kNet, 0.5},
       {prof::Term::kFill, 999999.5}, {prof::Term::kFault, 1234567.0}});
  std::vector<std::string> lines;
  std::istringstream in(report);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("what-if ", 0) == 0) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 5u) << report;
  EXPECT_EQ(lines[0].rfind("what-if compute:1e+300x -> ", 0), 0u) << lines[0];
  EXPECT_LT(lines[0].size(), 100u) << lines[0];
  EXPECT_EQ(lines[1].rfind("what-if net:0.50x -> ", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("what-if fill:999999.50x -> ", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3].rfind("what-if fault:1.23457e+06x -> ", 0), 0u)
      << lines[3];
}

// ---- folded stacks + JSON export ----

TEST(ProfExport, FoldedLinesAndJsonConserve) {
  const ProfRun r = run_variant(Variant::kBalanced);
  ASSERT_TRUE(r.completed);
  prof::RunInfo info;
  info.program = "prog name;semi";  // exercises sanitization
  info.steps = r.stats.steps;
  info.cycles = r.stats.cycles;

  Cycle folded_sum = 0;
  for (const std::string& line : prof::folded_lines(r.profile, info)) {
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    folded_sum += std::stoull(line.substr(space + 1));
    // Root frame is the sanitized program name.
    EXPECT_EQ(line.rfind("prog_name_semi;", 0), 0u) << line;
  }
  EXPECT_EQ(folded_sum, r.stats.cycles);

  const std::string json = prof::report_json(r.profile, info);
  EXPECT_NE(json.find("\"schema\": \"tcfpn-profile-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"attributed_cycles\": " +
                      std::to_string(r.stats.cycles)),
            std::string::npos);

  const std::string html = prof::report_html(r.profile, info);
  EXPECT_NE(html.find("<html"), std::string::npos);
  EXPECT_NE(html.find("prog_name_semi"), std::string::npos);
}

// ---- checkpoint round trip ----

TEST(ProfCheckpoint, ProfileSurvivesSerializeAndReplayMatches) {
  MachineConfig cfg = base_cfg(Variant::kSingleInstruction);

  // Reference: straight-line run to completion.
  Machine ref(cfg);
  ref.load(with_arrays(spawn_prefix_program()));
  ref.boot(1);
  ASSERT_TRUE(ref.run().completed);

  // Checkpoint mid-run, serialize, restore into a fresh machine, finish.
  Machine a(cfg);
  a.load(with_arrays(spawn_prefix_program()));
  a.boot(1);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(a.step());
  const auto bytes = debug::serialize(a.save_state());
  const MachineState state = debug::deserialize(bytes);
  EXPECT_EQ(state.profile, a.profile());

  Machine b(cfg);
  b.load(with_arrays(spawn_prefix_program()));
  b.restore_state(state);
  EXPECT_EQ(b.profile(), a.profile());
  ASSERT_TRUE(b.run().completed);
  EXPECT_EQ(b.profile(), ref.profile());
  EXPECT_EQ(b.profile().attributed(), b.stats().cycles);
}

// ---- time travel: replayed profile equals the straight-line profile ----

TEST(ProfTimeTravel, BackAndReplayReproducesTheProfile) {
  MachineConfig cfg = base_cfg(Variant::kSingleInstruction);

  Machine ref(cfg);
  ref.load(with_arrays(spawn_prefix_program()));
  ref.boot(1);
  ASSERT_TRUE(ref.run().completed);

  debug::DebugSession session(
      cfg, with_arrays(spawn_prefix_program()),
      [](Machine& m) { m.boot(1); },
      debug::RecorderConfig{.journal_capacity = 1 << 16,
                            .checkpoint_every = 4},
      {{"tool", "test_prof"}});
  std::ostringstream out;
  session.continue_run(out);
  const prof::Profile first = session.machine().profile();
  EXPECT_EQ(first, ref.profile());

  // Travel back and replay forward: the restored profile resumes from the
  // checkpoint and re-accumulates to the same table.
  session.back(5, out);
  session.continue_run(out);
  EXPECT_EQ(session.machine().profile(), first);
  EXPECT_EQ(session.machine().profile().attributed(),
            session.machine().stats().cycles);
}

// ---- the step tape: frozen chunks shared between copies ----

prof::StepRecord tape_record(std::uint64_t i) {
  prof::StepRecord r;
  r.step = i;
  r.limit_group = static_cast<std::int64_t>(i % 5) - 1;
  r.fill = i % 3;
  r.slot = 2 * i + 1;
  r.net = i % 7;
  r.fault = i % 11 == 0 ? i : 0;
  r.work = i / 2;
  return r;
}

prof::StepTape tape_of(std::size_t n) {
  prof::StepTape t;
  for (std::size_t i = 0; i < n; ++i) t.push_back(tape_record(i));
  return t;
}

void expect_tape_prefix(const prof::StepTape& t, std::size_t n) {
  ASSERT_EQ(t.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(t[i], tape_record(i)) << "record " << i << " of " << n;
  }
  std::size_t i = 0;
  for (const prof::StepRecord& r : t) EXPECT_EQ(r, tape_record(i++));
  EXPECT_EQ(i, n);
}

TEST(StepTape, CopiesKeepTheirRecordsWhileTheOriginalGrows) {
  constexpr std::size_t kChunk = prof::StepTape::kChunk;
  const std::size_t marks[] = {0, kChunk - 1, kChunk, kChunk + 1,
                               3 * kChunk + 5};
  prof::StepTape tape;
  std::vector<prof::StepTape> copies;
  const std::size_t total = 6 * kChunk + 3;
  for (std::size_t i = 0; i < total; ++i) {
    for (std::size_t m : marks) {
      if (i == m) copies.push_back(tape);
    }
    tape.push_back(tape_record(i));
  }
  ASSERT_EQ(copies.size(), std::size(marks));
  for (std::size_t k = 0; k < copies.size(); ++k) {
    SCOPED_TRACE(marks[k]);
    expect_tape_prefix(copies[k], marks[k]);
  }
  expect_tape_prefix(tape, total);

  // A copy that grows on its own leaves the original (and its shared
  // frozen chunks) untouched.
  prof::StepTape fork = copies[3];
  for (std::size_t i = 0; i < 2 * kChunk; ++i) {
    prof::StepRecord r = tape_record(fork.size());
    r.work += 1000;
    fork.push_back(r);
  }
  EXPECT_EQ(fork[kChunk + 1].work, tape_record(kChunk + 1).work + 1000);
  expect_tape_prefix(tape, total);
  expect_tape_prefix(copies[3], kChunk + 1);
}

TEST(StepTape, EqualRecordsCompareEqualHoweverBuilt) {
  constexpr std::size_t kChunk = prof::StepTape::kChunk;
  const std::size_t n = 2 * kChunk + 44;
  // Two tapes grown from copies of one prefix share its frozen chunk and
  // freeze their later chunks apart; a third is built in one go.
  const prof::StepTape prefix = tape_of(kChunk + 2);
  prof::StepTape a = prefix;
  prof::StepTape b = prefix;
  for (std::size_t i = prefix.size(); i < n; ++i) {
    a.push_back(tape_record(i));
    b.push_back(tape_record(i));
  }
  const prof::StepTape straight = tape_of(n);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, straight);
  EXPECT_EQ(straight, b);
  EXPECT_EQ(prof::StepTape{}, tape_of(0));

  // Differences are seen in a frozen chunk, in the tail and in the length.
  prof::StepTape early;
  prof::StepTape late;
  for (std::size_t i = 0; i < n; ++i) {
    prof::StepRecord r = tape_record(i);
    early.push_back(i == 5 ? prof::StepRecord{} : r);
    late.push_back(i == n - 1 ? prof::StepRecord{} : r);
  }
  EXPECT_NE(straight, early);
  EXPECT_NE(straight, late);
  EXPECT_NE(straight, tape_of(n - 1));
  EXPECT_NE(straight, tape_of(n + 1));
}

TEST(StepTape, RoundTripsThroughTheCheckpointFormat) {
  MachineState s;
  s.profile.steps = tape_of(2 * prof::StepTape::kChunk + 17);
  s.profile.steps_truncated = true;
  const auto bytes = debug::serialize(s);
  const MachineState back = debug::deserialize(bytes);
  EXPECT_EQ(back.profile, s.profile);
  EXPECT_EQ(debug::serialize(back), bytes);
}

// ---- rollback recovery replays to the straight-line profile ----

/// A 300-iteration LD/ADD/ST loop over a per-lane window: long enough for
/// the step tape to span many chunks and for a sparse schedule to roll
/// back several times.
isa::Program ld_add_st_loop() {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto loop = s.make_label("loop");
  s.ldi(r1, 300);
  s.ldi(r2, static_cast<Word>(kA));
  s.bind(loop);
  s.ld(r3, r2, 0, /*lane=*/true);
  s.add(r3, r3, Word{1});
  s.st(r3, r2, 0, /*lane=*/true);
  s.sub(r1, r1, Word{1});
  s.bnez(r1, loop);
  s.halt();
  return s.build();
}

TEST(ProfRollback, RollbackOnlyScheduleKeepsTheStraightLineProfile) {
  for (Variant v : {Variant::kSingleInstruction, Variant::kBalanced}) {
    SCOPED_TRACE(to_string(v));
    const MachineConfig cfg = base_cfg(v);
    Machine ref(cfg);
    ref.load(with_arrays(ld_add_st_loop()));
    ref.boot(kN);
    ASSERT_TRUE(ref.run().completed);
    ASSERT_GT(ref.profile().steps.size(), 2 * prof::StepTape::kChunk);

    Machine m(cfg);
    m.load(with_arrays(ld_add_st_loop()));
    m.boot(kN);
    resil::ResilConfig rc;
    // Only kinds that roll back: no transient charges, so the replayed
    // run must end with exactly the fault-free profile.
    rc.spec =
        resil::parse_fault_spec("seed=3,flip=0.004,kill=0.004,memfail=0.002");
    rc.mode = resil::RecoverMode::kRollback;
    resil::ResilientExecutor ex(m, rc);
    const resil::ResilResult r = ex.run();
    ASSERT_FALSE(r.faulted) << r.fault_message;
    ASSERT_TRUE(r.run.completed);
    EXPECT_GE(r.resil.rollbacks, 3u);
    EXPECT_EQ(m.profile().cells, ref.profile().cells);
    EXPECT_EQ(m.profile().steps, ref.profile().steps);
    EXPECT_EQ(m.profile().steps.size(), m.stats().steps);
  }
}

// ---- profile document plumbing ----

TEST(ProfTelemetry, DocumentCarriesRunMetadata) {
  MachineConfig cfg = base_cfg(Variant::kBalanced);
  Machine m(cfg);
  m.load(with_arrays(spawn_prefix_program()));
  m.boot(1);
  const RunResult run = m.run();
  ASSERT_TRUE(run.completed);
  const std::string doc = profile_json_document(
      m, run, "spawn_prefix", {{"tool", "test_prof"}});
  EXPECT_NE(doc.find("\"tool\": \"test_prof\""), std::string::npos);
  EXPECT_NE(doc.find("\"variant\": \"balanced\""), std::string::npos);
  EXPECT_NE(doc.find("\"cycles\": " + std::to_string(m.stats().cycles)),
            std::string::npos);
}

}  // namespace
}  // namespace tcfpn::machine
