// Flight recorder, checkpoint and time-travel tests (DESIGN.md §8).
//
// The central contract: a checkpoint taken at any step boundary, pushed
// through the binary serializer and restored into a *fresh* machine
// continues to a final state bit-identical to an uncheckpointed run. "Bit-identical" here means
// the shared-memory image, every MachineStats counter, the metrics snapshot
// (including float-valued accumulator fields) and the debug output; the
// strongest form compares the serialized bytes of the two final
// MachineStates, which also covers raw Welford terms and step samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "debug/checkpoint.hpp"
#include "debug/debugger.hpp"
#include "debug/recorder.hpp"
#include "machine/machine.hpp"
#include "machine/shapes.hpp"
#include "machine/state.hpp"
#include "obs/njson.hpp"
#include "tcf/builder.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::debug {
namespace {

using machine::Machine;
using machine::MachineConfig;
using machine::MachineState;
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

MachineConfig base_cfg(Variant v) {
  MachineConfig cfg;
  cfg.groups = v == Variant::kFixedThickness ? 1 : 4;
  cfg.slots_per_group = 8;
  cfg.shared_words = 1 << 12;
  cfg.local_words = 1 << 10;
  cfg.variant = v;
  cfg.balanced_bound = 8;
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

/// Everything the satellite asks to compare, plus the serialized state.
struct FinalSnapshot {
  bool completed = false;
  std::vector<Word> memory;
  MachineStats stats;
  metrics::MetricsSnapshot metrics;
  std::vector<Word> debug;
  std::vector<std::uint8_t> state_bytes;
};

FinalSnapshot finish(Machine& m) {
  const machine::RunResult run = m.run();
  FinalSnapshot s;
  s.completed = run.completed;
  s.memory.reserve(m.shared().size());
  for (Addr a = 0; a < m.shared().size(); ++a) {
    s.memory.push_back(m.shared().peek(a));
  }
  s.stats = m.stats();
  s.metrics = m.metrics_snapshot();
  s.debug = m.debug_output();
  s.state_bytes = serialize(m.save_state());
  return s;
}

void expect_identical(const FinalSnapshot& ref, const FinalSnapshot& got,
                      const std::string& what) {
  EXPECT_EQ(ref.completed, got.completed) << what;
  EXPECT_EQ(ref.memory, got.memory) << what << ": shared-memory image";
  EXPECT_TRUE(ref.stats == got.stats) << what << ": MachineStats";
  EXPECT_TRUE(ref.metrics == got.metrics) << what << ": metrics snapshot";
  EXPECT_EQ(ref.debug, got.debug) << what << ": debug output";
  EXPECT_EQ(ref.state_bytes, got.state_bytes)
      << what << ": serialized final MachineState";
}

/// Boots a variant, steps `k` committed steps, and returns the serialized
/// checkpoint (asserting the program was still mid-run at the snapshot).
std::vector<std::uint8_t> checkpoint_at(Variant v, std::uint64_t k) {
  Machine m(base_cfg(v));
  m.load(program_for(v));
  boot_for(v, m);
  while (m.stats().steps < k) {
    EXPECT_TRUE(m.step()) << to_string(v)
                          << ": program halted before checkpoint step " << k;
  }
  return serialize(m.save_state());
}

class CheckpointRoundTrip : public ::testing::TestWithParam<Variant> {};

// Snapshot at step k, restore, re-run to completion, compare to an
// uncheckpointed run.
TEST_P(CheckpointRoundTrip, BitIdenticalAfterRestore) {
  const Variant v = GetParam();

  Machine ref1(base_cfg(v));
  ref1.load(program_for(v));
  boot_for(v, ref1);
  const FinalSnapshot ref = finish(ref1);
  ASSERT_TRUE(ref.completed) << to_string(v);
  ASSERT_GE(ref.stats.steps, 2u) << to_string(v);
  // Mid-run snapshot point: the XMT fork kernel finishes in very few steps,
  // so derive k from the run length instead of pinning it.
  const std::uint64_t kSnapshotStep = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(3, ref.stats.steps - 1));

  const std::vector<std::uint8_t> bytes = checkpoint_at(v, kSnapshotStep);

  // The serializer round trip itself is bit-exact.
  const MachineState state = deserialize(bytes);
  EXPECT_EQ(bytes, serialize(state)) << to_string(v) << ": serializer";

  // Restore into a fresh, never-booted machine and run to completion.
  Machine m(base_cfg(v));
  m.load(program_for(v));
  m.restore_state(state);
  EXPECT_EQ(m.stats().steps, kSnapshotStep);
  expect_identical(ref, finish(m), std::string(to_string(v)) + ": restored");
}

// Acceptance: the debugger can goto an arbitrary step and back-step via
// checkpoint + replay, with restored state bit-identical to straight-line
// execution, on every variant.
TEST_P(CheckpointRoundTrip, DebuggerTimeTravelMatchesStraightLine) {
  const Variant v = GetParam();

  // Straight-line serialized state after exactly `target` committed steps.
  auto straight_line = [&](std::uint64_t target) {
    Machine m(base_cfg(v));
    m.load(program_for(v));
    boot_for(v, m);
    while (m.stats().steps < target && m.step()) {
    }
    EXPECT_EQ(m.stats().steps, target) << to_string(v);
    return serialize(m.save_state());
  };

  // Total steps of the full run, for picking travel targets.
  Machine probe(base_cfg(v));
  probe.load(program_for(v));
  boot_for(v, probe);
  probe.run();
  const StepId total = probe.stats().steps;
  ASSERT_GE(total, 2u) << to_string(v);
  const StepId mid = std::max<StepId>(1, total / 2);

  DebugSession dbg(base_cfg(v), program_for(v),
                   [&](Machine& m) { boot_for(v, m); },
                   RecorderConfig{.checkpoint_every = 2});
  std::ostringstream sink;

  dbg.run_to(mid, sink);
  EXPECT_EQ(dbg.current_step(), mid);
  EXPECT_EQ(serialize(dbg.machine().save_state()), straight_line(mid))
      << to_string(v) << ": goto " << mid;

  dbg.back(1, sink);
  EXPECT_EQ(dbg.current_step(), mid - 1);
  EXPECT_EQ(serialize(dbg.machine().save_state()), straight_line(mid - 1))
      << to_string(v) << ": back to " << mid - 1;

  // Forward again past where we have been, then jump straight to the end.
  dbg.run_to(total, sink);
  EXPECT_EQ(serialize(dbg.machine().save_state()), straight_line(total))
      << to_string(v) << ": goto end";

  // And all the way back to the post-boot checkpoint.
  dbg.run_to(0, sink);
  EXPECT_EQ(serialize(dbg.machine().save_state()), straight_line(0))
      << to_string(v) << ": goto 0";
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, CheckpointRoundTrip,
    ::testing::Values(Variant::kSingleInstruction, Variant::kBalanced,
                      Variant::kMultiInstruction, Variant::kSingleOperation,
                      Variant::kConfigSingleOperation,
                      Variant::kFixedThickness),
    [](const ::testing::TestParamInfo<Variant>& param) {
      std::string name = to_string(param.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---- serializer and restore guard rails ----

TEST(CheckpointFormat, RejectsCorruptInput) {
  Machine m(base_cfg(Variant::kSingleInstruction));
  m.load(program_for(Variant::kSingleInstruction));
  m.boot(1);
  std::vector<std::uint8_t> bytes = serialize(m.save_state());

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(deserialize(bad_magic), SimError);

  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 8);
  EXPECT_THROW(deserialize(truncated), SimError);

  std::vector<std::uint8_t> trailing = bytes;
  trailing.insert(trailing.end(), 8, 0);
  EXPECT_THROW(deserialize(trailing), SimError);
}

TEST(CheckpointFormat, RestoreChecksFingerprints) {
  Machine m(base_cfg(Variant::kSingleInstruction));
  m.load(program_for(Variant::kSingleInstruction));
  m.boot(1);
  const MachineState state = m.save_state();

  // Different semantic configuration: the CRCW policy is fingerprinted.
  MachineConfig other_cfg = base_cfg(Variant::kSingleInstruction);
  other_cfg.crcw = mem::CrcwPolicy::kCommon;
  Machine other(other_cfg);
  other.load(program_for(Variant::kSingleInstruction));
  EXPECT_THROW(other.restore_state(state), SimError);

  // Different program: the instruction stream is fingerprinted.
  Machine prog(base_cfg(Variant::kSingleInstruction));
  prog.load(program_for(Variant::kMultiInstruction));
  EXPECT_THROW(prog.restore_state(state), SimError);

  // profile is an observation knob, not semantics: no fault.
  MachineConfig profiled_cfg = base_cfg(Variant::kSingleInstruction);
  profiled_cfg.profile = true;
  Machine profiled(profiled_cfg);
  profiled.load(program_for(Variant::kSingleInstruction));
  EXPECT_NO_THROW(profiled.restore_state(state));
}

// The heterogeneous per-group config is semantics — per-group T_p changes
// buffer capacity, clocks and fills change every step's cost, NUMA rows
// change the memory term — so it must be part of the config fingerprint and
// a checkpoint must not restore across a shape change (DESIGN.md §12).
TEST(CheckpointFormat, RestoreChecksHeterogeneousShapeFingerprint) {
  MachineConfig shaped_cfg = base_cfg(Variant::kSingleInstruction);
  machine::apply_shape(shaped_cfg, "fat-thin");
  Machine shaped(shaped_cfg);
  shaped.load(program_for(Variant::kSingleInstruction));
  shaped.boot(1);
  const MachineState state = shaped.save_state();

  // Same shape, an observation knob changed: restores (and round-trips the
  // serializer) fine.
  MachineConfig same_cfg = shaped_cfg;
  same_cfg.record_trace = true;
  Machine same(same_cfg);
  same.load(program_for(Variant::kSingleInstruction));
  EXPECT_NO_THROW(same.restore_state(deserialize(serialize(state))));

  // Uniform machine with identical groups/slots: the shape tag alone must
  // reject the restore.
  Machine uniform(base_cfg(Variant::kSingleInstruction));
  uniform.load(program_for(Variant::kSingleInstruction));
  EXPECT_THROW(uniform.restore_state(state), SimError);

  // A different shape (one clock multiplier moved): also rejected.
  MachineConfig other_cfg = shaped_cfg;
  other_cfg.group_specs[0].clock_num += 1;
  Machine other(other_cfg);
  other.load(program_for(Variant::kSingleInstruction));
  EXPECT_THROW(other.restore_state(state), SimError);

  // And the mirror image: a uniform checkpoint must not restore into a
  // shaped machine.
  Machine plain(base_cfg(Variant::kSingleInstruction));
  plain.load(program_for(Variant::kSingleInstruction));
  plain.boot(1);
  const MachineState plain_state = plain.save_state();
  Machine shaped2(shaped_cfg);
  shaped2.load(program_for(Variant::kSingleInstruction));
  EXPECT_THROW(shaped2.restore_state(plain_state), SimError);
}

// ---- fault capture and post-mortem ----

/// A program whose lane 0 stores beyond shared memory: an "addr" fault.
isa::Program oob_store_program(Word shared_words) {
  tcf::AsmBuilder s;
  using namespace tcf;
  s.ldi(r1, 7);
  s.ldi(r2, shared_words + 5);
  s.st(r1, r2);
  s.halt();
  return s.build();
}

TEST(PostMortem, FaultCapturedAndDocumentValid) {
  const MachineConfig cfg = base_cfg(Variant::kSingleInstruction);
  DebugSession dbg(cfg, oob_store_program(cfg.shared_words),
                   [](Machine& m) { m.boot(1); });
  std::ostringstream sink;
  dbg.break_on_fault();
  dbg.continue_run(sink);

  ASSERT_TRUE(dbg.faulted());
  const auto& fault = dbg.recorder().fault();
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->fault_class, "addr");

  ASSERT_TRUE(dbg.post_mortem_doc().has_value());
  obs::JsonValue v;
  std::string err;
  EXPECT_TRUE(obs::parse_json(*dbg.post_mortem_doc(), &v, &err)) << err;
  EXPECT_NE(dbg.post_mortem_doc()->find("tcfpn-postmortem-v1"),
            std::string::npos);

  // Time travel off the fault: back-step restores a consistent pre-fault
  // state, and re-running reproduces the same fault deterministically.
  const StepId died_at = dbg.current_step();
  dbg.back(1, sink);
  EXPECT_FALSE(dbg.faulted());
  EXPECT_EQ(dbg.current_step(), died_at - 1);
  dbg.continue_run(sink);
  EXPECT_TRUE(dbg.faulted());
  EXPECT_EQ(dbg.recorder().fault()->fault_class, "addr");
}

TEST(PostMortem, FaultClassifier) {
  EXPECT_EQ(classify_fault("EREW violation: concurrent reads of address 96"),
            "policy");
  EXPECT_EQ(classify_fault("division by zero in flow 3"), "arith");
  EXPECT_EQ(classify_fault("store to address 70000 out of range"), "addr");
  EXPECT_EQ(classify_fault("divergent branch inside a bunch"), "flow");
  EXPECT_EQ(classify_fault("something unexpected"), "other");
  EXPECT_EQ(parse_fault_flow("division by zero in flow 3"), 3u);
  const auto addr = parse_fault_address("read at address 96 conflicts");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(*addr, 96u);
}

}  // namespace
}  // namespace tcfpn::debug
