// Conformance-harness tests: checked-in corpus replay, generator
// determinism and well-formedness, a differential smoke sweep, shrinker
// self-tests against deliberately mis-implemented oracle semantics, and
// direct regressions for the machine bugs the fuzzer found.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/check.hpp"
#include "conformance/corpus.hpp"
#include "conformance/diff.hpp"
#include "conformance/gen.hpp"
#include "conformance/oracle.hpp"
#include "conformance/shrink.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"

namespace tcfpn::conformance {
namespace {

// ----- checked-in corpus ---------------------------------------------------

TEST(Corpus, ReplayAgreesWithOracle) {
  const auto files = corpus_files(TCFPN_CORPUS_DIR);
  ASSERT_GE(files.size(), 15u) << "regression corpus shrank";
  for (const auto& path : files) {
    const DiffCase c = load_case(path);
    ASSERT_FALSE(c.lanes.empty()) << path;
    const auto div = run_differential(c, DiffOptions{});
    EXPECT_FALSE(div.has_value())
        << path << ": " << (div ? div->lane + ": " + div->detail : "");
  }
}

TEST(Corpus, CoversEveryVariantAndPolicy) {
  std::set<machine::Variant> variants;
  std::set<mem::CrcwPolicy> error_policies;
  for (const auto& path : corpus_files(TCFPN_CORPUS_DIR)) {
    const DiffCase c = load_case(path);
    for (const auto& lane : c.lanes) variants.insert(lane.variant);
    if (c.expect_error) error_policies.insert(c.policy);
  }
  EXPECT_EQ(variants.size(), 6u) << "every machine variant must be exercised";
  // One expected-SimError entry per policy that can fault on a program
  // (Common/CREW/EREW access violations, plus runtime faults under the
  // always-legal Arbitrary/Priority write rules).
  EXPECT_EQ(error_policies.size(), 5u);
}

TEST(Corpus, RoundTripsThroughSerializer) {
  for (const auto& path : corpus_files(TCFPN_CORPUS_DIR)) {
    const DiffCase c = load_case(path);
    const DiffCase back = parse_case(serialize_case(c));
    EXPECT_EQ(back.program.code.size(), c.program.code.size()) << path;
    EXPECT_EQ(back.boot_thickness, c.boot_thickness) << path;
    EXPECT_EQ(back.boot_flows, c.boot_flows) << path;
    EXPECT_EQ(back.policy, c.policy) << path;
    EXPECT_EQ(back.expect_error, c.expect_error) << path;
    EXPECT_EQ(back.lanes.size(), c.lanes.size()) << path;
    const auto div = run_differential(back, DiffOptions{});
    EXPECT_FALSE(div.has_value()) << path;
  }
}

// A malformed header is a corpus error, not a crash or an internal check.
struct BadHeader {
  const char* name;
  const char* header;
};
class CorpusErrors : public ::testing::TestWithParam<BadHeader> {};
TEST_P(CorpusErrors, RejectsWithACorpusError) {
  const std::string text = std::string("; tcffuzz corpus v1\n") +
                           GetParam().header + "\n  HALT\n";
  try {
    (void)parse_case(text);
    FAIL() << "accepted: " << GetParam().header;
  } catch (const SimError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("corpus: ", 0), 0u) << e.what();
  }
}
INSTANTIATE_TEST_SUITE_P(
    Cases, CorpusErrors,
    ::testing::Values(
        BadHeader{"balanced_abc", "; lanes: balanced:abc"},
        BadHeader{"balanced_zero", "; lanes: balanced:0"},
        BadHeader{"balanced_past_uint32", "; lanes: balanced:99999999999"},
        BadHeader{"thickness_zz",
                  "; boot: thickness=zz flows=1 esm=0\n"
                  "; lanes: single-instruction/aligned"}),
    [](const auto& inf) { return std::string(inf.param.name); });

// ----- generator -----------------------------------------------------------

TEST(Generator, SameSeedSameProgram) {
  for (std::uint64_t seed : {1u, 7u, 123u, 4096u}) {
    GenOptions opt;
    opt.seed = seed;
    const auto a = serialize_case(to_case(generate(opt)));
    const auto b = serialize_case(to_case(generate(opt)));
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST(Generator, ProgramsAreWellFormed) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    GenOptions opt;
    opt.seed = seed;
    const GenProgram gp = generate(opt);
    const Materialized m = materialize(gp);
    ASSERT_FALSE(m.program.code.empty()) << "seed " << seed;
    for (const auto& in : m.program.code) {
      EXPECT_LT(in.rd, isa::kNumRegisters) << "seed " << seed;
      EXPECT_LT(in.ra, isa::kNumRegisters) << "seed " << seed;
      EXPECT_LT(in.rb, isa::kNumRegisters) << "seed " << seed;
    }
    const Profile p = profile_of(gp);
    EXPECT_LE(p.max_thickness, kMaxThickness) << "seed " << seed;
    EXPECT_FALSE(lanes_for(p, gp).empty()) << "seed " << seed;
    // Every generated program disassembles into a parseable corpus entry.
    const DiffCase c = to_case(gp);
    EXPECT_NO_THROW((void)parse_case(serialize_case(c))) << "seed " << seed;
  }
}

TEST(Generator, DifferentialSmoke) {
  const DiffOptions opt;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    GenOptions gopt;
    gopt.seed = seed;
    const auto div = run_differential(generate(gopt), opt);
    EXPECT_FALSE(div.has_value())
        << "seed " << seed << ": "
        << (div ? div->lane + ": " + div->detail : "");
  }
}

// ----- shrinker self-tests -------------------------------------------------
// Mis-implement one oracle rule, fuzz until the differential notices, then
// require the shrinker to hand back a reproducer of at most 12 instructions
// (the acceptance bound for minimized corpus entries).

void expect_injected_bug_shrinks(const DiffOptions& broken) {
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    GenOptions gopt;
    gopt.seed = seed;
    const GenProgram gp = generate(gopt);
    const auto div = run_differential(gp, broken);
    if (!div) continue;
    const ShrinkResult r = shrink(gp, *div, broken);
    const DiffCase c = to_case(r.program);
    EXPECT_LE(c.program.code.size(), 12u)
        << "seed " << seed << " shrank to " << c.program.code.size()
        << " instructions";
    // The minimized program must still diverge under the broken oracle...
    EXPECT_TRUE(run_differential(c, broken).has_value());
    // ...and must pass cleanly against the correct oracle (it documents an
    // oracle bug, not a machine bug).
    EXPECT_FALSE(run_differential(c, DiffOptions{}).has_value());
    return;
  }
  FAIL() << "no seed tripped the injected oracle bug";
}

TEST(Shrinker, MinimizesCommonCrcwCheckBug) {
  DiffOptions opt;
  opt.oracle_skip_common = true;
  expect_injected_bug_shrinks(opt);
}

TEST(Shrinker, MinimizesMultiprefixOrderBug) {
  DiffOptions opt;
  opt.oracle_reverse_prefix = true;
  expect_injected_bug_shrinks(opt);
}

// ----- regressions for fuzzer-found machine bugs ---------------------------

// Seed 25: commit_writes() returned early on write-free steps, so the EREW
// concurrent-read check never ran when a step only loaded.
TEST(Regression, ErewConcurrentReadsFaultInWriteFreeStep) {
  machine::MachineConfig cfg;
  cfg.crcw = mem::CrcwPolicy::kErew;
  machine::Machine m(cfg);
  m.load(isa::assemble(R"(
    TID r1
    LD r7, [r0+103]
    HALT
  )"));
  m.shared().poke(103, 9);
  m.boot(2);
  EXPECT_THROW(m.run(), SimError);
}

// Same step, same lane: an EREW lane may re-read its own cell and
// read-modify-write it — only *distinct* lanes conflict.
TEST(Regression, ErewSameLaneReadModifyWriteIsLegal) {
  machine::MachineConfig cfg;
  cfg.crcw = mem::CrcwPolicy::kErew;
  machine::Machine m(cfg);
  m.load(isa::assemble(R"(
    TID r1
    LD r7, [r0+1024+@]
    ADD r7, r7, 1
    ST r7, [r0+1024+@]
    HALT
  )"));
  m.boot(4);
  const auto run = m.run();
  EXPECT_TRUE(run.completed);
  for (Word i = 0; i < 4; ++i) EXPECT_EQ(m.shared().peek(1024 + i), 1);
}

// Seed 5222: the XMT (multi-instruction) per-lane multiprefix wrote rd
// before reading the rb contribution, so rd == rb aliasing contributed the
// stale cell value.
TEST(Regression, XmtMultiprefixRdRbAliasContributesBeforeResult) {
  machine::MachineConfig cfg;
  cfg.variant = machine::Variant::kMultiInstruction;
  machine::Machine m(cfg);
  m.load(isa::assemble(R"(
    LDI r5, 18
    PPOR r5, r5, [r0+33]
    LD r6, [r0+33]
    ST r6, [r0+1024]
    HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(33), 18);
  EXPECT_EQ(m.shared().peek(1024), 18);
  EXPECT_EQ(m.shared().peek(33) & ~18, 0);
}

// Same-key rewrites inside one commit are program-ordered (last wins) and
// invisible to the CRCW policy — Common must not fault on 1-then-2.
TEST(Regression, SameKeyRewriteIsOrderedAndPolicyInvisible) {
  machine::MachineConfig cfg;
  cfg.crcw = mem::CrcwPolicy::kCommon;
  cfg.variant = machine::Variant::kBalanced;
  cfg.balanced_bound = 16;
  machine::Machine m(cfg);
  m.load(isa::assemble(R"(
    LDI r4, 1
    ST r4, [r0+1024]
    LDI r4, 2
    ST r4, [r0+1024]
    HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(1024), 2);
}

// ----- oracle basics -------------------------------------------------------

TEST(Oracle, RunsEsmBootWithPokedIds)
{
  const auto prog = isa::assemble(R"(
    MPADD r1, [r0+32]
    BNEZ r1, 3
    PRINT r2
    HALT
  )");
  OracleOptions opt;
  const auto r = run_oracle(prog, 1, 4, true, opt);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.shared[32], 0 + 1 + 2 + 3);
  ASSERT_EQ(r.debug.size(), 1u);
  EXPECT_EQ(r.debug[0], 4);
}

TEST(Oracle, ReportsExpectedFaultClass) {
  const auto prog = isa::assemble(R"(
    TID r1
    DIV r5, r4, r0
    HALT
  )");
  OracleOptions opt;
  const auto r = run_oracle(prog, 2, 1, false, opt);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.faulted);
  EXPECT_EQ(fault_class(r.fault), "arith");
}

}  // namespace
}  // namespace tcfpn::conformance
