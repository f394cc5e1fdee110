// Tests for the AsmBuilder (label fixups, operand forms) and the kernel
// generators (each Section 4 program style produces correct results on its
// machine variant).
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "machine/machine.hpp"
#include "tcf/builder.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::tcf {
namespace {

TEST(Builder, ForwardAndBackwardLabels) {
  AsmBuilder s;
  auto fwd = s.make_label("fwd");
  auto back = s.make_label("back");
  s.bind(back);
  s.ldi(r1, 1);
  s.beqz(r0, fwd);  // forward reference
  s.jmp(back);      // backward reference
  s.bind(fwd);
  s.halt();
  const auto p = s.build();
  EXPECT_EQ(p.code[1].imm, 3);
  EXPECT_EQ(p.code[2].imm, 0);
  EXPECT_EQ(p.label("fwd"), 3u);
}

TEST(Builder, UnboundLabelFaultsAtBuild) {
  AsmBuilder s;
  auto l = s.make_label();
  s.jmp(l);
  EXPECT_THROW(s.build(), SimError);
}

TEST(Builder, DoubleBindFaults) {
  AsmBuilder s;
  auto l = s.make_label();
  s.bind(l);
  EXPECT_THROW(s.bind(l), SimError);
}

TEST(Builder, ImmediateRangeChecked) {
  AsmBuilder s;
  EXPECT_THROW(s.ldi(r1, Word{1} << 40), SimError);
  EXPECT_THROW(s.setthick(Word{-2}), SimError);
}

TEST(Builder, MemoryOpcodesValidated) {
  AsmBuilder s;
  EXPECT_THROW(s.mp(isa::Opcode::kAdd, r1, r2, 0, false), SimError);
  EXPECT_THROW(s.pp(isa::Opcode::kMpAdd, r1, r2, r3, 0, false), SimError);
}

TEST(Builder, DataInitsCarryThrough) {
  AsmBuilder s;
  s.data(100, {1, 2, 3});
  s.halt();
  const auto p = s.build();
  ASSERT_EQ(p.data.size(), 1u);
  EXPECT_EQ(p.data[0].addr, 100u);
}

TEST(Builder, HereTracksAddresses) {
  AsmBuilder s;
  EXPECT_EQ(s.here(), 0u);
  s.nop();
  s.nop();
  EXPECT_EQ(s.here(), 2u);
}

// ---- kernels on their machine variants ----

machine::MachineConfig cfg4() {
  machine::MachineConfig cfg;
  cfg.groups = 4;
  cfg.slots_per_group = 8;
  cfg.shared_words = 1 << 14;
  cfg.local_words = 1 << 10;
  return cfg;
}

isa::Program with_data(isa::Program p, Addr base,
                       const std::vector<Word>& words) {
  p.data.push_back({base, words});
  return p;
}

std::vector<Word> iota_vec(Word n, Word start) {
  std::vector<Word> v(n);
  for (Word i = 0; i < n; ++i) v[i] = start + i;
  return v;
}

class VecAddStyles : public ::testing::TestWithParam<Word> {};

TEST_P(VecAddStyles, EsmLoopCorrectForAnySize) {
  const Word n = GetParam();
  auto p = with_data(
      with_data(kernels::vecadd_esm_loop(n, 100, 400, 700), 100,
                iota_vec(n, 0)),
      400, iota_vec(n, 50));
  auto cfg = cfg4();
  cfg.variant = machine::Variant::kSingleOperation;
  machine::Machine m(cfg);
  m.load(p);
  kernels::boot_esm_threads(m, 0, 16);
  ASSERT_TRUE(m.run().completed);
  for (Word i = 0; i < n; ++i) {
    ASSERT_EQ(m.shared().peek(700 + i), 2 * i + 50) << "element " << i;
  }
}

TEST_P(VecAddStyles, AllStylesAgree) {
  const Word n = GetParam();
  const Addr a = 100, b = 500, c = 900;
  const auto av = iota_vec(n, 1), bv = iota_vec(n, 100);
  auto seed = [&](isa::Program p) {
    return with_data(with_data(std::move(p), a, av), b, bv);
  };
  auto check = [&](machine::Machine& m, const char* what) {
    for (Word i = 0; i < n; ++i) {
      ASSERT_EQ(m.shared().peek(c + i), av[i] + bv[i])
          << what << " element " << i;
    }
  };

  {
    auto cfg = cfg4();
    machine::Machine m(cfg);
    m.load(seed(kernels::vecadd_tcf(n, a, b, c)));
    m.boot(1);
    ASSERT_TRUE(m.run().completed);
    check(m, "tcf");
  }
  {
    auto cfg = cfg4();
    cfg.variant = machine::Variant::kSingleOperation;
    machine::Machine m(cfg);
    m.load(seed(kernels::vecadd_esm_loop(n, a, b, c)));
    kernels::boot_esm_threads(m, 0, 16);
    ASSERT_TRUE(m.run().completed);
    check(m, "esm");
  }
  {
    auto cfg = cfg4();
    cfg.variant = machine::Variant::kMultiInstruction;
    machine::Machine m(cfg);
    m.load(seed(kernels::vecadd_fork(n, a, b, c)));
    m.boot(1);
    ASSERT_TRUE(m.run().completed);
    check(m, "fork");
  }
  {
    auto cfg = cfg4();
    cfg.variant = machine::Variant::kFixedThickness;
    cfg.groups = 1;
    machine::Machine m(cfg);
    m.load(seed(kernels::vecadd_simd(n, 8, a, b, c)));
    m.boot(8);
    ASSERT_TRUE(m.run().completed);
    check(m, "simd");
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, VecAddStyles,
                         ::testing::Values(1, 7, 8, 16, 37, 64, 100),
                         [](const auto& inf) {
                           return "n" + std::to_string(inf.param);
                         });

TEST(CondKernels, SplitVsMaskedVsEsmAgree) {
  const Word n = 24;
  const Addr a = 100, b = 300, c = 600;
  const auto av = iota_vec(n, 10), bv = iota_vec(n, 20);
  auto expected = [&](Word i) {
    return i < n / 2 ? av[i] + bv[i] : 0;
  };
  auto seed = [&](isa::Program p) {
    return with_data(with_data(std::move(p), a, av), b, bv);
  };
  {
    machine::Machine m(cfg4());
    m.load(seed(kernels::cond_split_tcf(n, a, b, c)));
    m.boot(1);
    ASSERT_TRUE(m.run().completed);
    for (Word i = 0; i < n; ++i) {
      EXPECT_EQ(m.shared().peek(c + i), expected(i)) << "tcf elem " << i;
    }
  }
  {
    auto cfg = cfg4();
    cfg.variant = machine::Variant::kFixedThickness;
    cfg.groups = 1;
    machine::Machine m(cfg);
    m.load(seed(kernels::cond_masked_simd(n, 8, a, b, c)));
    m.boot(8);
    ASSERT_TRUE(m.run().completed);
    for (Word i = 0; i < n; ++i) {
      EXPECT_EQ(m.shared().peek(c + i), expected(i)) << "simd elem " << i;
    }
  }
  {
    auto cfg = cfg4();
    cfg.variant = machine::Variant::kSingleOperation;
    machine::Machine m(cfg);
    m.load(seed(kernels::cond_esm(n, a, b, c)));
    kernels::boot_esm_threads(m, 0, n);
    ASSERT_TRUE(m.run().completed);
    for (Word i = 0; i < n; ++i) {
      EXPECT_EQ(m.shared().peek(c + i), expected(i)) << "esm elem " << i;
    }
  }
  {
    auto cfg = cfg4();
    machine::Machine m(cfg);
    m.load(seed(kernels::cond_split_tcf(n, a, b, c)));
    m.boot(1);
    ASSERT_TRUE(m.run().completed);
    for (Word i = 0; i < n; ++i) {
      EXPECT_EQ(m.shared().peek(c + i), expected(i)) << "tcf elem " << i;
    }
  }
}

TEST(ScanKernels, TcfAndForkStylesMatch) {
  const Word n = 16;
  // TCF style, in place with guard.
  auto cfg = cfg4();
  machine::Machine m1(cfg);
  m1.load(kernels::scan_doubling_tcf(n, 64));
  for (Word i = 0; i < n; ++i) m1.shared().poke(64 + i, i + 1);
  m1.boot(1);
  ASSERT_TRUE(m1.run().completed);

  // Fork style with ping-pong buffers (guards at 48..63 and 112..127).
  auto cfg2 = cfg4();
  cfg2.variant = machine::Variant::kMultiInstruction;
  machine::Machine m2(cfg2);
  m2.load(kernels::scan_doubling_fork(n, 64, 128, 10));
  for (Word i = 0; i < n; ++i) m2.shared().poke(64 + i, i + 1);
  m2.boot(1);
  ASSERT_TRUE(m2.run().completed);
  const Addr final_base = static_cast<Addr>(m2.shared().peek(10));

  for (Word i = 0; i < n; ++i) {
    EXPECT_EQ(m2.shared().peek(final_base + i), m1.shared().peek(64 + i))
        << "element " << i;
  }
  // XMT pays a join barrier per doubling round.
  EXPECT_GE(m2.stats().joins, 4u);  // log2(16) rounds
}

TEST(PrefixKernels, EsmLoopTotalMatchesTcf) {
  const Word n = 40;
  const Addr src = 100, dst = 200, sum = 50;
  auto seed = [&](machine::Machine& m) {
    for (Word i = 0; i < n; ++i) m.shared().poke(src + i, i + 1);
  };
  auto cfg = cfg4();
  machine::Machine m1(cfg);
  m1.load(kernels::prefix_tcf(n, src, dst, sum));
  seed(m1);
  m1.boot(1);
  ASSERT_TRUE(m1.run().completed);

  auto cfg2 = cfg4();
  cfg2.variant = machine::Variant::kSingleOperation;
  machine::Machine m2(cfg2);
  m2.load(kernels::prefix_esm_loop(n, src, dst, sum));
  seed(m2);
  kernels::boot_esm_threads(m2, 0, 16);
  ASSERT_TRUE(m2.run().completed);

  // Totals are interleaving-independent; per-element prefixes are only
  // defined for the single-multiprefix (TCF) version.
  EXPECT_EQ(m1.shared().peek(sum), n * (n + 1) / 2);
  EXPECT_EQ(m2.shared().peek(sum), n * (n + 1) / 2);
}

TEST(Fig3Kernel, StructureExecutes) {
  auto cfg = cfg4();
  machine::Machine m(cfg);
  m.load(kernels::fig3_blocks());
  m.boot(1);
  ASSERT_TRUE(m.run().completed);
  EXPECT_EQ(m.stats().spawns, 2u);
  // Work: 2x23 + 3x15 + 3x12 + 3x3 + 8x8 payload ops, plus control.
  EXPECT_GE(m.stats().operations, 2 * 23 + 3 * 15 + 3 * 12 + 3 * 3 + 8 * 8u);
}

TEST(ThicknessScript, FollowsSequence) {
  auto cfg = cfg4();
  machine::Machine m(cfg);
  m.load(kernels::thickness_script({1, 8, 2, 5}, 2));
  m.boot(1);
  ASSERT_TRUE(m.run().completed);
  // 4 SETTHICKs + 8 payload instructions + halt.
  EXPECT_EQ(m.stats().tcf_instructions, 13u);
  EXPECT_EQ(m.stats().operations, 4u + 2 * (1 + 8 + 2 + 5) + 1u);
}

TEST(LowTlpKernels, NumaFasterThanPramForSequentialCode) {
  // Fig. 6 / Fig. 11: a sequential section in a NUMA bunch avoids paying a
  // full machine step per instruction.
  const Word len = 64;
  auto cfg = cfg4();
  cfg.variant = machine::Variant::kConfigSingleOperation;
  machine::Machine numa(cfg);
  numa.load(kernels::low_tlp_numa(8, len));
  numa.boot(1);
  ASSERT_TRUE(numa.run().completed);

  auto cfg2 = cfg4();
  cfg2.variant = machine::Variant::kSingleOperation;
  machine::Machine pram(cfg2);
  pram.load(kernels::low_tlp_pram(len));
  kernels::boot_esm_threads(pram, 0, 1);
  ASSERT_TRUE(pram.run().completed);

  EXPECT_LT(numa.stats().cycles, pram.stats().cycles);
}

TEST(BootHelpers, EsmThreadsGetIdsAndCount) {
  auto cfg = cfg4();
  cfg.variant = machine::Variant::kSingleOperation;
  machine::Machine m(cfg);
  m.load(kernels::vecadd_esm_loop(4, 100, 200, 300));
  const auto ids = kernels::boot_esm_threads(m, 0, 5);
  ASSERT_EQ(ids.size(), 5u);
  EXPECT_EQ(m.peek_reg(ids[3], 0, 1), 3);
  EXPECT_EQ(m.peek_reg(ids[3], 0, 2), 5);
  // Round-robin placement over groups.
  EXPECT_EQ(m.find_flow(ids[0])->home, 0u);
  EXPECT_EQ(m.find_flow(ids[1])->home, 1u);
  EXPECT_EQ(m.find_flow(ids[4])->home, 0u);
}

}  // namespace
}  // namespace tcfpn::tcf
