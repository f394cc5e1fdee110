// Cross-layer integration & property tests:
//  - the same computation through the TCF language and hand-built ISA
//    kernels must agree, across variants and topologies;
//  - randomized workloads (seeded) agree with sequential references;
//  - determinism: identical configs give identical cycle counts.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "conformance/oracle.hpp"
#include "isa/assembler.hpp"
#include "lang/codegen.hpp"
#include "machine/machine.hpp"
#include "tcf/builder.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn {
namespace {

machine::MachineConfig make_cfg(std::uint32_t groups,
                                net::TopologyKind topo) {
  machine::MachineConfig cfg;
  cfg.groups = groups;
  cfg.slots_per_group = 8;
  cfg.shared_words = 1 << 15;
  cfg.local_words = 1 << 10;
  cfg.topology = topo;
  return cfg;
}

// ---- randomized vecadd through three layers ----

class RandomVecAdd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomVecAdd, LanguageAndKernelAgree) {
  Rng rng(GetParam());
  const Word n = 1 + static_cast<Word>(rng.below(200));
  std::vector<Word> av(n), bv(n), want(n);
  for (Word i = 0; i < n; ++i) {
    av[i] = rng.range(-1000, 1000);
    bv[i] = rng.range(-1000, 1000);
    want[i] = av[i] + bv[i];
  }

  // Layer 1: ISA kernel on the machine.
  {
    machine::Machine m(make_cfg(4, net::TopologyKind::kMesh2D));
    m.load(tcf::kernels::vecadd_tcf(n, 1000, 3000, 5000));
    for (Word i = 0; i < n; ++i) {
      m.shared().poke(1000 + i, av[i]);
      m.shared().poke(3000 + i, bv[i]);
    }
    m.boot(1);
    ASSERT_TRUE(m.run().completed);
    for (Word i = 0; i < n; ++i) {
      ASSERT_EQ(m.shared().peek(5000 + i), want[i]) << "kernel layer, " << i;
    }
  }
  // Layer 2: the TCF language (source generated for this n), on two
  // machines.
  const std::string src = "array a[" + std::to_string(n) + "];" +
                          "array b[" + std::to_string(n) + "];" +
                          "array c[" + std::to_string(n) + "];" + "#" +
                          std::to_string(n) + "; c. = a. + b.;";
  const auto c2 = lang::compile_source(src);
  for (const auto& [groups, topo] :
       {std::pair{4u, net::TopologyKind::kMesh2D},
        std::pair{2u, net::TopologyKind::kRing}}) {
    machine::Machine m(make_cfg(groups, topo));
    m.load(c2.program);
    for (Word i = 0; i < n; ++i) {
      m.shared().poke(c2.buffer("a").at(i), av[i]);
      m.shared().poke(c2.buffer("b").at(i), bv[i]);
    }
    m.boot(1);
    ASSERT_TRUE(m.run().completed);
    for (Word i = 0; i < n; ++i) {
      ASSERT_EQ(m.shared().peek(c2.buffer("c").at(i)), want[i])
          << "language layer, " << groups << " groups, " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomVecAdd,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99),
                         [](const auto& inf) {
                           return "seed" + std::to_string(inf.param);
                         });

// ---- scan agreement across variants, randomized ----

class RandomScan : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomScan, VariantsMatchSequentialPrefix) {
  Rng rng(GetParam());
  const Word n = 8 << rng.below(5);  // 8..128, power of two
  std::vector<Word> xs(n), want(n);
  Word acc = 0;
  for (Word i = 0; i < n; ++i) {
    xs[i] = rng.range(-50, 50);
    acc += xs[i];
    want[i] = acc;
  }
  for (auto variant : {machine::Variant::kSingleInstruction,
                       machine::Variant::kBalanced}) {
    auto cfg = make_cfg(4, net::TopologyKind::kHypercube);
    cfg.variant = variant;
    cfg.balanced_bound = 8;
    machine::Machine m(cfg);
    m.load(tcf::kernels::scan_doubling_tcf(n, static_cast<Addr>(n)));
    for (Word i = 0; i < n; ++i) m.shared().poke(n + i, xs[i]);
    m.boot(1);
    ASSERT_TRUE(m.run().completed);
    for (Word i = 0; i < n; ++i) {
      ASSERT_EQ(m.shared().peek(n + i), want[i])
          << machine::to_string(variant) << " at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScan, ::testing::Values(7, 8, 9, 10),
                         [](const auto& inf) {
                           return "seed" + std::to_string(inf.param);
                         });

// ---- determinism across everything ----

struct DetCase {
  machine::Variant variant;
  net::TopologyKind topo;
  bool detailed_net;
};

class Determinism : public ::testing::TestWithParam<DetCase> {};

TEST_P(Determinism, IdenticalConfigIdenticalCycles) {
  auto run_once = [&] {
    auto cfg = make_cfg(4, GetParam().topo);
    cfg.variant = GetParam().variant;
    cfg.detailed_network = GetParam().detailed_net;
    machine::Machine m(cfg);
    if (GetParam().variant == machine::Variant::kMultiInstruction) {
      m.load(tcf::kernels::vecadd_fork(50, 1000, 2000, 3000));
      m.boot(1);
    } else if (GetParam().variant == machine::Variant::kSingleOperation) {
      m.load(tcf::kernels::vecadd_esm_loop(50, 1000, 2000, 3000));
      tcf::kernels::boot_esm_threads(m, 0, 16);
    } else {
      m.load(tcf::kernels::vecadd_tcf(50, 1000, 2000, 3000));
      m.boot(1);
    }
    m.run();
    return std::pair(m.stats().cycles, m.stats().instruction_fetches);
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Determinism,
    ::testing::Values(
        DetCase{machine::Variant::kSingleInstruction,
                net::TopologyKind::kMesh2D, false},
        DetCase{machine::Variant::kSingleInstruction,
                net::TopologyKind::kMesh2D, true},
        DetCase{machine::Variant::kBalanced, net::TopologyKind::kRing,
                false},
        DetCase{machine::Variant::kMultiInstruction,
                net::TopologyKind::kCrossbar, false},
        DetCase{machine::Variant::kSingleOperation,
                net::TopologyKind::kHypercube, false}),
    [](const auto& inf) {
      std::string s = std::string(machine::to_string(inf.param.variant)) +
                      "_" + net::to_string(inf.param.topo) +
                      (inf.param.detailed_net ? "_detailed" : "_analytic");
      for (auto& c : s) {
        if (c == '-') c = '_';
      }
      return s;
    });

// ---- multioperation histogram equals sequential ----

TEST(IntegrationHistogram, MultiopHistogramMatchesSequential) {
  Rng rng(123);
  const std::size_t n = 2000, buckets = 8;
  std::vector<Word> xs(n);
  for (auto& x : xs) x = static_cast<Word>(rng.below(80));
  std::vector<Word> want(buckets, 0);
  for (Word x : xs) ++want[static_cast<std::size_t>(x / 10)];

  const auto compiled = lang::compile_source(
      "array data[" + std::to_string(n) + "]; array hist[" +
      std::to_string(buckets) + "];\n#" + std::to_string(n) +
      ";\nmulti(hist.[data.[id] / 10], MPADD, 1);");
  machine::Machine m(make_cfg(4, net::TopologyKind::kMesh2D));
  m.load(compiled.program);
  for (std::size_t i = 0; i < n; ++i) {
    m.shared().poke(compiled.buffer("data").at(i), xs[i]);
  }
  m.boot(1);
  ASSERT_TRUE(m.run().completed);
  std::vector<Word> got(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    got[b] = m.shared().peek(compiled.buffer("hist").at(b));
  }
  EXPECT_EQ(got, want);
}

// ---- language program equals a sequential prefix sum ----

TEST(IntegrationScan, LanguageMatchesSequentialPrefix) {
  const Word n = 32;
  Rng rng(5);
  std::vector<Word> xs(n);
  for (auto& x : xs) x = rng.range(1, 9);

  // The dependent loop reads below s through the zeroed guard array.
  std::string src = "array guard[" + std::to_string(n) + "];" +
                    "array s[" + std::to_string(n) + "]; var i;\n" +
                    "#" + std::to_string(n) + ";\n" +
                    "for (i = 1; i < " + std::to_string(n) + "; i <<= 1)\n" +
                    "  s.[id] += s.[id - i];";
  const auto compiled = lang::compile_source(src);
  machine::Machine m(make_cfg(4, net::TopologyKind::kMesh2D));
  m.load(compiled.program);
  for (Word i = 0; i < n; ++i) m.shared().poke(compiled.buffer("s").at(i), xs[i]);
  m.boot(1);
  ASSERT_TRUE(m.run().completed);

  std::vector<Word> want(n);
  std::partial_sum(xs.begin(), xs.end(), want.begin());
  for (Word i = 0; i < n; ++i) {
    EXPECT_EQ(m.shared().peek(compiled.buffer("s").at(i)), want[i])
        << "element " << i;
  }
}

// ---- random-program fuzz: every variant against the oracle ----
//
// Random straight-line ALU programs, with DIV and MOD by nonzero immediates
// (-1 included), store r1..r15 to shared memory; every variant must leave
// the words the conformance oracle, an independent interpreter, computes.

class AluFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AluFuzz, VariantsComputeIdenticalRegisters) {
  Rng rng(GetParam());
  tcf::AsmBuilder b;
  using tcf::Reg;
  const isa::Opcode alu_ops[] = {
      isa::Opcode::kAdd, isa::Opcode::kSub, isa::Opcode::kMul,
      isa::Opcode::kDiv, isa::Opcode::kMod, isa::Opcode::kAnd,
      isa::Opcode::kOr,  isa::Opcode::kXor, isa::Opcode::kShl,
      isa::Opcode::kShr, isa::Opcode::kSlt, isa::Opcode::kSle,
      isa::Opcode::kSeq, isa::Opcode::kSne, isa::Opcode::kMax,
      isa::Opcode::kMin};
  const Word divisors[] = {-7, -2, -1, 1, 3, 64};
  // Seed registers with immediates, then a random ALU DAG.
  for (std::uint8_t r = 1; r < 8; ++r) {
    b.ldi(Reg{r}, rng.range(-100, 100));
  }
  const int len = 10 + static_cast<int>(rng.below(40));
  for (int i = 0; i < len; ++i) {
    const auto op = alu_ops[rng.below(std::size(alu_ops))];
    const auto rd = static_cast<std::uint8_t>(1 + rng.below(15));
    const auto ra = static_cast<std::uint8_t>(rng.below(16));
    if (op == isa::Opcode::kDiv || op == isa::Opcode::kMod) {
      b.alu(op, Reg{rd}, Reg{ra}, divisors[rng.below(std::size(divisors))]);
    } else if (rng.chance(0.3)) {
      // Shift amounts are masked to 0..63 by the ISA, so any imm is safe.
      b.alu(op, Reg{rd}, Reg{ra}, rng.range(-50, 50));
    } else {
      b.alu(op, Reg{rd}, Reg{ra},
            Reg{static_cast<std::uint8_t>(rng.below(16))});
    }
  }
  for (std::uint8_t r = 1; r < isa::kNumRegisters; ++r) {
    b.st(Reg{r}, tcf::r0, 100 + r);
  }
  b.halt();
  const auto prog = b.build();

  conformance::OracleOptions oo;
  oo.shared_words = 128;
  const conformance::OracleResult want =
      conformance::run_oracle(prog, 1, 1, false, oo);
  ASSERT_TRUE(want.completed) << want.fault;
  for (const machine::Variant v :
       {machine::Variant::kSingleInstruction, machine::Variant::kBalanced,
        machine::Variant::kMultiInstruction, machine::Variant::kSingleOperation,
        machine::Variant::kConfigSingleOperation,
        machine::Variant::kFixedThickness}) {
    SCOPED_TRACE(machine::to_string(v));
    auto cfg = make_cfg(v == machine::Variant::kFixedThickness ? 1 : 2,
                        net::TopologyKind::kCrossbar);
    cfg.variant = v;
    cfg.balanced_bound = 3;
    cfg.shared_words = oo.shared_words;
    machine::Machine m(cfg);
    m.load(prog);
    m.boot(1);
    ASSERT_TRUE(m.run().completed);
    for (Addr a = 101; a < 116; ++a) {
      EXPECT_EQ(m.shared().peek(a), want.shared[a]) << "r" << a - 100;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88),
                         [](const auto& inf) {
                           return "seed" + std::to_string(inf.param);
                         });

// ---- random instruction encode/disassemble/assemble round trip ----

TEST(InstrFuzz, EncodeDisassembleRoundTrip) {
  Rng rng(2026);
  for (int i = 0; i < 500; ++i) {
    isa::Instr instr;
    instr.op = static_cast<isa::Opcode>(
        rng.below(static_cast<std::uint64_t>(isa::Opcode::kOpcodeCount)));
    const auto fmt = isa::op_info(instr.op).format;
    instr.rd = static_cast<std::uint8_t>(rng.below(16));
    instr.ra = static_cast<std::uint8_t>(rng.below(16));
    instr.rb = static_cast<std::uint8_t>(rng.below(16));
    instr.imm = static_cast<std::int32_t>(rng.range(-100000, 100000));
    if (fmt == isa::OpFormat::kRdRaRb || fmt == isa::OpFormat::kRaOrImm) {
      if (rng.chance(0.5)) instr.flags |= isa::flag::kUseImm;
    }
    if (fmt == isa::OpFormat::kRdMem || fmt == isa::OpFormat::kValMem ||
        fmt == isa::OpFormat::kRdValMem) {
      if (rng.chance(0.5)) instr.flags |= isa::flag::kLaneAddr;
    }
    // Normalise fields the format doesn't carry (the textual round trip
    // cannot preserve ignored operand fields).
    switch (fmt) {
      case isa::OpFormat::kNone:
        instr.rd = instr.ra = instr.rb = 0;
        instr.imm = 0;
        break;
      case isa::OpFormat::kRd:
        instr.ra = instr.rb = 0;
        instr.imm = 0;
        break;
      case isa::OpFormat::kRdRaRb:
        if (!instr.use_imm()) instr.imm = 0;
        if (instr.use_imm()) instr.rb = 0;
        break;
      case isa::OpFormat::kRdImm:
        instr.ra = instr.rb = 0;
        break;
      case isa::OpFormat::kRdMem:
        instr.rb = 0;
        break;
      case isa::OpFormat::kValMem:
        instr.rd = 0;
        break;
      case isa::OpFormat::kRdValMem:
        break;
      case isa::OpFormat::kRaOrImm:
        instr.rd = instr.rb = 0;
        if (!instr.use_imm()) instr.imm = 0;
        if (instr.use_imm()) instr.ra = 0;
        break;
      case isa::OpFormat::kImm:
        instr.rd = instr.ra = instr.rb = 0;
        break;
      case isa::OpFormat::kRaImm:
        instr.rd = instr.rb = 0;
        break;
    }
    // encode/decode is exact:
    ASSERT_EQ(isa::Instr::decode(instr.encode()), instr);
    // disassemble -> assemble reproduces the instruction:
    const auto re = isa::assemble(isa::disassemble(instr));
    ASSERT_EQ(re.code.size(), 1u);
    ASSERT_EQ(re.code[0], instr) << isa::disassemble(instr);
  }
}

// ---- CRCW policy sweep over the machine ----

class PolicySweep : public ::testing::TestWithParam<mem::CrcwPolicy> {};

TEST_P(PolicySweep, DisjointTrafficWorksUnderEveryPolicy) {
  auto cfg = make_cfg(2, net::TopologyKind::kRing);
  cfg.crcw = GetParam();
  machine::Machine m(cfg);
  m.load(tcf::kernels::vecadd_tcf(24, 100, 200, 300));
  for (Word i = 0; i < 24; ++i) {
    m.shared().poke(100 + i, i);
    m.shared().poke(200 + i, i);
  }
  m.boot(1);
  ASSERT_TRUE(m.run().completed);
  for (Word i = 0; i < 24; ++i) {
    EXPECT_EQ(m.shared().peek(300 + i), 2 * i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicySweep,
    ::testing::Values(mem::CrcwPolicy::kErew, mem::CrcwPolicy::kCrew,
                      mem::CrcwPolicy::kCommon, mem::CrcwPolicy::kArbitrary,
                      mem::CrcwPolicy::kPriority),
    [](const auto& inf) {
      std::string s = mem::to_string(inf.param);
      for (auto& c : s) {
        if (c == '-') c = '_';
      }
      return s;
    });

}  // namespace
}  // namespace tcfpn
