// A tour of the six execution variants: the same computation (sum of
// 1..n by vector add + multioperation reduce) expressed in each model's
// native style and run on the corresponding machine (Section 3.2).
//
// Build & run:  ./example_variants_tour
#include <cstdio>

#include "common/table.hpp"
#include "machine/machine.hpp"
#include "tcf/builder.hpp"
#include "tcf/kernels.hpp"

using namespace tcfpn;

namespace {

constexpr Word kN = 96;
constexpr Addr kA = 256, kB = 1024, kC = 4096, kSum = 16;

isa::Program seed(isa::Program p) {
  std::vector<Word> av(kN), bv(kN);
  for (Word i = 0; i < kN; ++i) {
    av[i] = i + 1;
    bv[i] = 0;
  }
  p.data.push_back({kA, av});
  p.data.push_back({kB, bv});
  return p;
}

// TCF style: #n; c.=a.+b.; sum += c. (two thick statements).
isa::Program tcf_style() {
  tcf::AsmBuilder s;
  using namespace tcf;
  s.setthick(kN);
  s.ld(r1, r0, static_cast<Word>(kA), true);
  s.ld(r2, r0, static_cast<Word>(kB), true);
  s.add(r3, r1, r2);
  s.st(r3, r0, static_cast<Word>(kC), true);
  s.mp(isa::Opcode::kMpAdd, r3, r0, static_cast<Word>(kSum));
  s.halt();
  return seed(s.build());
}

// Thread style: loop + per-thread MPADD.
isa::Program thread_style() {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto loop = s.make_label("loop");
  auto done = s.make_label("done");
  s.add(r3, r1, Word{0});
  s.bind(loop);
  s.slt(r4, r3, kN);
  s.beqz(r4, done);
  s.add(r5, r3, static_cast<Word>(kA));
  s.ld(r6, r5);
  s.add(r7, r3, static_cast<Word>(kB));
  s.ld(r8, r7);
  s.add(r9, r6, r8);
  s.add(r10, r3, static_cast<Word>(kC));
  s.st(r9, r10);
  s.mp(isa::Opcode::kMpAdd, r9, r0, static_cast<Word>(kSum));
  s.add(r3, r3, r2);
  s.jmp(loop);
  s.bind(done);
  s.halt();
  return seed(s.build());
}

// Fork style for the multi-instruction machine.
isa::Program fork_style() {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto worker = s.make_label("worker");
  s.ldi(r1, kN);
  s.spawn(r1, worker);
  s.joinall();
  s.halt();
  s.bind(worker);
  s.tid(r3);
  s.add(r5, r3, static_cast<Word>(kA));
  s.ld(r6, r5);
  s.add(r7, r3, static_cast<Word>(kB));
  s.ld(r8, r7);
  s.add(r9, r6, r8);
  s.add(r10, r3, static_cast<Word>(kC));
  s.st(r9, r10);
  s.mp(isa::Opcode::kMpAdd, r9, r0, static_cast<Word>(kSum));
  s.halt();
  return seed(s.build());
}

// SIMD style: strip-mined masked chunks (width 16).
isa::Program simd_style() {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto loop = s.make_label("loop");
  auto done = s.make_label("done");
  s.ldi(r1, 0);
  s.bind(loop);
  s.slt(r2, r1, kN);
  s.beqz(r2, done);
  s.tid(r4);
  s.add(r3, r1, r4);
  s.slt(r5, r3, kN);
  s.mul(r6, r3, r5);
  s.add(r7, r6, static_cast<Word>(kA));
  s.ld(r8, r7);
  s.add(r9, r6, static_cast<Word>(kB));
  s.ld(r10, r9);
  s.add(r11, r8, r10);
  s.mul(r11, r11, r5);  // masked contribution (0 off the end)
  s.add(r12, r6, static_cast<Word>(kC));
  s.mul(r12, r12, r5);
  s.st(r11, r12);
  s.mp(isa::Opcode::kMpAdd, r11, r0, static_cast<Word>(kSum));
  s.add(r1, r1, Word{16});
  s.jmp(loop);
  s.bind(done);
  s.halt();
  return seed(s.build());
}

}  // namespace

int main() {
  const Word want = kN * (kN + 1) / 2;  // 1+2+...+n
  std::printf("== the same reduction on all six variants (n=%lld, "
              "expect sum=%lld) ==\n\n",
              static_cast<long long>(kN), static_cast<long long>(want));

  machine::MachineConfig cfg;
  cfg.groups = 4;
  cfg.slots_per_group = 16;
  cfg.shared_words = 1 << 16;
  cfg.balanced_bound = 16;

  Table t({"variant", "front-end style", "cycles", "fetches", "sum",
           "ok"});
  bool all_ok = true;
  // Runs `program` on a machine of `variant`, booted by `boot`, and adds
  // its row.
  auto row = [&](const char* name, const char* style,
                 machine::Variant variant, const isa::Program& program,
                 auto boot) {
    auto cfg2 = cfg;
    cfg2.variant = variant;
    if (variant == machine::Variant::kFixedThickness) cfg2.groups = 1;
    machine::Machine m(cfg2);
    m.load(program);
    boot(m);
    const bool completed = m.run().completed;
    const Word sum = m.shared().peek(kSum);
    const bool ok = completed && sum == want;
    all_ok = all_ok && ok;
    t.add(name, style, m.stats().cycles, m.stats().instruction_fetches, sum,
          ok);
  };
  const auto root_flow = [](Word thickness) {
    return [thickness](machine::Machine& m) { m.boot(thickness); };
  };
  const auto all_threads = [](machine::Machine& m) {
    tcf::kernels::boot_esm_threads(m, 0, m.config().total_slots());
  };

  row("single-instruction", "#n; thick stmts",
      machine::Variant::kSingleInstruction, tcf_style(), root_flow(1));
  row("balanced", "#n; thick stmts", machine::Variant::kBalanced, tcf_style(),
      root_flow(1));
  row("multi-instruction", "fork/join", machine::Variant::kMultiInstruction,
      fork_style(), root_flow(1));
  row("single-operation", "tid loop", machine::Variant::kSingleOperation,
      thread_style(), all_threads);
  row("config-single-op", "tid loop (+numa avail.)",
      machine::Variant::kConfigSingleOperation, thread_style(), all_threads);
  row("fixed-thickness", "masked strip-mine",
      machine::Variant::kFixedThickness, simd_style(), root_flow(16));
  t.print();

  std::printf(
      "\nSix machines, six programming styles, one answer. The extended\n"
      "model's source is the shortest and its fetch column the smallest —\n"
      "Section 4's programming argument, end to end.\n");
  if (!all_ok) {
    std::fprintf(stderr,
                 "variants tour: a variant did not complete or got the "
                 "wrong sum\n");
    return 1;
  }
  return 0;
}
