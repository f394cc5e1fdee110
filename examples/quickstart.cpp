// Quickstart: the extended PRAM-NUMA model in five minutes.
//
// Shows the two ways to program the machine simulator (machine::Machine),
// which runs ISA programs cycle-by-cycle on any of the paper's six
// execution variants:
//   1. the TCF language (lang::compile_source) — Section 4's thick
//      statements, compiled to the ISA;
//   2. hand-written assembly (isa::assemble).
//
// Build & run:  ./example_quickstart
#include <cstdio>

#include "isa/assembler.hpp"
#include "lang/codegen.hpp"
#include "machine/machine.hpp"

using namespace tcfpn;

int main() {
  // ---------------------------------------------------------------- 1 ----
  std::printf("== 1. TCF language: #n; c. = a. + b.; ==\n");
  machine::MachineConfig cfg;
  cfg.groups = 4;           // P processor groups
  cfg.slots_per_group = 16; // T_p TCF buffer slots per group

  const std::size_t n = 1000;
  const lang::Compiled vecadd = lang::compile_source(R"TCF(
      array a[1000];
      array b[1000];
      array c[1000];
      #1000;          // the thickness statement: 1000 lanes
      a. = id;
      b. = id + 1;
      c. = a. + b.;   // one thick instruction per operation, n lanes each
  )TCF");
  machine::Machine vm(cfg);
  vm.load(vecadd.program);
  vm.boot(1);
  const auto vrun = vm.run();
  const Word c0 = vm.shared().peek(vecadd.buffer("c").at(0));
  const Word clast = vm.shared().peek(vecadd.buffer("c").at(n - 1));
  std::printf("c[0]=%lld  c[999]=%lld  (expect 1 and 1999)\n",
              static_cast<long long>(c0), static_cast<long long>(clast));
  std::printf("fetches=%llu  lane-ops=%llu  cycles=%llu\n\n",
              static_cast<unsigned long long>(vm.stats().instruction_fetches),
              static_cast<unsigned long long>(vm.stats().operations),
              static_cast<unsigned long long>(vrun.cycles));

  // ---------------------------------------------------------------- 2 ----
  std::printf("== 2. machine simulator: assembly on the TCF machine ==\n");
  const auto program = isa::assemble(R"(
      ; sum the squares of 0..15 into shared cell 0 with one thick
      ; multioperation — no loop, no reduction tree.
      main:  SETTHICK 16
             TID r1            ; r1 = lane index (0..15)
             MUL r2, r1, r1    ; r2 = lane^2
             MPADD r2, [r0+0]  ; cell 0 += r2, combined in one step
             HALT
  )");
  machine::Machine m(cfg);
  m.load(program);
  m.boot(1);
  const auto run = m.run();
  std::printf("sum of squares = %lld (expect 1240)\n",
              static_cast<long long>(m.shared().peek(0)));
  std::printf("completed=%d steps=%llu cycles=%llu fetches=%llu\n",
              run.completed,
              static_cast<unsigned long long>(run.steps),
              static_cast<unsigned long long>(run.cycles),
              static_cast<unsigned long long>(m.stats().instruction_fetches));
  std::printf("(note: 5 fetches for 16-wide execution — one per thick "
              "instruction)\n");
  return vrun.completed && c0 == 1 && clast == 1999 &&
                 m.shared().peek(0) == 1240
             ? 0
             : 1;
}
