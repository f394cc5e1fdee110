// Front-ends for the comparison execution models, all running on the same
// machine substrate (Section 3.2's variant-to-existing-machine mapping):
//
//   run_threaded_esm — SB-PRAM/ECLIPSE style: a fixed set of P×T_p
//                      thickness-1 threads, programs use tid/thread-count
//                      loops (single-operation variant, Fig. 10);
//   run_pram_numa    — TOTAL ECLIPSE style: as above plus NUMA bunching
//                      (configurable single-operation variant, Fig. 11);
//   run_xmt          — XMT style: asynchronous fork/join flows
//                      (multi-instruction variant, Fig. 9);
//   run_simd         — classical vector machine: one processor, fixed
//                      thickness, masked conditionals
//                      (fixed-thickness variant, Fig. 12);
//   run_tcf          — the extended model itself (single-instruction or
//                      balanced variants, Figs. 7/8).
//
// Each helper fixes the variant on the config, loads the program, boots
// with the model's convention and runs to completion.
#pragma once

#include <cstdint>

#include "isa/program.hpp"
#include "machine/machine.hpp"

namespace tcfpn::baseline {

struct Outcome {
  bool completed = false;
  machine::MachineStats stats;
  std::vector<Word> debug_output;
};

/// Boots `threads` thickness-1 flows (defaults to all P×T_p slots) with
/// r1 = tid, r2 = thread count, on a single-operation machine.
Outcome run_threaded_esm(machine::MachineConfig cfg,
                         const isa::Program& program,
                         std::uint64_t threads = 0);

/// Same thread conventions on a configurable-single-operation machine
/// (programs may use NUMASET bunching).
Outcome run_pram_numa(machine::MachineConfig cfg, const isa::Program& program,
                      std::uint64_t threads = 0);

/// Multi-instruction machine; boots a single thickness-1 main flow that
/// forks workers (SPAWN/JOINALL).
Outcome run_xmt(machine::MachineConfig cfg, const isa::Program& program);

/// Fixed-thickness machine: one group, boot thickness = `width`
/// (defaults to T_p).
Outcome run_simd(machine::MachineConfig cfg, const isa::Program& program,
                 Word width = 0);

/// Extended PRAM-NUMA machine (single-instruction unless cfg says
/// balanced); boots one root flow of the given thickness.
Outcome run_tcf(machine::MachineConfig cfg, const isa::Program& program,
                Word root_thickness = 1);

}  // namespace tcfpn::baseline
