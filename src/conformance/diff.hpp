// Differential driver: one generated program, many executions, one verdict.
//
// A DiffCase pairs a materialized program with the set of machine "lanes"
// applicable to it — (variant, balanced bound) pairs plus an alignment flag.
// An *aligned* lane takes exactly one oracle step per machine step for this
// program, so even deliberate same-cell CRCW traffic (conflict stores,
// expected SimErrors) lands in the same step on both sides and the full
// outcome — fault class included — must match. A non-aligned lane may chop
// thick instructions across steps or batch several instructions into one
// (balanced / NUMA / XMT), so only race-free programs run on it and the
// comparison covers completion, final memory images and debug output.
//
// Applicability rules (lanes_for):
//  - single-instruction: always, aligned — one instruction per ready flow
//    per step is exactly the oracle's schedule;
//  - balanced: conflicting/faulting programs only when single-flow, with a
//    bound large enough (4096) to stay one-instruction-aligned; multi-flow
//    multiprefix is excluded (group-local budgets can reorder ticket steps);
//  - multi-instruction (XMT): immediate memory, no CRCW checks, per-lane
//    control — only race-free, thickness-stable programs without NUMA /
//    SETTHICK, and multiprefix only when a single flat flow issues it;
//  - single-operation / config-single-operation: thickness-1 programs (the
//    latter also NUMA);
//  - fixed-thickness: single flow, no SETTHICK/SPAWN, one group.
//
// On top of the variant sweep the driver re-runs the single-instruction
// lane once with perturbed cost-model knobs (results must not move).
//
// Every machine lane of the harness — the sweep here, the scenario suite
// (scenario.hpp) and the flight-record replay — runs through run_lane and
// is judged by compare.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "conformance/gen.hpp"
#include "conformance/oracle.hpp"
#include "isa/program.hpp"
#include "machine/config.hpp"
#include "mem/shared_memory.hpp"

namespace tcfpn::machine {
class Machine;
}  // namespace tcfpn::machine

namespace tcfpn::conformance {

struct LaneSpec {
  machine::Variant variant = machine::Variant::kSingleInstruction;
  std::uint32_t balanced_bound = 16;  ///< only meaningful for kBalanced
  bool aligned = false;  ///< machine steps == oracle steps for this program

  std::string name() const;
};

/// Everything needed to execute and judge one program, independent of the
/// generator (corpus replay builds these directly from files).
struct DiffCase {
  isa::Program program;
  Word boot_thickness = 1;
  std::uint32_t boot_flows = 1;
  bool esm_boot = false;
  mem::CrcwPolicy policy = mem::CrcwPolicy::kArbitrary;
  bool expect_error = false;
  bool uses_local = false;
  std::vector<LaneSpec> lanes;
};

/// The machine every lane starts from: P = 4 groups (one for
/// fixed-thickness), T_p = 32, the oracle's memory sizes, the case's CRCW
/// policy and balanced bound B.
machine::MachineConfig lane_config(machine::Variant variant,
                                   std::uint32_t bound, mem::CrcwPolicy policy);

/// One machine execution of a case, shaped like an OracleResult so that
/// compare judges it.
struct LaneRun {
  bool completed = false;
  bool faulted = false;
  std::string fault;
  std::vector<Word> shared;
  std::vector<Word> local;  ///< group 0's, only when the case uses local
  std::vector<Word> debug;
  Cycle cycles = 0;
  StepId steps = 0;
};

/// Runs `c` on `m`, a freshly built machine: loads the program, boots ESM
/// threads or one root flow, and runs at most `max_steps` steps. A non-zero
/// `fault_seed` runs under the default fault schedule for that seed with
/// checkpoint-rollback recovery (resil::ResilientExecutor); `lpt_placement`
/// installs sched::install_throughput_lpt_hook first. A SimError is caught
/// into the result, which always carries the final memory and PRINT images;
/// `m` is left as the run ended, for a caller that attached a recorder.
LaneRun run_lane(machine::Machine& m, const DiffCase& c,
                 std::uint64_t max_steps, std::uint64_t fault_seed = 0,
                 bool lpt_placement = false);

/// Judges one lane against the oracle; returns the first difference. An
/// `aligned` lane must also agree on whether the program faults and on the
/// fault class; any other lane must not fault at all. Completion, shared
/// memory, local memory (with `uses_local`) and the PRINT stream must match.
std::optional<std::string> compare(const OracleResult& want,
                                   const LaneRun& got, bool aligned,
                                   bool uses_local);

/// Derives the applicable lanes from a program's structural profile.
std::vector<LaneSpec> lanes_for(const Profile& p, const GenProgram& gp);

/// Materializes a generated program into a ready-to-run case.
DiffCase to_case(const GenProgram& gp);

struct DiffOptions {
  std::uint64_t max_steps = 1u << 18;
  /// When non-zero, every machine lane additionally runs under the
  /// all-kinds fault schedule resil::default_spec_for_seed(fault_seed) with
  /// checkpoint-rollback recovery. The faulted-then-recovered execution must
  /// be indistinguishable from the fault-free oracle in completion, memory
  /// images and debug output (tcffuzz --fault-seed).
  std::uint64_t fault_seed = 0;
  /// When non-zero, two heterogeneous-shape lanes run on top of the sweep
  /// (tcffuzz --shape-seed). First, a vector of default-constructed
  /// GroupSpecs (every field inheriting the uniform value) must be
  /// bit-identical — cycles included — to the uniform machine on the
  /// aligned single-instruction lane: declaring a shape is not allowed to
  /// move anything. Second, every *non-aligned* lane re-runs under the
  /// seeded shape machine::sample_shape draws (per-group T_p, clocks,
  /// pipeline fills, NUMA rows): non-aligned applicability already means
  /// the program's result is schedule-independent, so the shaped run — in
  /// which small groups overflow, fast groups finish early and placement
  /// drifts — must still land exactly on the oracle's memory and PRINT
  /// images.
  std::uint64_t shape_seed = 0;
  /// When non-empty, only these variants' lanes run (tcffuzz --variants).
  std::vector<machine::Variant> only_variants;
  /// Oracle misimplementations for harness self-tests (tcffuzz --inject-bug).
  bool oracle_skip_common = false;
  bool oracle_reverse_prefix = false;
};

struct Divergence {
  std::string lane;    ///< which execution disagreed with the oracle
  std::string detail;  ///< first observed difference
  /// Exact machine configuration of the diverging lane; flight_record_json
  /// replays it.
  machine::MachineConfig config;
};

/// Runs the case through the oracle and every applicable lane; returns the
/// first divergence, or nullopt when every execution agrees.
std::optional<Divergence> run_differential(const DiffCase& c,
                                           const DiffOptions& opt);

/// Convenience: materialize + profile + judge a generated program.
std::optional<Divergence> run_differential(const GenProgram& gp,
                                           const DiffOptions& opt);

/// Coarse fault classification used when comparing SimError outcomes across
/// executions that cannot agree on exact step numbers. Delegates to
/// debug::classify_fault so the fuzzer and the post-mortem exporter can
/// never drift apart on what a "policy" fault is.
std::string fault_class(const std::string& message);

/// Replays the diverging lane of `d` (its config) with a flight recorder
/// attached and renders a "tcfpn-postmortem-v1" document: the machine's
/// own fault when the lane faulted, or a synthesized "divergence"-class
/// record carrying `d.detail` when the run finished but disagreed with the
/// oracle. tcffuzz writes this next to every shrunken reproducer.
std::string flight_record_json(const DiffCase& c, const Divergence& d,
                               std::uint64_t max_steps = 1u << 18);

}  // namespace tcfpn::conformance
