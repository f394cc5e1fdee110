#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "isa/program.hpp"

namespace tcfpn::conformance {

/// One oracle-backed TCF-language workload from `scenarios/`: a real
/// algorithm (sort, BFS, histogram, sparse matvec, stream compaction)
/// sized well beyond the Section-4 snippets, compiled from source, with
/// its PRINT stream pinned by an independent C++ reference implementation.
struct Scenario {
  std::string name;
  std::string path;
  isa::Program program;
  Word boot_thickness = 1;  ///< programs set their own thickness via `#n`
  /// PRINT stream the sequential reference predicts. The oracle must
  /// reproduce it exactly before any machine lane is judged against the
  /// oracle — two independent derivations pin the answer.
  std::vector<Word> expected_prints;
};

/// Loads and compiles every scenario from `dir` (fails with SimError on a
/// missing or uncompilable source — the suite is fixed, not discovered).
std::vector<Scenario> scenario_suite(const std::string& dir);

/// How to sweep one scenario. Every lane must be bit-identical to the
/// sequential oracle in shared memory, PRINT output and completion. The
/// lanes are single-instruction, balanced:16 and balanced:4096, plus the
/// single-instruction lane with the placement-aware LPT spawn hook
/// installed (placement may move work between groups but must not be
/// observable in memory or PRINT output).
struct ScenarioOptions {
  /// Machine shape spec for machine::apply_shape ("uniform", "fat-thin",
  /// "gpu", or an explicit `COUNT*key=val,...` list).
  std::string shape = "uniform";
  /// When nonzero, adds a fault-injection lane per variant: the default
  /// fault schedule for this seed, recovered by checkpoint rollback, must
  /// still land exactly on the fault-free oracle.
  std::uint64_t fault_seed = 0;
  std::uint64_t max_steps = 1u << 20;
};

struct ScenarioVerdict {
  bool ok = true;
  std::string detail;  ///< first failing lane and why, empty when ok
};

/// Runs `s` through every lane of `opt` and reports the first divergence
/// from the oracle (or from the reference PRINT stream).
ScenarioVerdict run_scenario(const Scenario& s, const ScenarioOptions& opt);

}  // namespace tcfpn::conformance
