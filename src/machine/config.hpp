// Machine configuration: the parameters of the (extended) PRAM-NUMA model.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "mem/shared_memory.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"

namespace tcfpn::machine {

/// Sentinel for GroupSpec::pipeline_fill: inherit the machine-wide value.
inline constexpr std::uint32_t kInheritFill = 0xffffffffu;

/// Per-group override for heterogeneous machine shapes (DESIGN.md §12).
///
/// A uniform machine leaves MachineConfig::group_specs empty; a
/// heterogeneous one carries exactly `groups` entries, each of which may
/// override the group's thread-slot count T_p, its clock (as a rational
/// multiplier of the base clock), its pipeline depth, and its row of the
/// NUMA distance matrix. Every field defaults to "inherit the uniform
/// value", so a vector of default-constructed specs behaves exactly like
/// the uniform machine (and fingerprints differently only because the
/// shape was declared — see state.cpp).
struct GroupSpec {
  std::uint32_t slots = 0;        ///< T_p override; 0 = slots_per_group
  std::uint32_t clock_num = 1;    ///< clock multiplier numerator (>= 1)
  std::uint32_t clock_den = 1;    ///< clock multiplier denominator (>= 1)
  std::uint32_t pipeline_fill = kInheritFill;  ///< F override
  /// Distance from this group to the module-owner group m (one row of the
  /// NUMA distance matrix). Empty = the topology's own row. Overrides the
  /// analytic latency bound and the routing distance estimate; detailed
  /// routing still follows the physical topology's links.
  std::vector<std::uint32_t> numa_row;

  bool operator==(const GroupSpec&) const = default;
};

/// The six execution variants of Section 3.2, in paper order.
enum class Variant : std::uint8_t {
  kSingleInstruction,      ///< full TCF model; 1 TCF instruction/flow/step (Fig. 7)
  kBalanced,               ///< bounded ops per processor per step (Fig. 8)
  kMultiInstruction,       ///< XMT-style run-to-completion, join barriers (Fig. 9)
  kSingleOperation,        ///< plain interleaved ESM, thickness == 1 (Fig. 10)
  kConfigSingleOperation,  ///< original PRAM-NUMA: thickness 1 + bunching (Fig. 11)
  kFixedThickness,         ///< vector/SIMD: one processor, fixed thickness (Fig. 12)
};

const char* to_string(Variant v);

/// True for the variants whose execution is PRAM-lockstep per machine step.
bool is_step_synchronous(Variant v);

/// Where lane-private intermediate results live (Section 3.3): "we see
/// three possible solutions for this: memory-to-memory instructions,
/// cached register file, and usage of a number of fast local memories".
enum class OperandStorage : std::uint8_t {
  kCachedRegisterFile,  ///< lanes beyond the cache pay a spill penalty
  kMemoryToMemory,      ///< every operand through memory: flat penalty
  kLocalMemory,         ///< operands in the group's local memory
};

const char* to_string(OperandStorage s);

struct MachineConfig {
  // ---- structural parameters (Section 3.1's P, T_p, M) ----
  std::uint32_t groups = 4;            ///< P processor groups
  std::uint32_t slots_per_group = 16;  ///< T_p: thread slots / TCF buffer entries
  std::size_t shared_words = 1u << 20; ///< global shared memory size
  std::size_t local_words = 1u << 16;  ///< per-group local memory size

  // ---- memory & network ----
  mem::CrcwPolicy crcw = mem::CrcwPolicy::kArbitrary;
  net::TopologyKind topology = net::TopologyKind::kMesh2D;
  net::NetworkConfig net;
  bool detailed_network = false;  ///< route refs as packets vs analytic bound
  Cycle local_latency = 1;        ///< NUMA local-memory access latency

  // ---- execution variant & its knobs ----
  Variant variant = Variant::kSingleInstruction;
  std::uint32_t balanced_bound = 16;  ///< B: ops per processor per step (Balanced)
  std::uint32_t pipeline_fill = 4;    ///< F: pipeline fill/drain cycles per step
  Cycle spawn_cost = 2;               ///< flow creation base cost (cycles)
  Cycle join_cost = 16;               ///< per-join barrier cost (Multi-instruction)

  // ---- register architecture (Table 1's R, Section 3.3 operand storage) --
  std::uint32_t registers_per_context = 16;  ///< R architectural registers
  std::uint32_t register_cache_words = 1024; ///< physical register cache per group
  OperandStorage operand_storage = OperandStorage::kCachedRegisterFile;
  Cycle register_spill_penalty = 1;  ///< extra cycles per uncached lane-op

  // ---- ILP co-execution (Section 3.2: "it is possible and even advisable
  // to apply heterogeneous instruction-level parallelism to execution of
  // TCFs") ----
  std::uint32_t functional_units = 1;  ///< operations issued per cycle/group

  // ---- instrumentation ----
  bool record_trace = false;  ///< keep the per-step Gantt trace

  /// Record a StepSample (cumulative stats snapshot) every N machine steps
  /// into Machine::step_samples(). 0 disables sampling. Sampling reads only
  /// barrier-side state, so it never perturbs determinism.
  std::uint32_t sample_every = 0;

  /// Time the host-side phases of the stepping engine (group phase, effect
  /// merge, memory commit, memory term, housekeeping) with a wall clock and
  /// keep them as HostSpans for the Chrome trace export. Wall-clock values
  /// are inherently non-deterministic; they live outside the metrics
  /// registry and never feed back into simulated state.
  bool profile_host = false;

  /// Cost-model attribution profiling (src/prof, DESIGN.md §11): charge
  /// every simulated cycle to a (group, tcf, pc, term) cell and record the
  /// per-step cost components for the critical-path analyzer. Deterministic
  /// (bins merge at the step barrier in group order) and an observation
  /// knob only: simulated results are bit-identical with it on or off, so
  /// like the other instrumentation flags it stays outside the checkpoint
  /// config fingerprint.
  bool profile = false;

  // ---- heterogeneous machine shape (DESIGN.md §12) ----
  /// Per-group overrides. Empty = the classic uniform machine. When
  /// non-empty the vector must carry exactly `groups` entries (checked at
  /// Machine construction); group g then runs with group_slots(g) thread
  /// slots, a clock_num/clock_den clock multiplier (its slot term shrinks
  /// by the multiplier), pipeline depth group_fill(g) (the step's fill is
  /// the max over alive groups — lockstep drains the deepest pipe), and an
  /// optional private NUMA distance row.
  std::vector<GroupSpec> group_specs;

  bool is_heterogeneous() const { return !group_specs.empty(); }

  std::uint32_t group_slots(std::uint32_t g) const {
    if (g < group_specs.size() && group_specs[g].slots != 0) {
      return group_specs[g].slots;
    }
    return slots_per_group;
  }
  std::uint32_t group_clock_num(std::uint32_t g) const {
    return g < group_specs.size() ? group_specs[g].clock_num : 1u;
  }
  std::uint32_t group_clock_den(std::uint32_t g) const {
    return g < group_specs.size() ? group_specs[g].clock_den : 1u;
  }
  std::uint32_t group_fill(std::uint32_t g) const {
    if (g < group_specs.size() &&
        group_specs[g].pipeline_fill != kInheritFill) {
      return group_specs[g].pipeline_fill;
    }
    return pipeline_fill;
  }

  /// Total thread/TCF slots across the machine: P * T_p, or the sum of the
  /// per-group overrides on a heterogeneous shape.
  std::uint64_t total_slots() const {
    if (!is_heterogeneous()) {
      return static_cast<std::uint64_t>(groups) * slots_per_group;
    }
    std::uint64_t total = 0;
    for (std::uint32_t g = 0; g < groups; ++g) total += group_slots(g);
    return total;
  }
};

}  // namespace tcfpn::machine
