// Applying the balancing algorithms to a Machine: horizontal vs vertical
// flow allocation (Section 4's multitasking discussion: "it is much more
// beneficial to allocate horizontally T_application/P-wide TCFs from each
// processor core rather than ... vertically").
//
// Hook contract (machine.hpp): allocation hooks run at the step barrier
// (deferred SPAWN placement), after every group executed the step, so they
// may freely read machine state. Spawn splitters run
// at SPAWN execution time, in the middle of a group's phase, and therefore
// must stay pure functions of the thickness argument (as the ones installed
// here are); placement then follows group order alone.
#pragma once

#include <vector>

#include "machine/machine.hpp"
#include "sched/balancer.hpp"

namespace tcfpn::sched {

/// Boots one flow of the full thickness on a single group (vertical
/// allocation — uses 1 of the P processors).
FlowId boot_vertical(machine::Machine& m, std::size_t entry, Word thickness,
                     GroupId group = 0);

/// Boots `fragments` near-equal fragment flows round-robin over the groups
/// (horizontal allocation). The fragment entry code must interpret r15 as
/// its base lane offset (see tcf::kernels fragment kernels).
std::vector<FlowId> boot_horizontal(machine::Machine& m, std::size_t entry,
                                    Word thickness, std::uint32_t fragments);

/// Per-group effective throughput of a (possibly heterogeneous) config:
/// speed_g = group_slots(g) * clock_num(g) / clock_den(g), as exact
/// rationals for install_throughput_lpt_hook.
std::vector<GroupSpeed> group_speeds(const machine::MachineConfig& cfg);

/// Installs the placement-aware LPT hook for heterogeneous shapes
/// (DESIGN.md §12): each spawned flow goes to the alive group whose finish
/// time — (resident thickness + flow thickness) / effective throughput —
/// is smallest, so fat (wide or fast-clocked) groups absorb proportionally
/// more work. On a uniform machine this reduces to thickness-balanced LPT
/// placement. Deterministic: exact rational comparison, ties to the lower
/// group id, and hooks run only at the step barrier.
void install_throughput_lpt_hook(machine::Machine& m);

/// Installs the automatic splitter of Section 3.3: every SPAWN thicker than
/// `bound` is cut into near-equal fragments no thicker than `bound` (at
/// most one per group when that yields fewer fragments). The spawned code
/// must follow the fragment convention (r15 = base lane offset).
void install_auto_splitter(machine::Machine& m, Word bound);

}  // namespace tcfpn::sched
