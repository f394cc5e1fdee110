// Load-balancing algorithms for TCF-to-processor allocation.
//
// Section 3.3: "When TCF instructions are allocated to TCF processors, for
// efficiency reasons it is necessary to try to keep the sum of thickness
// values at each TCF processor roughly balanced. ... a flow is taken into
// execution as a whole, but its execution can be split to balanced
// fragments that are allocated to different TCF processors. ... the OS can
// split such flows automatically."
//
// Pure algorithms here (testable in isolation); src/sched/allocation.hpp
// applies them to a Machine.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace tcfpn::sched {

/// Effective throughput of one group on a heterogeneous shape (DESIGN.md
/// §12), kept as an exact rational so placement never depends on floating
/// point: speed = num/den = T_p(g) * clock_num(g) / clock_den(g) thickness
/// units per cycle.
struct GroupSpeed {
  std::uint64_t num = 1;
  std::uint64_t den = 1;
};

/// One fragment of a split flow: `base` is the first lane index the
/// fragment covers, `thickness` its lane count.
struct Fragment {
  Word base = 0;
  Word thickness = 0;
};

/// Splits a flow of the given thickness into fragments no thicker than
/// `bound` (the automatic splitting of overly thick flows). Fragments
/// partition [0, thickness) contiguously; the last may be thinner.
std::vector<Fragment> split_thickness(Word thickness, Word bound);

/// Splits a flow into exactly `parts` near-equal fragments (horizontal
/// allocation: T_application / P per processor core).
std::vector<Fragment> split_even(Word thickness, std::uint32_t parts);

}  // namespace tcfpn::sched
