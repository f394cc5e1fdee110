#include "sched/balancer.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"

namespace tcfpn::sched {

std::vector<GroupId> lpt_assign(const std::vector<Word>& thicknesses,
                                std::uint32_t groups) {
  TCFPN_CHECK(groups >= 1, "need at least one group");
  // Sort indices by decreasing thickness, then greedily place each on the
  // least-loaded group (classic 4/3-approximate makespan).
  std::vector<std::size_t> order(thicknesses.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return thicknesses[x] > thicknesses[y];
                   });
  std::vector<Word> load(groups, 0);
  std::vector<GroupId> out(thicknesses.size(), 0);
  for (std::size_t idx : order) {
    TCFPN_CHECK(thicknesses[idx] >= 0, "negative thickness");
    const auto it = std::min_element(load.begin(), load.end());
    const auto g = static_cast<GroupId>(it - load.begin());
    out[idx] = g;
    load[g] += thicknesses[idx];
  }
  return out;
}

Word assignment_makespan(const std::vector<Word>& thicknesses,
                         const std::vector<GroupId>& assignment,
                         std::uint32_t groups) {
  TCFPN_CHECK(thicknesses.size() == assignment.size(),
              "assignment arity mismatch");
  std::vector<Word> load(groups, 0);
  for (std::size_t i = 0; i < thicknesses.size(); ++i) {
    TCFPN_CHECK(assignment[i] < groups, "assignment to unknown group");
    load[assignment[i]] += thicknesses[i];
  }
  return load.empty() ? 0 : *std::max_element(load.begin(), load.end());
}

std::vector<Fragment> split_thickness(Word thickness, Word bound) {
  TCFPN_CHECK(thickness >= 0, "negative thickness");
  TCFPN_CHECK(bound >= 1, "fragment bound must be >= 1");
  std::vector<Fragment> out;
  for (Word base = 0; base < thickness; base += bound) {
    out.push_back(Fragment{base, std::min(bound, thickness - base)});
  }
  return out;
}

std::vector<Fragment> split_even(Word thickness, std::uint32_t parts) {
  TCFPN_CHECK(parts >= 1, "need at least one part");
  TCFPN_CHECK(thickness >= 0, "negative thickness");
  std::vector<Fragment> out;
  const Word p = static_cast<Word>(parts);
  Word base = 0;
  for (Word i = 0; i < p; ++i) {
    // Distribute the remainder over the first (thickness mod parts) parts.
    const Word t = thickness / p + (i < thickness % p ? 1 : 0);
    if (t > 0) out.push_back(Fragment{base, t});
    base += t;
  }
  return out;
}

}  // namespace tcfpn::sched
