#include "sched/balancer.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace tcfpn::sched {

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
