#include "sched/allocation.hpp"

#include "sched/balancer.hpp"

namespace tcfpn::sched {

FlowId boot_vertical(machine::Machine& m, std::size_t entry, Word thickness,
                     GroupId group) {
  return m.boot_at(entry, thickness, group);
}

std::vector<FlowId> boot_horizontal(machine::Machine& m, std::size_t entry,
                                    Word thickness, std::uint32_t fragments) {
  const auto parts = split_even(thickness, fragments);
  std::vector<FlowId> ids;
  ids.reserve(parts.size());
  const std::uint32_t groups = m.config().groups;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const FlowId id = m.boot_at(entry, parts[i].thickness,
                                static_cast<GroupId>(i % groups));
    m.poke_reg(id, 0, 15, parts[i].base);  // r15 = fragment base offset
    // Broadcast the base to every lane (boot leaves lanes zeroed).
    for (Word lane = 1; lane < parts[i].thickness; ++lane) {
      m.poke_reg(id, static_cast<LaneId>(lane), 15, parts[i].base);
    }
    ids.push_back(id);
  }
  return ids;
}

std::vector<GroupSpeed> group_speeds(const machine::MachineConfig& cfg) {
  std::vector<GroupSpeed> speeds(cfg.groups);
  for (GroupId g = 0; g < cfg.groups; ++g) {
    speeds[g].num = static_cast<std::uint64_t>(cfg.group_slots(g)) *
                    cfg.group_clock_num(g);
    speeds[g].den = cfg.group_clock_den(g);
  }
  return speeds;
}

void install_throughput_lpt_hook(machine::Machine& m) {
  machine::Machine* mp = &m;
  const std::vector<GroupSpeed> speeds = group_speeds(m.config());
  m.set_allocation_hook([mp, speeds](const machine::TcfDescriptor& f) {
    // Minimize (load + t) / speed over alive groups: exact cross-multiplied
    // comparison, ties to the lower group id.
    GroupId best = 0;
    bool found = false;
    unsigned __int128 best_lhs = 0;
    for (GroupId g = 0; g < mp->config().groups; ++g) {
      if (!mp->group_alive(g)) continue;
      const std::uint64_t work =
          static_cast<std::uint64_t>(mp->resident_thickness(g)) +
          static_cast<std::uint64_t>(f.thickness);
      const auto finish_num =
          static_cast<unsigned __int128>(work) * speeds[g].den;
      if (!found || finish_num * speeds[best].num <
                        best_lhs * speeds[g].num) {
        best = g;
        best_lhs = finish_num;
        found = true;
      }
    }
    TCFPN_CHECK(found, "no live group left to place a flow on");
    return best;
  });
}

void install_auto_splitter(machine::Machine& m, Word bound) {
  TCFPN_CHECK(bound >= 1, "split bound must be >= 1");
  m.set_spawn_splitter([bound](Word thickness) {
    std::vector<Word> out;
    if (thickness <= bound) {
      out.push_back(thickness);
      return out;
    }
    for (const auto& frag : split_thickness(thickness, bound)) {
      out.push_back(frag.thickness);
    }
    return out;
  });
}

}  // namespace tcfpn::sched
