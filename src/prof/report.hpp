// Report renderers over a prof::Profile (DESIGN.md §11).
//
// Everything here is a pure function of (Profile, RunInfo): no clocks, no
// locale, no host state — the same profile renders to the same bytes on
// every machine, which is what lets the determinism tests compare whole
// documents. The renderers back the tcfprof CLI (--report
// summary/hotspots/steps/folded/html/json) and the --profile export in
// tcfrun (schema "tcfpn-profile-v1").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "prof/profile.hpp"

namespace tcfpn::prof {

/// Everything a report needs to know about the run behind a profile.
struct RunInfo {
  std::string program;  ///< folded-stack root (program name, sanitized)
  std::vector<std::pair<std::string, std::string>> meta;  ///< run metadata
  bool completed = true;
  std::uint64_t steps = 0;
  Cycle cycles = 0;  ///< MachineStats::cycles — the conservation target
  Cycle pipeline_fill = 0;
};

/// One per-term cost multiplier for the Amdahl-style what-if analysis.
/// Only the step-record components are scalable: kCompute scales the slot
/// term, kNet the network bound, kFault the fault delay, kFill the
/// pipeline fill.
struct WhatIf {
  Term term = Term::kCompute;
  double factor = 1.0;
};

/// Parses "net:0.5x" or "term=net:0.5x" (the trailing 'x' is optional).
/// Accepts only the scalable terms; returns false on anything else.
bool parse_what_if(std::string_view spec, WhatIf* out);

/// Re-costs the run under the multipliers: every recorded step becomes
/// fill·f_fill + max(slot·f_compute, net·f_net + fault·f_fault); cycles
/// outside the recorded steps (switch/sched charges, truncated tail) are
/// carried over unscaled. With empty `mods` this returns `total_cycles`.
/// Returns nullopt when the prediction is 2^64 cycles or more, which no
/// Cycle can hold.
std::optional<Cycle> what_if_cycles(const Profile& p, Cycle total_cycles,
                                    const std::vector<WhatIf>& mods);

/// Aggregation axis for the hotspots report.
enum class HotspotBy : std::uint8_t { kPc = 0, kTcf, kGroup, kTerm };

bool hotspot_by_from_string(std::string_view name, HotspotBy* out);

std::string report_summary(const Profile& p, const RunInfo& run);
/// Top-`top` hotspots along `by`. For --by=pc, adjacent hot PCs coalesce
/// into ranges ("pc 12-17") so a hot loop reads as one row.
std::string report_hotspots(const Profile& p, const RunInfo& run,
                            HotspotBy by, std::size_t top);
/// Per-step critical-path report: limited-by percentages, limiting groups,
/// and one what-if line per requested multiplier.
std::string report_steps(const Profile& p, const RunInfo& run,
                         const std::vector<WhatIf>& what_ifs);

/// Folded stacks, one per cell: "prog;tcf3@g1;pc12;compute 4821".
/// Machine-level cells fold under "prog;machine;<term>". The line order is
/// the canonical cell order, so the output is byte-stable.
std::vector<std::string> folded_lines(const Profile& p, const RunInfo& run);
std::string report_folded(const Profile& p, const RunInfo& run);

/// Self-contained HTML flame graph (inline data + renderer, no network).
std::string report_html(const Profile& p, const RunInfo& run);

/// The machine-readable export, schema "tcfpn-profile-v1".
std::string report_json(const Profile& p, const RunInfo& run);

}  // namespace tcfpn::prof
