// Execution tracing and ASCII schedule rendering.
//
// The paper's Figures 4 and 6–12 illustrate which slice (TCF instruction,
// thread slot, bunch fragment) occupies a processor's pipeline at each point
// in time. ScheduleTrace records exactly that — (processor, cycle interval,
// label) triples — and renders them as an ASCII Gantt chart so the figure
// benches can regenerate the pictures from measured execution.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace tcfpn {

struct TraceSpan {
  std::uint32_t row = 0;   ///< processor / pipeline row
  Cycle begin = 0;         ///< first cycle occupied (inclusive)
  Cycle end = 0;           ///< one past the last cycle occupied
  char glyph = '#';        ///< single character used in the chart
  std::string label;       ///< human-readable description (legend)
};

class ScheduleTrace {
 public:
  /// Enable/disable recording. Disabled traces drop spans at negligible cost.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void add(std::uint32_t row, Cycle begin, Cycle end, char glyph,
           std::string label);

  void clear() { spans_.clear(); }
  const std::vector<TraceSpan>& spans() const { return spans_; }

  /// Renders a Gantt chart: one line per row, one column per cycle
  /// (compressed by `cycles_per_column` when the run is long), '.' for idle.
  /// Distinct glyphs come from the recorded spans; a legend maps glyph ->
  /// label (first span that used the glyph).
  std::string render(std::uint64_t cycles_per_column = 1,
                     std::size_t max_columns = 160) const;

 private:
  bool enabled_ = false;
  std::vector<TraceSpan> spans_;
};

/// A host-side (wall-clock) span: one timed phase of the stepping engine.
/// Recorded by the machine when host profiling is enabled and exported into
/// the Chrome trace alongside the simulated schedule.
struct HostSpan {
  std::string name;    ///< "subsystem/phase", e.g. "machine/group_phase"
  std::uint32_t tid = 0;
  double ts_us = 0;    ///< start, microseconds since profiling began
  double dur_us = 0;
};

/// Renders the simulated schedule and the host-side phase spans as one
/// Chrome trace-event / Perfetto JSON document (open in ui.perfetto.dev or
/// chrome://tracing). Simulated spans land in process 0 with one track per
/// processor row, mapping 1 simulated cycle to 1 microsecond; host spans
/// land in process 1 on the wall clock. `metadata` key/value pairs are
/// embedded under "otherData", alongside a boolean "truncated" field set
/// from `host_truncated` (true when the host-span buffer overflowed and the
/// host timeline is incomplete).
std::string chrome_trace_json(
    const ScheduleTrace& sim, const std::vector<HostSpan>& host,
    const std::vector<std::pair<std::string, std::string>>& metadata = {},
    bool host_truncated = false);

}  // namespace tcfpn
