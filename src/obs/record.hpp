// The "tcfpn-stream-v1" NDJSON wire format of the streaming telemetry bus
// (DESIGN.md §13): the line serializers obs::Bus formats each line with,
// on the stepping thread, straight into its pending byte buffer.
//
// Wire format: one JSON object per line ("\n"-framed). Line types:
//
//   header        {"schema":"tcfpn-stream-v1","type":"header","seq":0,
//                  "run":{...}}                 first line, run metadata
//   metrics       {"type":"metrics","seq":N,"step":S,"cycles":C,
//                  "delta":{"net/packets":{...},...}}
//                 flat path→instrument map, the *window* since the previous
//                 metrics line actually accepted (drops merge windows; the
//                 leaf schema matches the --metrics-json document)
//   sample        {"type":"sample","seq":N,"step":S,...} one StepSample
//   events        {"type":"events","seq":N,"step":S,
//                  "counts":{"print":2,...}}    journal/resil event window
//   log           {"type":"log","seq":N,"level":"warn","category":"...",
//                  "message":"..."}             one obs::log line
//   run_end       {"type":"run_end","seq":N,"step":S,"cycles":C,
//                  "completed":true,"metrics":{...cumulative...},
//                  "stats":{...},"obs":{"pushed":..,"written":..,
//                  "dropped_records":..,"dropped_logs":..}}  last line
//
// seq is assigned when the bus accepts a line, so it is contiguous from 0
// regardless of drops; step is monotone non-decreasing across metrics /
// sample / events lines (the emitter suppresses rollback-replay windows).
// The final run_end carries the *cumulative* machine metrics, taken after
// the run finished — byte-for-byte the values of the --metrics-json
// document, which is what lets validate_metrics.py --stream cross-check the
// two exports.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/metrics.hpp"
#include "machine/machine.hpp"

namespace tcfpn::obs {

inline constexpr char kStreamSchema[] = "tcfpn-stream-v1";

/// One slot per DebugEventKind (dense, kind-indexed).
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(machine::DebugEventKind::kGroupRetired) + 1;
using EventCounts = std::array<std::uint64_t, kEventKindCount>;

/// Counters the bus keeps about itself. `dropped_records` is the
/// never-wait backpressure outcome: records the pending buffer had no room
/// for. These deliberately live OUTSIDE the machine's metrics registry —
/// drops depend on how fast the destination drains, and the simulated
/// metrics document must stay bit-identical with streaming on or off — so
/// they are reported on the stream itself (run_end "obs" object) and by
/// Bus::stats().
struct BusStats {
  std::uint64_t pushed = 0;           ///< records offered by the observer
  std::uint64_t written = 0;          ///< lines accepted onto the stream
  std::uint64_t dropped_records = 0;  ///< buffer full → record dropped
  std::uint64_t dropped_logs = 0;     ///< buffer full → log line dropped
  std::uint64_t write_errors = 0;     ///< destination write failures
};

using MetaPairs = std::vector<std::pair<std::string, std::string>>;

/// Appends `snap` less `since` as a single-line flat JSON object:
/// {"net/packets":{"type":"counter","value":7},...}. Each leaf is
/// metrics::diff of the two; a leaf absent from `since` passes through, so
/// an empty `since` writes `snap` itself. Leaf objects use the same schema
/// as the nested --metrics-json tree (to_json_leaf), so a consumer can
/// compare the two exports value-for-value.
void flat_metrics_json(std::string& out, const metrics::MetricsSnapshot& snap,
                       const metrics::MetricsSnapshot& since);

// ---- line serializers: each appends one line to `out`, no trailing \n, no
// raw control characters — every string passes through json_escape
void header_line(std::string& out, const MetaPairs& run_meta);
void metrics_line(std::string& out, std::uint64_t seq, StepId step,
                  Cycle cycles, const metrics::MetricsSnapshot& cumulative,
                  const metrics::MetricsSnapshot& since);
void sample_line(std::string& out, std::uint64_t seq,
                 const machine::StepSample& s);
void events_line(std::string& out, std::uint64_t seq, StepId step,
                 const EventCounts& counts);
void log_line(std::string& out, std::uint64_t seq, const LogLine& l);
void run_end_line(std::string& out, std::uint64_t seq, StepId step,
                  Cycle cycles, bool completed, const std::string& fault,
                  const metrics::MetricsSnapshot& cumulative,
                  const machine::MachineStats& stats, const BusStats& bus);

}  // namespace tcfpn::obs
