// Typed records carried by the streaming telemetry bus, and their
// serialization into the versioned "tcfpn-stream-v1" NDJSON wire format
// (DESIGN.md §13).
//
// The engine side builds StreamRecords at the step barrier (cheap typed
// state: a metrics snapshot move, a StepSample, an event-count window) and
// pushes them through the SPSC ring; all string formatting happens on the
// sink thread, so the stepping thread never pays serialization.
//
// Wire format: one JSON object per line ("\n"-framed). Line types:
//
//   header        {"schema":"tcfpn-stream-v1","type":"header","seq":0,
//                  "run":{...}}                 first line, run metadata
//   metrics       {"type":"metrics","seq":N,"step":S,"cycles":C,
//                  "delta":{"net/packets":{...},...}}
//                 flat path→instrument map, the *window* since the previous
//                 metrics line actually written (drops merge windows; the
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
// seq is assigned by the sink at write time, so it is contiguous from 0
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

enum class RecordKind : std::uint8_t {
  kMetrics,  ///< cumulative snapshot; sink turns it into a window delta
  kSample,   ///< one StepSample point
  kEvents,   ///< event-count window
  kLog,      ///< one structured log line
};

/// One bus record. Which payload field is meaningful depends on `kind`;
/// the unused ones stay empty (moved-from maps are cheap).
struct StreamRecord {
  RecordKind kind = RecordKind::kSample;
  StepId step = 0;
  Cycle cycles = 0;
  metrics::MetricsSnapshot metrics;  ///< kMetrics: cumulative at `step`
  machine::StepSample sample;        ///< kSample
  EventCounts events{};              ///< kEvents
  LogLine log;                       ///< kLog
};

/// Counters the bus keeps about itself. `dropped_records` is the
/// never-block backpressure outcome: records the ring had no room for.
/// These deliberately live OUTSIDE the machine's metrics registry — drops
/// depend on host timing, and the simulated metrics document must stay
/// bit-identical with streaming on or off — so they are reported on the
/// stream itself (run_end "obs" object) and by Bus::stats().
struct BusStats {
  std::uint64_t pushed = 0;           ///< records offered by the engine side
  std::uint64_t written = 0;          ///< records serialized to the stream
  std::uint64_t dropped_records = 0;  ///< ring full → record dropped
  std::uint64_t dropped_logs = 0;     ///< log queue full → line dropped
  std::uint64_t write_errors = 0;     ///< destination write failures
};

using MetaPairs = std::vector<std::pair<std::string, std::string>>;

/// Serializes a snapshot as a single-line flat JSON object:
/// {"net/packets":{"type":"counter","value":7},...}. Leaf objects use the
/// same schema as the nested --metrics-json tree (emit_value), so a
/// consumer can compare the two exports value-for-value.
std::string flat_metrics_json(const metrics::MetricsSnapshot& snap);

// ---- line serializers (sink side; each returns one line, no trailing \n,
// no raw control characters — everything string passes through json_escape)
std::string header_line(const MetaPairs& run_meta);
std::string metrics_line(std::uint64_t seq, StepId step, Cycle cycles,
                         const metrics::MetricsSnapshot& window);
std::string sample_line(std::uint64_t seq, const machine::StepSample& s);
std::string events_line(std::uint64_t seq, StepId step,
                        const EventCounts& counts);
std::string log_line(std::uint64_t seq, const LogLine& l);
std::string run_end_line(std::uint64_t seq, StepId step, Cycle cycles,
                         bool completed, const std::string& fault,
                         const metrics::MetricsSnapshot& cumulative,
                         const machine::MachineStats& stats,
                         const BusStats& bus);

}  // namespace tcfpn::obs
