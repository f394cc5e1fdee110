// Structured, leveled, slash-path-categorized logging (DESIGN.md §13).
//
// Every diagnostic the simulator or a tool emits goes through obs::log as a
// (level, category, message) triple instead of an ad-hoc fprintf(stderr):
//
//   obs::warn("machine/host_spans", "span buffer full; trace truncated");
//   obs::error("tcfrun", "cannot write 'out.json'");
//
// Categories are slash paths like metric paths ("machine/host_spans",
// "obs/sink", "tcfrun") so a consumer can filter subtrees. Two outputs:
//
//  - stderr, human format "[level] category: message", gated by the process
//    log level (set_log_level / --log-level; default info);
//  - an optional forwarder hook, installed by the streaming telemetry bus
//    (src/obs), which turns every line into a "log" record on the
//    tcfpn-stream-v1 NDJSON stream. The hook sees every line regardless of
//    the stderr level gate — the stream consumer applies its own filter.
//
// This core lives in src/common (below src/machine) so the machine and the
// subsystems can log without depending on the bus; the bus plugs in from
// above. Thread-safe: concurrent log() calls serialize per line. log()
// calls the forwarder while holding its mutex, so a forwarder must never
// log itself (obs::Bus formats and writes the line, and does not).
#pragma once

#include <functional>
#include <string>
#include <string_view>

namespace tcfpn::obs {

enum class LogLevel : std::uint8_t { kDebug = 0, kInfo, kWarn, kError };

const char* to_string(LogLevel lv);
/// Parses "debug" / "info" / "warn" / "error". Returns false on junk.
bool log_level_from_string(std::string_view name, LogLevel* out);

/// One structured log line, as handed to the forwarder hook.
struct LogLine {
  LogLevel level = LogLevel::kInfo;
  std::string category;  ///< slash path, e.g. "machine/host_spans"
  std::string message;   ///< free text; may contain any bytes, the stream
                         ///< serializer escapes them (json_escape)
};

/// Minimum level echoed to stderr (the forwarder sees everything).
void set_log_level(LogLevel lv);
LogLevel log_level();

/// Installs (or clears, with nullptr) the forwarder every line is handed to
/// after the stderr echo. Installed by obs::Bus; at most one at a time.
using LogForwarder = std::function<void(LogLine&&)>;
void set_log_forwarder(LogForwarder fwd);

void log(LogLevel lv, std::string_view category, std::string_view message);

inline void debug(std::string_view category, std::string_view message) {
  log(LogLevel::kDebug, category, message);
}
inline void info(std::string_view category, std::string_view message) {
  log(LogLevel::kInfo, category, message);
}
inline void warn(std::string_view category, std::string_view message) {
  log(LogLevel::kWarn, category, message);
}
inline void error(std::string_view category, std::string_view message) {
  log(LogLevel::kError, category, message);
}

}  // namespace tcfpn::obs
