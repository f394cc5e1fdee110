#include "obs/record.hpp"

namespace tcfpn::obs {

using metrics::append_field;
using metrics::json_escape;

void flat_metrics_json(std::string& out, const metrics::MetricsSnapshot& snap,
                       const metrics::MetricsSnapshot& since) {
  out += '{';
  bool first = true;
  for (const auto& [path, v] : snap.entries) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    json_escape(out, path);
    out += "\": ";
    const auto before = since.entries.find(path);
    if (before == since.entries.end()) {
      metrics::to_json_leaf(out, v);
    } else {
      metrics::to_json_leaf(out, metrics::diff(before->second, v));
    }
  }
  out += '}';
}

namespace {

void open_line(std::string& out, const char* type, std::uint64_t seq) {
  out += "{\"type\": \"";
  out += type;
  out += '"';
  append_field(out, "seq", seq);
}

/// Appends `, "key": "value"` with the value escaped.
void string_field(std::string& out, std::string_view key,
                  std::string_view value) {
  out += ", \"";
  out += key;
  out += "\": \"";
  json_escape(out, value);
  out += '"';
}

}  // namespace

void header_line(std::string& out, const MetaPairs& run_meta) {
  out += "{\"schema\": \"";
  out += kStreamSchema;
  out += "\", \"type\": \"header\", \"seq\": 0, \"run\": {";
  bool first = true;
  for (const auto& [k, v] : run_meta) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    json_escape(out, k);
    out += "\": \"";
    json_escape(out, v);
    out += '"';
  }
  out += "}}";
}

void metrics_line(std::string& out, std::uint64_t seq, StepId step,
                  Cycle cycles, const metrics::MetricsSnapshot& cumulative,
                  const metrics::MetricsSnapshot& since) {
  open_line(out, "metrics", seq);
  append_field(out, "step", step);
  append_field(out, "cycles", cycles);
  out += ", \"delta\": ";
  flat_metrics_json(out, cumulative, since);
  out += '}';
}

void sample_line(std::string& out, std::uint64_t seq,
                 const machine::StepSample& s) {
  open_line(out, "sample", seq);
  append_field(out, "step", s.step);
  append_field(out, "cycles", s.cycles);
  append_field(out, "operations", s.operations);
  append_field(out, "busy_slots", s.busy_slots);
  append_field(out, "idle_slots", s.idle_slots);
  append_field(out, "live_flows", s.live_flows);
  out += '}';
}

void events_line(std::string& out, std::uint64_t seq, StepId step,
                 const EventCounts& counts) {
  open_line(out, "events", seq);
  append_field(out, "step", step);
  out += ", \"counts\": {";
  bool first = true;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] == 0) continue;
    out += first ? "\"" : ", \"";
    first = false;
    out += machine::to_string(static_cast<machine::DebugEventKind>(k));
    out += "\": ";
    metrics::append_number(out, counts[k]);
  }
  out += "}}";
}

void log_line(std::string& out, std::uint64_t seq, const LogLine& l) {
  open_line(out, "log", seq);
  string_field(out, "level", to_string(l.level));
  string_field(out, "category", l.category);
  string_field(out, "message", l.message);
  out += '}';
}

void run_end_line(std::string& out, std::uint64_t seq, StepId step,
                  Cycle cycles, bool completed, const std::string& fault,
                  const metrics::MetricsSnapshot& cumulative,
                  const machine::MachineStats& stats, const BusStats& bus) {
  open_line(out, "run_end", seq);
  append_field(out, "step", step);
  append_field(out, "cycles", cycles);
  out += completed ? ", \"completed\": true" : ", \"completed\": false";
  if (!fault.empty()) string_field(out, "fault", fault);
  out += ", \"stats\": {\"tcf_instructions\": ";
  metrics::append_number(out, stats.tcf_instructions);
  append_field(out, "operations", stats.operations);
  append_field(out, "instruction_fetches", stats.instruction_fetches);
  append_field(out, "spawns", stats.spawns);
  append_field(out, "joins", stats.joins);
  append_field(out, "busy_slots", stats.busy_slots);
  append_field(out, "idle_slots", stats.idle_slots);
  append_field(out, "memory_wait_cycles", stats.memory_wait_cycles);
  append_field(out, "task_switch_cycles", stats.task_switch_cycles);
  out += "}, \"metrics\": ";
  flat_metrics_json(out, cumulative, {});
  out += ", \"obs\": {\"pushed\": ";
  metrics::append_number(out, bus.pushed);
  append_field(out, "written", bus.written);
  append_field(out, "dropped_records", bus.dropped_records);
  append_field(out, "dropped_logs", bus.dropped_logs);
  append_field(out, "write_errors", bus.write_errors);
  out += "}}";
}

}  // namespace tcfpn::obs
