#include "machine/telemetry.hpp"

#include <sstream>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "machine/shapes.hpp"

namespace tcfpn::machine {

namespace {

MetaPairs run_metadata(const Machine& m, const MetaPairs& extra) {
  const MachineConfig& cfg = m.config();
  MetaPairs meta = extra;
  meta.emplace_back("variant", to_string(cfg.variant));
  meta.emplace_back("groups", std::to_string(cfg.groups));
  meta.emplace_back("slots_per_group", std::to_string(cfg.slots_per_group));
  meta.emplace_back("crcw", mem::to_string(cfg.crcw));
  meta.emplace_back("machine_shape", shape_summary(cfg));
  return meta;
}

}  // namespace

std::string metrics_json_document(const Machine& m, const RunResult& run,
                                  const MetaPairs& extra) {
  std::ostringstream os;
  os << "{\n  \"run\": {\n";
  for (const auto& [k, v] : run_metadata(m, extra)) {
    // Metadata values are strings; numbers stay readable and the schema
    // stays uniform for the validator.
    os << "    \"" << metrics::json_escape(k) << "\": \""
       << metrics::json_escape(v) << "\",\n";
  }
  os << "    \"completed\": " << (run.completed ? "true" : "false") << ",\n"
     << "    \"steps\": " << run.steps << ",\n"
     << "    \"cycles\": " << run.cycles << "\n"
     << "  },\n";
  os << "  \"metrics\": " << m.metrics_snapshot().to_json(2);
  const auto& samples = m.step_samples();
  if (!samples.empty()) {
    os << ",\n  \"samples\": [";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const StepSample& s = samples[i];
      os << (i ? "," : "") << "\n    {\"step\": " << s.step
         << ", \"cycles\": " << s.cycles
         << ", \"operations\": " << s.operations
         << ", \"busy_slots\": " << s.busy_slots
         << ", \"idle_slots\": " << s.idle_slots
         << ", \"live_flows\": " << s.live_flows << "}";
    }
    os << "\n  ]";
  }
  os << "\n}\n";
  return os.str();
}

std::string trace_json_document(const Machine& m, const MetaPairs& extra) {
  return chrome_trace_json(m.trace(), m.host_spans(), run_metadata(m, extra),
                           m.host_spans_truncated());
}

prof::RunInfo profile_run_info(const Machine& m, const RunResult& run,
                               const std::string& program,
                               const MetaPairs& extra) {
  prof::RunInfo info;
  info.program = program;
  info.meta = run_metadata(m, extra);
  info.completed = run.completed;
  info.steps = run.steps;
  info.cycles = m.stats().cycles;
  info.pipeline_fill = m.step_fill();
  return info;
}

std::string profile_json_document(const Machine& m, const RunResult& run,
                                  const std::string& program,
                                  const MetaPairs& extra) {
  return prof::report_json(m.profile(),
                           profile_run_info(m, run, program, extra));
}

}  // namespace tcfpn::machine
