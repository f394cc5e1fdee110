// Machine-readable telemetry documents for a finished (or in-flight) run.
//
// Two formats, both dependency-free:
//
//  - metrics_json_document: run metadata + the machine's full metrics
//    registry snapshot as a nested JSON object (one subtree per subsystem:
//    "net", "mem", "sched", "machine") + the optional per-step time series
//    (cfg.sample_every). The snapshot holds only simulated counts — no
//    wall-clock value enters the registry — so two runs of the same program
//    and config produce byte-identical "metrics" subtrees.
//
//  - trace_json_document: the Chrome trace-event / Perfetto rendering of the
//    simulated schedule (cfg.record_trace) and the host-side phase timings
//    (cfg.profile_host). Open in ui.perfetto.dev or chrome://tracing.
//
// The CLI drivers (--metrics-json / --trace-json), the benches and the tests
// all build their documents through these two functions.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "prof/report.hpp"

namespace tcfpn::machine {

using MetaPairs = std::vector<std::pair<std::string, std::string>>;

/// Serialises run metadata, the metrics snapshot and any step samples as one
/// JSON document. `extra` key/value pairs (tool name, input file, ...) are
/// merged into the "run" object.
std::string metrics_json_document(const Machine& m, const RunResult& run,
                                  const MetaPairs& extra = {});

/// Serialises the schedule trace and host spans as Chrome trace-event JSON.
/// `extra` pairs land under "otherData" alongside the machine description,
/// including a "truncated" flag when the host-span buffer overflowed.
std::string trace_json_document(const Machine& m, const MetaPairs& extra = {});

/// Serialises the attribution profile (cfg.profile, src/prof) as a
/// "tcfpn-profile-v1" document: run metadata, the closed-world term list,
/// per-term totals, every (group, tcf, pc, term) cell, the step-criticality
/// aggregate and the folded flame-graph stacks. `program` names the
/// folded-stack root.
std::string profile_json_document(const Machine& m, const RunResult& run,
                                  const std::string& program,
                                  const MetaPairs& extra = {});

/// The prof::RunInfo for a run — shared by the JSON export above and the
/// tcfprof report renderers.
prof::RunInfo profile_run_info(const Machine& m, const RunResult& run,
                               const std::string& program,
                               const MetaPairs& extra = {});

}  // namespace tcfpn::machine
