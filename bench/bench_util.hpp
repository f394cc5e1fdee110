// Shared helpers for the experiment benches. Every bench prints the paper
// artefact it regenerates, the machine parameters, and paper-shaped rows.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/table.hpp"
#include "machine/machine.hpp"
#include "machine/telemetry.hpp"

namespace tcfpn::bench {

inline machine::MachineConfig default_cfg(std::uint32_t groups = 4,
                                          std::uint32_t slots = 16) {
  machine::MachineConfig cfg;
  cfg.groups = groups;
  cfg.slots_per_group = slots;
  cfg.shared_words = 1u << 20;
  cfg.local_words = 1u << 14;
  cfg.topology = net::TopologyKind::kMesh2D;
  return cfg;
}

inline void banner(const std::string& artefact, const std::string& claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", artefact.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) {
  std::printf("-- %s\n", text.c_str());
}

/// Writes the machine's metrics document to `<bench>_metrics.json` when the
/// TCFPN_METRICS_DIR env var points at a directory — the benches' analogue
/// of tcfrun's --metrics-json. Off by default so bench output stays pure.
inline void export_metrics_if_requested(const machine::Machine& m,
                                        const machine::RunResult& run,
                                        const std::string& bench) {
  const char* dir = std::getenv("TCFPN_METRICS_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/" + bench + "_metrics.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench: cannot write '%s'\n", path.c_str());
    return;
  }
  out << machine::metrics_json_document(m, run, {{"tool", bench}});
  note("metrics written to " + path);
}

}  // namespace tcfpn::bench
