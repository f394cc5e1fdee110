// Scenario workload suite across heterogeneous machine shapes: Table 1,
// regenerated per shape (DESIGN.md §12).
//
// Every scenarios/*.tcf workload runs on each canonical machine shape
// (uniform PRAM, fat-NUMA + thin-PRAM mix, fixed-thickness GPU-like) under
// the single-instruction and balanced variants with the placement-aware
// throughput-LPT hook installed. A row's numbers count only with
// oracle_match: full shared memory and the PRINT stream bit-identical to
// the sequential Section-3.1 oracle. Rows land in BENCH_scenarios.json
// (schema "tcfpn-scenarios-v1"), judged against the committed baseline by
// tools/check_bench.py: the simulated cycle/step columns are semantics,
// not noise, and must not drift.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "conformance/diff.hpp"
#include "conformance/gen.hpp"
#include "conformance/oracle.hpp"
#include "conformance/scenario.hpp"
#include "machine/shapes.hpp"
#include "sched/allocation.hpp"

using namespace tcfpn;

namespace {

const char* const kShapes[] = {"uniform", "fat-thin", "gpu"};

struct Lane {
  machine::Variant variant;
  std::uint32_t bound;
  const char* name;
};
const Lane kLanes[] = {
    {machine::Variant::kSingleInstruction, 16, "single-instruction"},
    {machine::Variant::kBalanced, 16, "balanced:16"},
};

struct Row {
  std::string scenario;
  std::string shape;
  std::string machine_shape;  ///< shape_summary of the parsed config
  std::string variant;
  std::uint64_t total_slots = 0;
  machine::MachineStats stats;
  std::uint64_t fill_cycles = 0;  ///< Table 1 term split, from the registry
  std::uint64_t slot_cycles = 0;
  std::uint64_t mem_cycles = 0;
  double wall_clock_s = 0;
  bool oracle_match = false;
};

machine::MachineConfig shaped_cfg(const Lane& lane, const std::string& shape) {
  machine::MachineConfig cfg = conformance::lane_config(
      lane.variant, lane.bound, mem::CrcwPolicy::kArbitrary);
  machine::apply_shape(cfg, shape);
  return cfg;
}

struct RunSnap {
  machine::MachineStats stats;
  std::vector<Word> prints;
  double seconds = 0;
  bool completed = false;
  std::uint64_t fill_cycles = 0;
  std::uint64_t slot_cycles = 0;
  std::uint64_t mem_cycles = 0;
  std::vector<Word> shared;
};

std::uint64_t counter_of(const metrics::MetricsSnapshot& s,
                         const std::string& path) {
  const auto it = s.entries.find(path);
  return it == s.entries.end() ? 0 : it->second.count;
}

RunSnap run_once(const conformance::Scenario& sc,
                 const machine::MachineConfig& cfg) {
  machine::Machine m(cfg);
  m.load(sc.program);
  sched::install_throughput_lpt_hook(m);
  m.boot(sc.boot_thickness);
  const auto t0 = std::chrono::steady_clock::now();
  const auto run = m.run(1u << 22);
  const auto t1 = std::chrono::steady_clock::now();
  RunSnap o;
  o.completed = run.completed;
  o.stats = m.stats();
  o.prints = m.debug_output();
  o.seconds = std::chrono::duration<double>(t1 - t0).count();
  const metrics::MetricsSnapshot snap = m.metrics_snapshot();
  o.fill_cycles = counter_of(snap, "machine/pipeline_fill_cycles");
  o.slot_cycles = counter_of(snap, "machine/slot_term_cycles");
  o.mem_cycles = counter_of(snap, "machine/memory_term_cycles");
  o.shared.resize(conformance::kSharedWords);
  for (Addr a = 0; a < conformance::kSharedWords; ++a) {
    o.shared[a] = m.shared().peek(a);
  }
  return o;
}

}  // namespace

int main() {
  bench::banner(
      "SCENARIO SUITE x MACHINE SHAPES — Table 1 per heterogeneous shape",
      "real TCF workloads (sort/BFS/histogram/spmv/compact) on uniform, "
      "fat-NUMA+thin-PRAM and GPU-like machines; every row oracle-checked "
      "before its cycles count");

#ifndef TCFPN_SCENARIOS_DIR
#error "TCFPN_SCENARIOS_DIR must point at the scenarios/ suite"
#endif
  const std::vector<conformance::Scenario> suite =
      conformance::scenario_suite(TCFPN_SCENARIOS_DIR);

  std::vector<Row> rows;
  bool all_ok = true;
  for (const char* shape : kShapes) {
    Table t({"scenario", "variant", "cycles", "steps", "fill", "slot", "mem",
             "util%", "oracle"});
    for (const conformance::Scenario& sc : suite) {
      // One oracle run per scenario: the yardstick for every shape/lane.
      conformance::OracleOptions oo;
      oo.shared_words = conformance::kSharedWords;
      oo.local_words = conformance::kLocalWords;
      oo.max_steps = 1u << 22;
      const conformance::OracleResult want = conformance::run_oracle(
          sc.program, sc.boot_thickness, /*boot_flows=*/0,
          /*esm_boot=*/false, oo);
      for (const Lane& lane : kLanes) {
        const machine::MachineConfig cfg = shaped_cfg(lane, shape);
        const RunSnap one = run_once(sc, cfg);
        Row r;
        r.scenario = sc.name;
        r.shape = shape;
        r.machine_shape = machine::shape_summary(cfg);
        r.variant = lane.name;
        r.total_slots = cfg.total_slots();
        r.stats = one.stats;
        r.fill_cycles = one.fill_cycles;
        r.slot_cycles = one.slot_cycles;
        r.mem_cycles = one.mem_cycles;
        r.wall_clock_s = one.seconds;
        r.oracle_match = want.completed && one.completed &&
                         one.shared == want.shared &&
                         one.prints == want.debug;
        all_ok = all_ok && r.oracle_match;
        t.add_row({r.scenario, r.variant, std::to_string(r.stats.cycles),
                   std::to_string(r.stats.steps),
                   std::to_string(r.fill_cycles),
                   std::to_string(r.slot_cycles),
                   std::to_string(r.mem_cycles),
                   std::to_string(
                       static_cast<int>(100 * r.stats.utilization())),
                   r.oracle_match ? "yes" : "NO"});
        rows.push_back(std::move(r));
      }
    }
    bench::note(std::string("shape = ") + shape + " (" +
                machine::shape_summary(shaped_cfg(kLanes[0], shape)) +
                ")");
    t.print();
  }

  std::FILE* f = std::fopen("BENCH_scenarios.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_scenarios.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"tcfpn-scenarios-v1\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"rows\": [\n",
               std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"shape\": \"%s\", "
        "\"machine_shape\": \"%s\", \"variant\": \"%s\", "
        "\"total_slots\": %llu, "
        "\"simulated_cycles\": %llu, \"simulated_steps\": %llu, "
        "\"fill_cycles\": %llu, \"slot_cycles\": %llu, "
        "\"mem_cycles\": %llu, \"switch_cycles\": %llu, "
        "\"utilization\": %.4f, \"wall_clock_s\": %.6f, "
        "\"oracle_match\": %s}%s\n",
        r.scenario.c_str(), r.shape.c_str(), r.machine_shape.c_str(),
        r.variant.c_str(), static_cast<unsigned long long>(r.total_slots),
        static_cast<unsigned long long>(r.stats.cycles),
        static_cast<unsigned long long>(r.stats.steps),
        static_cast<unsigned long long>(r.fill_cycles),
        static_cast<unsigned long long>(r.slot_cycles),
        static_cast<unsigned long long>(r.mem_cycles),
        static_cast<unsigned long long>(r.stats.task_switch_cycles),
        r.stats.utilization(), r.wall_clock_s,
        r.oracle_match ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  bench::note("wrote BENCH_scenarios.json");

  if (!all_ok) {
    std::fprintf(stderr, "scenario suite: an oracle check failed\n");
    return 1;
  }
  return 0;
}
