// Stepping engine on a Table-1-scale workload: wall clock, pinned simulated
// results, and the cost of streaming telemetry.
//
// P groups, one flow per group at thickness 4096, single-instruction
// variant. One plain run gives the wall clock and the simulated cycles and
// steps that tools/check_bench.py pins exactly. The streaming lane then
// measures what an attached obs::Bus costs the stepping thread and checks
// that every MachineStats field, the metrics snapshot and the shared-memory
// image stay bit-identical with streaming on.
//
// Results land in BENCH_parallel_step.json next to the working directory;
// the JSON includes std::thread::hardware_concurrency() because the
// streaming lane's sink thread needs a spare core to be judged.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "machine/machine.hpp"
#include "obs/bus.hpp"
#include "obs/stream_observer.hpp"
#include "tcf/builder.hpp"

using namespace tcfpn;

namespace {

constexpr Word kThickness = 4096;
constexpr std::uint32_t kGroups = 8;
constexpr Word kIters = 64;  // x 10 thick instructions/iter = 640 per flow
constexpr Addr kBase = 1 << 16;

// Each group's flow sweeps its own 8K-word window: thick loads, an ALU
// chain, thick stores, and a scalar loop counter — the per-step mix the
// engine sees on the Table 1 kernels.
isa::Program workload() {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto loop = s.make_label("loop");
  s.ldi(r1, kIters);
  s.bind(loop);
  s.tid(r2);
  s.gid(r3);
  s.shl(r3, r3, Word{13});
  s.add(r3, r3, static_cast<Word>(kBase));
  s.add(r3, r3, r2);  // per-lane address inside the group window
  s.ld(r4, r3);
  s.add(r4, r4, Word{1});
  s.mul(r5, r4, Word{3});
  s.st(r5, r3);
  s.sub(r1, r1, Word{1});
  s.bnez(r1, loop);
  s.halt();
  return s.build();
}

struct Sample {
  double seconds;
  machine::MachineStats stats;
  std::uint64_t mem_fingerprint;
  metrics::MetricsSnapshot metrics;

  /// The simulated results, the wall clock aside.
  bool same_results(const Sample& o) const {
    return stats == o.stats && mem_fingerprint == o.mem_fingerprint &&
           metrics == o.metrics;
  }
};

// Step cadence of the streaming lane — the tools' --stream-every default.
constexpr StepId kStreamEvery = 64;

Sample run_once(const isa::Program& prog, bool streamed = false,
                obs::BusStats* bus_stats = nullptr) {
  auto cfg = bench::default_cfg(kGroups, 16);
  cfg.shared_words = 1u << 21;
  machine::Machine m(cfg);
  m.load(prog);
  for (GroupId g = 0; g < kGroups; ++g) {
    m.boot_at(prog.entry(), kThickness, g);
  }
  // The streaming lane measures the full stack — observer windows, ring
  // traffic, sink serialization — minus disk noise (/dev/null destination).
  std::unique_ptr<obs::Bus> bus;
  std::unique_ptr<obs::StreamObserver> observer;
  if (streamed) {
    obs::Bus::Config bcfg;
    bcfg.destination = "/dev/null";
    bcfg.run_meta = {{"tool", "bench_parallel_step"}};
    bcfg.forward_logs = false;
    std::string err;
    bus = obs::Bus::open(bcfg, &err);
    if (!bus) {
      std::fprintf(stderr, "cannot open stream: %s\n", err.c_str());
      std::exit(1);
    }
    observer = std::make_unique<obs::StreamObserver>(*bus, kStreamEvery);
    observer->attach(m);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto run = m.run();
  const auto t1 = std::chrono::steady_clock::now();
  if (streamed) {
    observer->detach();
    bus->finish(m.stats().steps, m.stats().cycles, run.completed, "",
                m.metrics_snapshot(), m.stats());
    if (bus_stats != nullptr) *bus_stats = bus->stats();
  }
  if (!run.completed) {
    std::fprintf(stderr, "workload did not complete\n");
    std::exit(1);
  }
  // FNV-1a over the touched shared-memory windows: a cheap but sensitive
  // commit-order witness.
  std::uint64_t h = 1469598103934665603ull;
  for (GroupId g = 0; g < kGroups; ++g) {
    for (Word i = 0; i < kThickness; ++i) {
      const Addr a = kBase + (static_cast<Addr>(g) << 13) +
                     static_cast<Addr>(i);
      h ^= static_cast<std::uint64_t>(m.shared().peek(a));
      h *= 1099511628211ull;
    }
  }
  if (!streamed) bench::export_metrics_if_requested(m, run, "parallel_step");
  return Sample{std::chrono::duration<double>(t1 - t0).count(), m.stats(), h,
                m.metrics_snapshot()};
}

}  // namespace

int main() {
  bench::banner(
      "STEPPING ENGINE — wall clock and pinned simulated results",
      "P groups step in lockstep; effects merge at the step barrier in "
      "group order, so cycles and steps are a function of the program");
  bench::note("hardware_concurrency = " +
              std::to_string(std::thread::hardware_concurrency()));

  const isa::Program prog = workload();
  const Sample base = run_once(prog);
  Table t({"wall-clock s", "simulated cycles", "simulated steps"});
  t.add_row({std::to_string(base.seconds), std::to_string(base.stats.cycles),
             std::to_string(base.stats.steps)});
  t.print();

  // ---- Streaming overhead lane (DESIGN.md §13) ----
  //
  // The telemetry bus promises near-zero cost on the stepping thread: a
  // snapshot move and a few integer copies per cadence window; formatting
  // and I/O live on the sink thread. Measure it: best-of-3 wall clock with
  // and without --stream, and verify the simulated results stay
  // bit-identical with streaming on.
  double plain_best = 0, stream_best = 0;
  obs::BusStats bus_stats;
  bool stream_identical = true;
  for (int i = 0; i < 3; ++i) {
    const Sample plain = run_once(prog);
    if (i == 0 || plain.seconds < plain_best) plain_best = plain.seconds;
    obs::BusStats bs;
    const Sample streamed = run_once(prog, /*streamed=*/true, &bs);
    if (i == 0 || streamed.seconds < stream_best) {
      stream_best = streamed.seconds;
      bus_stats = bs;
    }
    stream_identical = stream_identical && streamed.same_results(base);
  }
  if (!stream_identical) {
    std::fprintf(stderr, "DETERMINISM VIOLATION with streaming attached\n");
    return 1;
  }
  const double overhead = stream_best / plain_best - 1.0;
  // The sink thread needs a spare core: on a 1-core host it time-slices
  // against the stepping thread, so wall clock measures the scheduler, not
  // the producer-side cost the ≤5% budget is about. Report the number, flag
  // it, never judge it.
  const bool stream_oversubscribed = std::thread::hardware_concurrency() < 2;
  bench::note("streaming overhead (cadence " + std::to_string(kStreamEvery) +
              ", best of 3): " + std::to_string(overhead * 100.0) + "% (" +
              std::to_string(bus_stats.written) + " records written, " +
              std::to_string(bus_stats.dropped_records) + " dropped" +
              (stream_oversubscribed ? ", single-core host: not judged" : "") +
              ")");

  std::FILE* f = std::fopen("BENCH_parallel_step.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_parallel_step.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"workload\": \"P=%u groups, thickness %lld, %lld thick "
               "instructions/flow\",\n"
               "  \"variant\": \"single-instruction\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"simulated_cycles\": %llu,\n"
               "  \"simulated_steps\": %llu,\n"
               "  \"wall_clock_s\": %.6f,\n",
               kGroups, static_cast<long long>(kThickness),
               static_cast<long long>(kIters * 10),
               std::thread::hardware_concurrency(),
               static_cast<unsigned long long>(base.stats.cycles),
               static_cast<unsigned long long>(base.stats.steps),
               base.seconds);
  std::fprintf(f,
               "  \"streaming\": {\"stream_every\": %llu, "
               "\"baseline_wall_clock_s\": %.6f, \"wall_clock_s\": %.6f, "
               "\"overhead\": %.4f, \"records_pushed\": %llu, "
               "\"records_written\": %llu, \"dropped_records\": %llu, "
               "\"bit_identical\": true, \"oversubscribed\": %s}\n",
               static_cast<unsigned long long>(kStreamEvery), plain_best,
               stream_best, overhead,
               static_cast<unsigned long long>(bus_stats.pushed),
               static_cast<unsigned long long>(bus_stats.written),
               static_cast<unsigned long long>(bus_stats.dropped_records),
               stream_oversubscribed ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  bench::note("wrote BENCH_parallel_step.json");
  return 0;
}
