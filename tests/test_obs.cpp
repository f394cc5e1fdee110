// Tests for the streaming telemetry bus (src/obs, DESIGN.md §13): the SPSC
// ring, the tcfpn-stream-v1 line serializers and the njson consumer parser,
// the Bus end-to-end against a file destination, and the backpressure
// contract — a tiny ring under a held sink MUST drop records, MUST count
// them, and MUST NOT perturb the simulated run: the machine ends
// bit-identical to a no-stream run at every host-thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "machine/machine.hpp"
#include "obs/bus.hpp"
#include "obs/njson.hpp"
#include "obs/record.hpp"
#include "obs/ring.hpp"
#include "obs/stream_observer.hpp"
#include "tcf/builder.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::obs {
namespace {

// ---- SpscRing -------------------------------------------------------------

TEST(SpscRingTest, FifoOrderAndCapacity) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_FALSE(ring.try_push(99));  // full: never blocks, never overwrites
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(5).capacity(), 8u);
}

TEST(SpscRingTest, WrapAroundKeepsOrder) {
  SpscRing<int> ring(2);
  int v = -1;
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(ring.try_push(2 * round));
    EXPECT_TRUE(ring.try_push(2 * round + 1));
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 2 * round);
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 2 * round + 1);
  }
}

TEST(SpscRingTest, CrossThreadTransferIsLossCountable) {
  SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kItems = 100'000;
  std::atomic<std::uint64_t> dropped{0};
  std::uint64_t received = 0, last = 0;
  std::thread consumer([&] {
    std::uint64_t v;
    while (received + dropped.load(std::memory_order_acquire) < kItems) {
      if (ring.try_pop(v)) {
        // Values arrive in push order even when some were dropped.
        EXPECT_GE(v, last);
        last = v;
        ++received;
      }
    }
  });
  for (std::uint64_t i = 0; i < kItems; ++i) {
    if (!ring.try_push(std::uint64_t(i)))
      dropped.fetch_add(1, std::memory_order_release);
  }
  consumer.join();
  EXPECT_EQ(received + dropped.load(), kItems);
  EXPECT_GT(received, 0u);
}

// ---- line serializers -----------------------------------------------------

metrics::MetricsSnapshot sample_snapshot() {
  metrics::MetricsRegistry reg;
  reg.counter("net/packets").add(7);
  reg.gauge("sched/load").set(0.75);
  reg.accumulator("mem/depth").add(3.0);
  reg.histogram("net/latency", 0.0, 8.0, 4).add(2.0);
  return reg.snapshot();
}

void expect_one_valid_line(const std::string& line) {
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
  for (unsigned char c : line) EXPECT_GE(c, 0x20u) << line;
  std::string err;
  EXPECT_TRUE(metrics::json_valid(line, &err)) << err << "\n" << line;
  JsonValue v;
  EXPECT_TRUE(parse_json(line, &v, &err)) << err << "\n" << line;
  EXPECT_TRUE(v.is_object());
}

TEST(StreamRecordTest, EveryLineKindIsSingleLineValidJson) {
  expect_one_valid_line(header_line({{"tool", "test"}, {"input", "x.tcf"}}));
  expect_one_valid_line(metrics_line(1, 8, 96, sample_snapshot()));
  machine::StepSample s{8, 96, 100, 40, 24, 3};
  expect_one_valid_line(sample_line(2, s));
  EventCounts counts{};
  counts[static_cast<std::size_t>(machine::DebugEventKind::kPrint)] = 2;
  counts[static_cast<std::size_t>(machine::DebugEventKind::kSpawn)] = 1;
  expect_one_valid_line(events_line(3, 8, counts));
  expect_one_valid_line(
      log_line(4, {LogLevel::kWarn, "obs/test", "plain message"}));
  expect_one_valid_line(run_end_line(5, 100, 1200, true, "", sample_snapshot(),
                                     machine::MachineStats{}, BusStats{}));
}

TEST(StreamRecordTest, HostileLogPayloadStaysOneFramedLine) {
  // Embedded newlines, quotes, NULs, ANSI escapes — everything a simulated
  // PRINT or a log message could smuggle toward the NDJSON framing.
  const std::string hostile =
      std::string("line1\nline2\r\n\ttab \"quoted\" back\\slash ") +
      std::string(1, '\0') + "\x1b[2J bell\x07 done";
  const std::string line =
      log_line(7, {LogLevel::kError, "obs/hostile", hostile});
  expect_one_valid_line(line);
  // The payload must round-trip exactly through the consumer parser.
  JsonValue v;
  ASSERT_TRUE(parse_json(line, &v));
  EXPECT_EQ(v.get_string("message"), hostile);
  EXPECT_EQ(v.get_string("category"), "obs/hostile");
  EXPECT_EQ(v.get_string("level"), "error");
}

TEST(StreamRecordTest, EventsLineOmitsZeroCounts) {
  EventCounts counts{};
  counts[static_cast<std::size_t>(machine::DebugEventKind::kRollback)] = 4;
  const std::string line = events_line(1, 10, counts);
  JsonValue v;
  ASSERT_TRUE(parse_json(line, &v));
  const JsonValue* c = v.get("counts");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->object().size(), 1u);
  EXPECT_EQ(c->get_number("rollback"), 4.0);
}

TEST(StreamRecordTest, FlatMetricsMatchesSnapshotLeafForLeaf) {
  const metrics::MetricsSnapshot snap = sample_snapshot();
  JsonValue v;
  ASSERT_TRUE(parse_json(flat_metrics_json(snap), &v));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.object().size(), snap.entries.size());
  EXPECT_EQ(v.get("net/packets")->get_number("value"), 7.0);
  EXPECT_EQ(v.get("sched/load")->get_number("value"), 0.75);
  EXPECT_EQ(v.get("net/latency")->get_number("count"), 1.0);
}

// ---- njson ----------------------------------------------------------------

TEST(NjsonTest, RejectsMalformedInput) {
  JsonValue v;
  EXPECT_FALSE(parse_json("", &v));
  EXPECT_FALSE(parse_json("{", &v));
  EXPECT_FALSE(parse_json("{} extra", &v));
  EXPECT_FALSE(parse_json("{\"a\": 0x10}", &v));
  EXPECT_FALSE(parse_json("{\"a\": nan}", &v));
  EXPECT_FALSE(parse_json("[1,]", &v));
  EXPECT_FALSE(parse_json("\"unterminated", &v));
  EXPECT_FALSE(parse_json("\"raw\ncontrol\"", &v));
}

TEST(NjsonTest, ParsesNumbersStringsAndNesting) {
  JsonValue v;
  ASSERT_TRUE(parse_json(
      R"({"a": -2.5e3, "b": [1, true, null], "s": "xA\n"})", &v));
  EXPECT_EQ(v.get_number("a"), -2500.0);
  EXPECT_EQ(v.get("b")->array().size(), 3u);
  EXPECT_EQ(v.get_string("s"), "xA\n");
}

// ---- Bus end-to-end -------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  return lines;
}

TEST(BusTest, WritesHeaderRecordsAndRunEndWithContiguousSeq) {
  const std::string path = testing::TempDir() + "/bus_e2e.stream";
  Bus::Config cfg;
  cfg.destination = path;
  cfg.run_meta = {{"tool", "test_obs"}};
  cfg.forward_logs = false;
  std::string err;
  auto bus = Bus::open(cfg, &err);
  ASSERT_NE(bus, nullptr) << err;

  for (int i = 1; i <= 5; ++i) {
    StreamRecord rec;
    rec.kind = RecordKind::kSample;
    rec.step = static_cast<StepId>(i);
    rec.sample.step = static_cast<StepId>(i);
    bus->publish(std::move(rec));
  }
  bus->push_log({LogLevel::kInfo, "obs/test", "hello"});
  bus->finish(5, 50, true, "", sample_snapshot(), machine::MachineStats{});
  const BusStats stats = bus->stats();
  bus.reset();

  const std::vector<std::string> lines = split_lines(read_file(path));
  ASSERT_GE(lines.size(), 8u);  // header + 5 samples + 1 log + run_end
  JsonValue first, last;
  ASSERT_TRUE(parse_json(lines.front(), &first));
  EXPECT_EQ(first.get_string("schema"), kStreamSchema);
  EXPECT_EQ(first.get_string("type"), "header");
  ASSERT_TRUE(parse_json(lines.back(), &last));
  EXPECT_EQ(last.get_string("type"), "run_end");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    JsonValue v;
    ASSERT_TRUE(parse_json(lines[i], &v)) << lines[i];
    EXPECT_EQ(v.get_number("seq"), static_cast<double>(i));
  }
  EXPECT_EQ(stats.pushed, 5u);
  EXPECT_EQ(stats.dropped_records, 0u);
  EXPECT_EQ(stats.write_errors, 0u);
}

TEST(BusTest, OpenFailsCleanlyOnBadDestination) {
  Bus::Config cfg;
  cfg.destination = testing::TempDir() + "/no-such-dir/x.stream";
  std::string err;
  EXPECT_EQ(Bus::open(cfg, &err), nullptr);
  EXPECT_FALSE(err.empty());
  cfg.destination = "unix:" + testing::TempDir() + "/no-listener.sock";
  err.clear();
  EXPECT_EQ(Bus::open(cfg, &err), nullptr);
  EXPECT_FALSE(err.empty());
}

// ---- backpressure + bit-identity -----------------------------------------

constexpr Word kN = 48;
constexpr Addr kA = 100, kC = 700, kSum = 900;

/// SPAWN/JOINALL/PPADD/PRINT program: cross-group traffic plus debug events,
/// so the stream carries every record kind while the host threads sweat.
isa::Program stream_workload() {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto worker = s.make_label("worker");
  s.ldi(r1, kN);
  s.spawn(r1, worker);
  s.joinall();
  s.ld(r2, r0, static_cast<Word>(kSum));
  s.print(r2);
  s.halt();
  s.bind(worker);
  s.tid(r2);
  s.add(r2, r2, r15);
  s.add(r3, r2, static_cast<Word>(kA));
  s.ld(r4, r3);
  s.pp(isa::Opcode::kPpAdd, r5, r4, r0, static_cast<Word>(kSum));
  s.add(r6, r2, static_cast<Word>(kC));
  s.st(r5, r6);
  s.halt();
  isa::Program p = s.build();
  std::vector<Word> av(kN);
  for (Word i = 0; i < kN; ++i) av[i] = 5 * i + 2;
  p.data.push_back({kA, av});
  return p;
}

struct RunFingerprint {
  machine::MachineStats stats;
  std::vector<Word> memory;
  std::vector<Word> debug;
  metrics::MetricsSnapshot metrics;
  bool completed = false;

  bool operator==(const RunFingerprint&) const = default;
};

machine::MachineConfig stream_cfg(std::uint32_t host_threads) {
  machine::MachineConfig cfg;
  cfg.variant = machine::Variant::kSingleInstruction;
  cfg.groups = 4;
  cfg.slots_per_group = 8;
  cfg.shared_words = 1 << 12;
  cfg.local_words = 1 << 10;
  cfg.host_threads = host_threads;
  return cfg;
}

/// Runs the workload; with `stream_path` non-empty the full streaming stack
/// is attached (cadence 1 so every step emits). `ring_capacity` 0 means the
/// default; `hold_sink` pauses the sink for the whole run, so a tiny ring
/// must overflow and the never-block policy must drop.
RunFingerprint run_workload(std::uint32_t host_threads,
                            const std::string& stream_path,
                            std::size_t ring_capacity, bool hold_sink,
                            BusStats* bus_stats = nullptr) {
  machine::Machine m(stream_cfg(host_threads));
  m.load(stream_workload());
  m.boot(1);

  std::unique_ptr<Bus> bus;
  std::unique_ptr<StreamObserver> observer;
  if (!stream_path.empty()) {
    Bus::Config cfg;
    cfg.destination = stream_path;
    cfg.run_meta = {{"tool", "test_obs"}};
    cfg.forward_logs = false;
    if (ring_capacity > 0) cfg.ring_capacity = ring_capacity;
    std::string err;
    bus = Bus::open(cfg, &err);
    EXPECT_NE(bus, nullptr) << err;
    if (hold_sink) bus->pause();
    observer = std::make_unique<StreamObserver>(*bus, 1);
    observer->attach(m);
  }

  const machine::RunResult run = m.run();

  if (bus) {
    observer->detach();
    bus->finish(m.stats().steps, m.stats().cycles, run.completed, "",
                m.metrics_snapshot(), m.stats());
    if (bus_stats != nullptr) *bus_stats = bus->stats();
  }

  RunFingerprint fp;
  fp.completed = run.completed;
  fp.stats = m.stats();
  fp.memory.reserve(m.shared().size());
  for (Addr a = 0; a < m.shared().size(); ++a)
    fp.memory.push_back(m.shared().peek(a));
  fp.debug = m.debug_output();
  fp.metrics = m.metrics_snapshot();
  return fp;
}

TEST(StreamBackpressureTest, TinyRingDropsButRunStaysBitIdentical) {
  const RunFingerprint baseline = run_workload(1, "", 0, false);
  ASSERT_TRUE(baseline.completed);

  for (const std::uint32_t ht : {1u, 2u, 8u}) {
    const std::string path = testing::TempDir() + "/backpressure_" +
                             std::to_string(ht) + ".stream";
    BusStats stats;
    const RunFingerprint streamed = run_workload(
        ht, path, /*ring_capacity=*/2, /*hold_sink=*/true, &stats);
    // The never-block contract, both halves: records were lost…
    EXPECT_GT(stats.dropped_records, 0u) << "ht=" << ht;
    EXPECT_EQ(stats.pushed,
              stats.dropped_records +
                  (stats.written - 2 /* header + run_end */))
        << "ht=" << ht;
    // …and the simulated run never noticed.
    EXPECT_TRUE(streamed == baseline) << "streamed run diverged at ht=" << ht;
    // The truncated stream is still a valid one: header first, run_end
    // last, contiguous seq, and the run_end cumulative metrics intact.
    const std::vector<std::string> lines = split_lines(read_file(path));
    ASSERT_GE(lines.size(), 2u);
    JsonValue last;
    ASSERT_TRUE(parse_json(lines.back(), &last));
    EXPECT_EQ(last.get_string("type"), "run_end");
    EXPECT_EQ(last.get("obs")->get_number("dropped_records"),
              static_cast<double>(stats.dropped_records));
  }
}

TEST(StreamObserverTest, FullStreamHasMonotoneStepsAndMatchesRun) {
  const std::string path = testing::TempDir() + "/full.stream";
  BusStats stats;
  const RunFingerprint fp =
      run_workload(2, path, /*ring_capacity=*/1 << 14,
                   /*hold_sink=*/false, &stats);
  ASSERT_TRUE(fp.completed);
  EXPECT_EQ(stats.dropped_records, 0u);

  const std::vector<std::string> lines = split_lines(read_file(path));
  ASSERT_GE(lines.size(), 3u);
  double last_step = 0;
  std::uint64_t data_lines = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    JsonValue v;
    ASSERT_TRUE(parse_json(lines[i], &v)) << lines[i];
    EXPECT_EQ(v.get_number("seq"), static_cast<double>(i));
    const std::string type = v.get_string("type");
    if (type == "metrics" || type == "sample" || type == "events") {
      EXPECT_GE(v.get_number("step"), last_step) << lines[i];
      last_step = v.get_number("step");
      ++data_lines;
    }
  }
  EXPECT_GT(data_lines, 0u);

  JsonValue end;
  ASSERT_TRUE(parse_json(lines.back(), &end));
  ASSERT_EQ(end.get_string("type"), "run_end");
  EXPECT_EQ(end.get_number("step"), static_cast<double>(fp.stats.steps));
  EXPECT_EQ(end.get_number("cycles"), static_cast<double>(fp.stats.cycles));
  // The cumulative metrics on run_end are the --metrics-json values: every
  // counter leaf must match the final snapshot exactly.
  const JsonValue* cumulative = end.get("metrics");
  ASSERT_NE(cumulative, nullptr);
  for (const auto& [path_key, value] : fp.metrics.entries) {
    const JsonValue* leaf = cumulative->get(path_key);
    ASSERT_NE(leaf, nullptr) << path_key;
    if (value.kind == metrics::InstrumentKind::kCounter) {
      EXPECT_EQ(leaf->get_number("value"),
                static_cast<double>(value.count))
          << path_key;
    }
  }
}

}  // namespace
}  // namespace tcfpn::obs
