// Tests for the streaming telemetry bus (src/obs, DESIGN.md §13): the
// tcfpn-stream-v1 line serializers and the njson consumer parser, the Bus
// end-to-end against a file destination, and the backpressure contract — a
// consumer that does not read MUST make the bus drop lines, the bus MUST
// count them, and the simulated run MUST NOT notice: the machine ends
// bit-identical to a no-stream run.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "machine/machine.hpp"
#include "obs/bus.hpp"
#include "obs/njson.hpp"
#include "obs/record.hpp"
#include "obs/stream_observer.hpp"
#include "tcf/builder.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::obs {
namespace {

// ---- line serializers -----------------------------------------------------

metrics::MetricsSnapshot sample_snapshot() {
  metrics::MetricsRegistry reg;
  reg.counter("net/packets").add(7);
  reg.accumulator("mem/depth").add(0.75);
  reg.histogram("net/latency", 0.0, 8.0, 4).add(2.0);
  return reg.snapshot();
}

/// The one line `serialize` appends to an empty buffer.
template <typename Serializer, typename... Args>
std::string line_of(Serializer serialize, const Args&... args) {
  std::string out;
  serialize(out, args...);
  return out;
}

void expect_one_valid_line(const std::string& line) {
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
  for (unsigned char c : line) EXPECT_GE(c, 0x20u) << line;
  std::string err;
  JsonValue v;
  EXPECT_TRUE(parse_json(line, &v, &err)) << err << "\n" << line;
  EXPECT_TRUE(v.is_object());
}

TEST(StreamRecordTest, EveryLineKindIsSingleLineValidJson) {
  expect_one_valid_line(line_of(
      header_line, MetaPairs{{"tool", "test"}, {"input", "x.tcf"}}));
  expect_one_valid_line(line_of(metrics_line, 1, 8, 96, sample_snapshot(),
                                metrics::MetricsSnapshot{}));
  machine::StepSample s{8, 96, 100, 40, 24, 3};
  expect_one_valid_line(line_of(sample_line, 2, s));
  EventCounts counts{};
  counts[static_cast<std::size_t>(machine::DebugEventKind::kPrint)] = 2;
  counts[static_cast<std::size_t>(machine::DebugEventKind::kSpawn)] = 1;
  expect_one_valid_line(line_of(events_line, 3, 8, counts));
  expect_one_valid_line(line_of(
      log_line, 4, LogLine{LogLevel::kWarn, "obs/test", "plain message"}));
  expect_one_valid_line(line_of(run_end_line, 5, 100, 1200, true,
                                std::string(), sample_snapshot(),
                                machine::MachineStats{}, BusStats{}));
}

TEST(StreamRecordTest, HostileLogPayloadStaysOneFramedLine) {
  // Embedded newlines, quotes, NULs, ANSI escapes — everything a simulated
  // PRINT or a log message could smuggle toward the NDJSON framing.
  const std::string hostile =
      std::string("line1\nline2\r\n\ttab \"quoted\" back\\slash ") +
      std::string(1, '\0') + "\x1b[2J bell\x07 done";
  const std::string line = line_of(
      log_line, 7, LogLine{LogLevel::kError, "obs/hostile", hostile});
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
  const std::string line = line_of(events_line, 1, 10, counts);
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
  ASSERT_TRUE(parse_json(
      line_of(flat_metrics_json, snap, metrics::MetricsSnapshot{}), &v));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.object().size(), snap.entries.size());
  EXPECT_EQ(v.get("net/packets")->get_number("value"), 7.0);
  EXPECT_EQ(v.get("mem/depth")->get_number("sum"), 0.75);
  EXPECT_EQ(v.get("net/latency")->get_number("count"), 1.0);

  // A window: leaves in `since` subtract, leaves absent from it pass
  // through unchanged.
  metrics::MetricsSnapshot since;
  since.entries["net/packets"].count = 3;  // a counter, the default kind
  ASSERT_TRUE(parse_json(line_of(flat_metrics_json, snap, since), &v));
  EXPECT_EQ(v.object().size(), snap.entries.size());
  EXPECT_EQ(v.get("net/packets")->get_number("value"), 4.0);
  EXPECT_EQ(v.get("net/latency")->get_number("count"), 1.0);
}

// ---- njson ----------------------------------------------------------------

TEST(NjsonTest, RejectsMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(parse_json("", &v));
  EXPECT_FALSE(parse_json("{", &v));
  EXPECT_FALSE(parse_json("{} extra", &v));
  EXPECT_FALSE(parse_json("{\"a\": 0x10}", &v));
  EXPECT_FALSE(parse_json("{\"a\": nan}", &v));
  EXPECT_FALSE(parse_json("[1,]", &v));
  EXPECT_FALSE(parse_json("{\"a\": [1,]}", &v));
  EXPECT_FALSE(parse_json("\"unterminated", &v));
  EXPECT_FALSE(parse_json("\"raw\ncontrol\"", &v));
  // Leading zeros are not JSON; a lone zero before '.', 'e' or the end is.
  EXPECT_FALSE(parse_json("{\"a\": 01}", &v, &err));
  EXPECT_EQ(err, "leading zero in number at offset 8");
  EXPECT_FALSE(parse_json("-00.5", &v));
  EXPECT_FALSE(parse_json("[007]", &v));
  // JSON whitespace is space, tab, CR and LF only.
  EXPECT_FALSE(parse_json("[\v1]", &v));
  EXPECT_FALSE(parse_json("{}\f", &v));
  EXPECT_TRUE(parse_json("{}", &v));
  EXPECT_TRUE(parse_json(R"({"a": [1, -2.5e3, true, null, "s\n"]})", &v));
  EXPECT_TRUE(parse_json("[0, -0, 0.5, -0.5, 0e3, 10, 100.01]", &v));
  ASSERT_EQ(v.array().size(), 7u);
  EXPECT_EQ(v.array()[6].number(), 100.01);
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

  for (StepId i = 1; i <= 5; ++i) bus->sample({i, 10 * i, 0, 0, 0, 0});
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
/// so the stream carries every record kind; then `spin` rounds of a scalar
/// countdown loop to lengthen the run.
isa::Program stream_workload(Word spin) {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto worker = s.make_label("worker");
  s.ldi(r1, kN);
  s.spawn(r1, worker);
  s.joinall();
  s.ld(r2, r0, static_cast<Word>(kSum));
  s.print(r2);
  if (spin > 0) {
    auto loop = s.make_label("spin");
    s.ldi(r7, spin);
    s.bind(loop);
    s.sub(r7, r7, Word{1});
    s.bnez(r7, loop);
  }
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

machine::MachineConfig stream_cfg() {
  machine::MachineConfig cfg;
  cfg.variant = machine::Variant::kSingleInstruction;
  cfg.groups = 4;
  cfg.slots_per_group = 8;
  cfg.shared_words = 1 << 12;
  cfg.local_words = 1 << 10;
  return cfg;
}

/// Runs the workload; with `destination` non-empty the full streaming stack
/// is attached (cadence 1 so every step emits). `before_finish` runs after
/// the run and before Bus::finish, which waits until the destination has
/// taken every pending byte.
RunFingerprint run_workload(const std::string& destination, Word spin = 0,
                            BusStats* bus_stats = nullptr,
                            const std::function<void()>& before_finish = {}) {
  machine::Machine m(stream_cfg());
  m.load(stream_workload(spin));
  m.boot(1);

  std::unique_ptr<Bus> bus;
  std::unique_ptr<StreamObserver> observer;
  if (!destination.empty()) {
    Bus::Config cfg;
    cfg.destination = destination;
    cfg.run_meta = {{"tool", "test_obs"}};
    cfg.forward_logs = false;
    std::string err;
    bus = Bus::open(cfg, &err);
    if (bus == nullptr) {
      ADD_FAILURE() << err;
      return {};
    }
    observer = std::make_unique<StreamObserver>(*bus, 1);
    observer->attach(m);
  }

  const machine::RunResult run = m.run();

  if (bus) {
    observer->detach();
    if (before_finish) before_finish();
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

// Countdown rounds for the stalled-consumer run: two steps each, and at
// cadence 1 every step offers three lines — about 4 MB over the run's 2,014
// steps, far past what the socket buffer and the bus's pending bound hold.
constexpr Word kSpin = 1000;

/// A listening UNIX stream socket at `path`, or -1.
int listen_unix(const std::string& path) {
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 1) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Accepts one connection on `listener` and appends everything read from it
/// to `text` (adding the byte count to `read_bytes`) until the peer closes.
void read_all(int listener, std::string& text,
              std::atomic<std::size_t>* read_bytes = nullptr) {
  const int conn = ::accept(listener, nullptr, nullptr);
  char buf[1 << 16];
  for (ssize_t n; (n = ::read(conn, buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
    if (read_bytes != nullptr) *read_bytes += static_cast<std::size_t>(n);
  }
  ::close(conn);
}

TEST(StreamBackpressureTest, StalledSocketDropsButRunStaysBitIdentical) {
  const RunFingerprint baseline = run_workload("", kSpin);
  ASSERT_TRUE(baseline.completed);

  // A listener that nobody reads while the run streams into it.
  const std::string sock = testing::TempDir() + "/stalled.sock";
  const int listener = listen_unix(sock);
  ASSERT_GE(listener, 0);

  // Read only once the run is over, so that finish() can write the rest;
  // the bus closing its socket ends the read.
  std::string text;
  std::thread reader;
  BusStats stats;
  const RunFingerprint streamed =
      run_workload("unix:" + sock, kSpin, &stats, [&] {
        reader = std::thread([&] { read_all(listener, text); });
      });
  if (reader.joinable()) reader.join();
  ::close(listener);
  ::unlink(sock.c_str());
  ASSERT_TRUE(streamed.completed);

  // The never-wait contract, both halves: records were lost…
  EXPECT_GT(stats.dropped_records, 0u);
  EXPECT_EQ(stats.pushed,
            stats.dropped_records + (stats.written - 2 /* header + run_end */));
  EXPECT_EQ(stats.write_errors, 0u);
  // …and the simulated run never noticed.
  EXPECT_TRUE(streamed == baseline) << "streamed run diverged";
  // The thinned stream is still a valid one: header first, contiguous seq,
  // run_end last with the drop count.
  const std::vector<std::string> lines = split_lines(text);
  ASSERT_EQ(lines.size(), stats.written);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    JsonValue v;
    ASSERT_TRUE(parse_json(lines[i], &v)) << lines[i];
    EXPECT_EQ(v.get_number("seq"), static_cast<double>(i));
  }
  JsonValue first, last;
  ASSERT_TRUE(parse_json(lines.front(), &first));
  EXPECT_EQ(first.get_string("type"), "header");
  ASSERT_TRUE(parse_json(lines.back(), &last));
  EXPECT_EQ(last.get_string("type"), "run_end");
  EXPECT_EQ(last.get("obs")->get_number("dropped_records"),
            static_cast<double>(stats.dropped_records));
}

// A consumer that stalls and then reads again gets the rest of the run: once
// it has drained the socket, the next line offered to the bus finds room,
// however full the pending buffer was when the stall ended.
TEST(StreamBackpressureTest, ResumedConsumerGetsTheRestOfTheRun) {
  const std::string sock = testing::TempDir() + "/resumed.sock";
  const int listener = listen_unix(sock);
  ASSERT_GE(listener, 0);

  machine::Machine m(stream_cfg());
  m.load(stream_workload(kSpin));
  m.boot(1);
  Bus::Config cfg;
  cfg.destination = "unix:" + sock;
  cfg.forward_logs = false;
  std::string err;
  std::unique_ptr<Bus> bus = Bus::open(cfg, &err);
  ASSERT_NE(bus, nullptr) << err;
  StreamObserver observer(*bus, 1);
  observer.attach(m);

  // The stall: nobody reads for the first kStalledSteps steps, enough to
  // fill the socket buffer and the bus's pending bound.
  constexpr StepId kStalledSteps = 1000;
  ASSERT_FALSE(m.run(kStalledSteps).completed);
  ASSERT_GT(bus->stats().dropped_records, 0u);

  // The consumer resumes; the run goes on once it has read a line's worth,
  // so the socket has room again.
  std::string text;
  std::atomic<std::size_t> read_bytes{0};
  std::thread reader([&] { read_all(listener, text, &read_bytes); });
  while (read_bytes.load() < 4096) std::this_thread::yield();
  const machine::RunResult run = m.run();
  observer.detach();
  bus->finish(m.stats().steps, m.stats().cycles, run.completed, "",
              m.metrics_snapshot(), m.stats());
  const BusStats stats = bus->stats();
  bus.reset();  // closes the socket, which ends the read
  reader.join();
  ::close(listener);
  ::unlink(sock.c_str());
  ASSERT_TRUE(run.completed);

  EXPECT_GT(stats.dropped_records, 0u);
  EXPECT_EQ(stats.write_errors, 0u);
  const std::vector<std::string> lines = split_lines(text);
  ASSERT_EQ(lines.size(), stats.written);
  // Metrics windows after the stall reached the consumer, before run_end.
  std::size_t after_stall = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    JsonValue v;
    ASSERT_TRUE(parse_json(lines[i], &v)) << lines[i];
    EXPECT_EQ(v.get_number("seq"), static_cast<double>(i));
    if (i + 1 == lines.size()) {
      EXPECT_EQ(v.get_string("type"), "run_end");
    } else if (v.get_string("type") == "metrics" &&
               v.get_number("step") > static_cast<double>(kStalledSteps)) {
      ++after_stall;
    }
  }
  EXPECT_GT(after_stall, 0u);
}

TEST(StreamObserverTest, FullStreamHasMonotoneStepsAndMatchesRun) {
  const std::string path = testing::TempDir() + "/full.stream";
  BusStats stats;
  const RunFingerprint fp = run_workload(path, /*spin=*/0, &stats);
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
