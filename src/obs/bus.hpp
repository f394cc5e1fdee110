// The streaming telemetry bus (DESIGN.md §13): a lock-free SPSC ring between
// the deterministic stepping engine and a dedicated sink thread that
// serializes records into the versioned "tcfpn-stream-v1" NDJSON stream.
//
// Division of labour:
//
//   stepping thread      publish(StreamRecord&&)   SPSC ring, never blocks
//   any thread           obs::log(...)             mutex-guarded bounded
//                                                  queue (installed as the
//                                                  process LogForwarder)
//   sink thread          pop → serialize → write   all string formatting and
//                                                  I/O happens here
//
// Backpressure contract: when the ring (or the log queue) is full the record
// is dropped on the spot and a BusStats counter is bumped. The producer
// never waits, so a run's simulated results — memory image, PRINT output,
// metrics document, journal — are bit-identical with streaming on or off.
// Drops are host-timing noise, which is why they are reported on the stream
// itself (run_end "obs" object) and never enter the machine's metrics
// registry.
//
// Destinations: a file path, "-" for stdout, or "unix:PATH" — connect to a
// listening UNIX stream socket (tcfmon --listen owns the listening side).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/record.hpp"
#include "obs/ring.hpp"

namespace tcfpn::obs {

class Bus {
 public:
  struct Config {
    std::string destination;        ///< path, "-", or "unix:PATH"
    MetaPairs run_meta;             ///< header "run" object (tool, program…)
    std::size_t ring_capacity = 4096;
    std::size_t log_capacity = 1024;
    bool forward_logs = true;       ///< install the process LogForwarder
  };

  /// Opens the destination and starts the sink thread. Returns nullptr and
  /// fills `error` when the destination cannot be opened.
  static std::unique_ptr<Bus> open(const Config& cfg, std::string* error);

  ~Bus();
  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  /// Stepping thread only (SPSC producer). Never blocks: on a full ring the
  /// record is dropped and dropped_records is bumped.
  void publish(StreamRecord&& rec);

  /// Any thread. Enqueues a log line for the stream (bounded; drops bump
  /// dropped_logs). Called by the installed LogForwarder.
  void push_log(LogLine&& line);

  /// Drains everything still queued, writes the run_end line, and joins the
  /// sink thread. Idempotent; the destructor calls it without a run_end if
  /// the caller never did (truncated stream — consumers treat a missing
  /// run_end as "producer died").
  void finish(StepId step, Cycle cycles, bool completed,
              const std::string& fault,
              const metrics::MetricsSnapshot& cumulative,
              const machine::MachineStats& stats);

  /// Test hook: a paused sink stops popping (the ring fills and the
  /// never-block contract forces drops), resume() lets it drain again.
  void pause();
  void resume();

  /// Racy snapshot of the bus's own counters.
  BusStats stats() const;

 private:
  explicit Bus(const Config& cfg);

  void sink_main();
  void write_line(const std::string& line);  // sink thread only
  bool drain_some();                         // sink thread only
  void shutdown_sink();

  Config cfg_;
  int fd_ = -1;
  bool is_socket_ = false;
  bool close_fd_ = false;

  SpscRing<StreamRecord> ring_;

  mutable std::mutex log_mu_;
  std::deque<LogLine> log_queue_;

  std::thread sink_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> paused_{false};
  std::atomic<bool> finished_{false};

  // Sink-thread state: seq numbering and the previous cumulative snapshot
  // (metrics records carry cumulative state; the sink emits window deltas,
  // so dropped records merge windows instead of losing counts).
  std::uint64_t next_seq_ = 0;
  metrics::MetricsSnapshot last_cumulative_;

  // BusStats, split by writer for cheap updates.
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> dropped_records_{0};
  std::atomic<std::uint64_t> dropped_logs_{0};
  std::atomic<std::uint64_t> write_errors_{0};
};

}  // namespace tcfpn::obs
