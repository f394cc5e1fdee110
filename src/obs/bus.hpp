// The streaming telemetry bus (DESIGN.md §13): formats each record into the
// versioned "tcfpn-stream-v1" NDJSON stream on the thread that steps the
// machine, and writes whatever the destination accepts without waiting.
//
//   StreamObserver   metrics() / sample() / events()   format one line into
//   obs::log(...)    push_log() via the LogForwarder   the pending buffer,
//                                                      assign its seq, then
//                                                      write what the fd
//                                                      takes right now, a
//                                                      PIPE_BUF at a time
//
// The bus starts no thread and holds no lock: every call, the forwarded
// log lines included, comes from the thread that runs the machine, so the
// stream of a rerun is byte-identical.
//
// Backpressure contract: the producer never waits. Lines are written once
// PIPE_BUF bytes of them are pending: a socket is offered all of them with
// send(MSG_DONTWAIT); any other fd is written only after poll(POLLOUT, 0)
// says it is writable, one PIPE_BUF chunk per write. Bytes the destination
// does not take, and a tail shorter than PIPE_BUF, stay pending. A line
// that would push the pending buffer past a fixed bound is dropped whole
// and counted, so framing never breaks; the bytes before it are offered to
// the destination once more first, so a consumer that reads again gets the
// rest of the run. A run's simulated results — memory image, PRINT output,
// metrics document, journal — are therefore bit-identical with streaming on
// or off. Drops depend on how fast the consumer reads, which is why they
// are reported on the stream itself (run_end "obs" object) and never enter
// the machine's metrics registry. Only finish() waits: it writes the
// run_end line and everything still pending.
//
// Destinations: a file path, "-" for stdout, or "unix:PATH" — connect to a
// listening UNIX stream socket (tcfmon --listen owns the listening side).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/record.hpp"

namespace tcfpn::obs {

class Bus {
 public:
  struct Config {
    std::string destination;   ///< path, "-", or "unix:PATH"
    MetaPairs run_meta;        ///< header "run" object (tool, program…)
    bool forward_logs = true;  ///< install the process LogForwarder
  };

  /// Opens the destination and writes the header line. Returns nullptr and
  /// fills `error` when the destination cannot be opened.
  static std::unique_ptr<Bus> open(const Config& cfg, std::string* error);

  ~Bus();
  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  /// One metrics window: the line carries the delta of `cumulative` against
  /// the last cumulative snapshot the bus accepted, so a dropped window
  /// merges into the next instead of losing counts. An accepted snapshot is
  /// copied for the next delta.
  void metrics(StepId step, Cycle cycles,
               const metrics::MetricsSnapshot& cumulative);
  void sample(const machine::StepSample& s);
  void events(StepId step, const EventCounts& counts);

  /// One log line (called by the installed LogForwarder). Drops bump
  /// dropped_logs instead of dropped_records.
  void push_log(const LogLine& line);

  /// Writes the run_end line and everything still pending, waiting for the
  /// destination if it must. Idempotent; the destructor without finish()
  /// writes what is pending and no run_end (truncated stream — consumers
  /// treat a missing run_end as "producer died").
  void finish(StepId step, Cycle cycles, bool completed,
              const std::string& fault,
              const metrics::MetricsSnapshot& cumulative,
              const machine::MachineStats& stats);

  BusStats stats() const { return stats_; }

 private:
  explicit Bus(const Config& cfg) : cfg_(cfg) {}

  /// Appends the line `format(seq)` writes into pending_ and accepts it —
  /// assigning its seq — unless that would overflow the pending bound even
  /// after writing what the destination takes now, in which case the line
  /// is dropped whole and *dropped is bumped.
  template <typename Format>
  bool emit(std::uint64_t* dropped, Format&& format);

  /// Writes the pending bytes before offset `end`: with `wait`, all of
  /// them; otherwise, once PIPE_BUF of them are pending, what the
  /// destination accepts right now.
  void write_out(std::size_t end, bool wait);
  void compact();  ///< frees the written prefix of pending_
  void fail();  ///< dead destination: count it, stop writing

  Config cfg_;
  int fd_ = -1;
  bool is_socket_ = false;
  bool close_fd_ = false;
  bool finished_ = false;

  std::string pending_;      ///< framed lines not yet written…
  std::size_t sent_ = 0;     ///< …from this offset on
  std::uint64_t next_seq_ = 0;
  metrics::MetricsSnapshot last_cumulative_;
  BusStats stats_;
};

}  // namespace tcfpn::obs
