// tcfmon — attach to a live tcfpn-stream-v1 telemetry stream and render a
// refreshing dashboard (DESIGN.md §13).
//
//   ./tcfrun prog.tcf --stream=run.stream &      # producer
//   ./tcfmon run.stream                          # follow the file live
//
//   ./tcfmon unix:/tmp/tcf.sock &                # listen first…
//   ./tcfrun prog.tcf --stream=unix:/tmp/tcf.sock   # …producer connects
//
//   ./tcfmon --once --json run.stream            # CI: one-shot summary
//
// Sources: a stream file (followed tail -f style until the run_end line),
// '-' for stdin, or unix:PATH — tcfmon owns the *listening* side of the
// socket and a --stream=unix:PATH producer connects to it. --once reads
// what is available and exits instead of waiting for run_end; --json
// replaces the dashboard with a machine-readable summary document on
// stdout. Unparseable lines are counted, never fatal — a truncated stream
// (producer died before run_end) is reported, not crashed on.
//
// Exit codes: 0 = stream consumed and the header was valid; 1 = no/invalid
// header or parse errors; 2 = usage / source could not be opened.
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "obs/njson.hpp"
#include "obs/record.hpp"

namespace {

using namespace tcfpn;
using obs::JsonValue;

struct MonOptions {
  std::string source;
  bool once = false;
  bool json = false;
  std::uint64_t refresh_ms = 200;
};

void usage() {
  std::printf(
      "usage: tcfmon [options] <source>\n"
      "  attaches to a tcfpn-stream-v1 NDJSON telemetry stream\n\n"
      "source:\n"
      "  FILE         follow a stream file until its run_end line\n"
      "  -            read the stream from stdin\n"
      "  unix:PATH    listen on a UNIX socket; a --stream=unix:PATH\n"
      "               producer connects to it\n\n"
      "options:\n"
      "  --once         read what is available, render once, exit\n"
      "  --json         print a machine-readable summary instead of the\n"
      "                 dashboard (CI mode; pairs well with --once)\n"
      "  --refresh=MS   dashboard repaint interval (default 200)\n");
}

/// Everything the dashboard knows, folded from the lines seen so far.
struct MonState {
  bool header_seen = false;
  obs::JsonValue header;
  std::uint64_t lines = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t metrics_lines = 0, sample_lines = 0, event_lines = 0,
                log_lines = 0;
  // Latest sample point.
  double step = 0, cycles = 0, operations = 0, busy = 0, idle = 0, flows = 0;
  // Event kind totals across all events windows.
  std::map<std::string, std::uint64_t> events;
  std::deque<std::string> recent_logs;  ///< "[level] category: message"
  bool run_end_seen = false;
  obs::JsonValue run_end;

  double utilization() const {
    const double total = busy + idle;
    return total > 0 ? busy / total : 0;
  }
};

void apply_line(MonState& st, const std::string& line) {
  if (line.empty()) return;
  ++st.lines;
  JsonValue v;
  if (!obs::parse_json(line, &v) || !v.is_object()) {
    ++st.parse_errors;
    return;
  }
  const std::string type = v.get_string("type");
  if (type == "header") {
    const JsonValue* run = v.get("run");
    if (v.get_string("schema") == obs::kStreamSchema && run != nullptr &&
        run->is_object()) {
      st.header_seen = true;
      st.header = v;
    } else {
      ++st.parse_errors;  // wrong schema tag or missing run metadata
    }
  } else if (type == "metrics") {
    ++st.metrics_lines;
    st.step = v.get_number("step", st.step);
    st.cycles = v.get_number("cycles", st.cycles);
  } else if (type == "sample") {
    ++st.sample_lines;
    st.step = v.get_number("step", st.step);
    st.cycles = v.get_number("cycles", st.cycles);
    st.operations = v.get_number("operations", st.operations);
    st.busy = v.get_number("busy_slots", st.busy);
    st.idle = v.get_number("idle_slots", st.idle);
    st.flows = v.get_number("live_flows", st.flows);
  } else if (type == "events") {
    ++st.event_lines;
    if (const JsonValue* counts = v.get("counts"); counts && counts->is_object()) {
      for (const auto& [k, c] : counts->object()) {
        if (c.is_number()) st.events[k] += static_cast<std::uint64_t>(c.number());
      }
    }
  } else if (type == "log") {
    ++st.log_lines;
    st.recent_logs.push_back("[" + v.get_string("level") + "] " +
                             v.get_string("category") + ": " +
                             v.get_string("message"));
    while (st.recent_logs.size() > 8) st.recent_logs.pop_front();
  } else if (type == "run_end") {
    st.run_end_seen = true;
    st.run_end = v;
    st.step = v.get_number("step", st.step);
    st.cycles = v.get_number("cycles", st.cycles);
  } else {
    ++st.parse_errors;
  }
}

void paint(const MonState& st) {
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  if (tty) std::fputs("\x1b[2J\x1b[H", stdout);

  std::string title = "tcfmon — waiting for stream header";
  if (st.header_seen) {
    title = "tcfmon — " + st.header.get("run")->get_string("tool", "?") + " " +
            st.header.get("run")->get_string("input", "?");
  }
  std::printf("%s\n", title.c_str());
  if (st.header_seen) {
    const JsonValue* run = st.header.get("run");
    std::printf(
        "  variant %s, P=%s Tp=%s, cadence %s steps\n",
        run->get_string("variant", "?").c_str(),
        run->get_string("groups", "?").c_str(),
        run->get_string("slots", "?").c_str(),
        run->get_string("stream_every", "?").c_str());
  }
  std::printf(
      "  step %.0f, cycles %.0f, ops %.0f, live flows %.0f, utilization "
      "%.3f\n",
      st.step, st.cycles, st.operations, st.flows, st.utilization());
  std::printf(
      "  stream: %llu lines (%llu metrics, %llu samples, %llu events, %llu "
      "logs), %llu unparseable\n",
      static_cast<unsigned long long>(st.lines),
      static_cast<unsigned long long>(st.metrics_lines),
      static_cast<unsigned long long>(st.sample_lines),
      static_cast<unsigned long long>(st.event_lines),
      static_cast<unsigned long long>(st.log_lines),
      static_cast<unsigned long long>(st.parse_errors));

  if (!st.events.empty()) {
    Table t({"event", "count"});
    for (const auto& [k, c] : st.events) t.add(k, c);
    std::printf("\n%s", t.render().c_str());
  }
  if (!st.recent_logs.empty()) {
    std::printf("\nrecent logs:\n");
    for (const std::string& l : st.recent_logs) std::printf("  %s\n", l.c_str());
  }
  if (st.run_end_seen) {
    const JsonValue* o = st.run_end.get("obs");
    std::printf("\nrun %s after %.0f steps / %.0f cycles",
                st.run_end.get("completed") &&
                        st.run_end.get("completed")->is_bool() &&
                        st.run_end.get("completed")->boolean()
                    ? "completed"
                    : "DID NOT COMPLETE",
                st.step, st.cycles);
    const std::string fault = st.run_end.get_string("fault");
    if (!fault.empty()) std::printf(" — fault: %s", fault.c_str());
    std::printf("\n");
    if (o != nullptr && o->is_object()) {
      std::printf(
          "  bus: %.0f records pushed, %.0f written, %.0f dropped, %.0f log "
          "drops, %.0f write errors\n",
          o->get_number("pushed"), o->get_number("written"),
          o->get_number("dropped_records"), o->get_number("dropped_logs"),
          o->get_number("write_errors"));
    }
  }
  std::fflush(stdout);
}

/// The --json one-shot summary: hand-built like every exporter in the repo,
/// so it round-trips through obs::parse_json and python -m json.
void print_json_summary(const MonState& st) {
  std::string out = "{\n";
  out += "  \"schema\": \"" + std::string(obs::kStreamSchema) + "\",\n";
  out += "  \"header_seen\": " + std::string(st.header_seen ? "true" : "false") +
         ",\n";
  out += "  \"run_end_seen\": " +
         std::string(st.run_end_seen ? "true" : "false") + ",\n";
  out += "  \"lines\": " + std::to_string(st.lines) + ",\n";
  out += "  \"parse_errors\": " + std::to_string(st.parse_errors) + ",\n";
  out += "  \"metrics_lines\": " + std::to_string(st.metrics_lines) + ",\n";
  out += "  \"sample_lines\": " + std::to_string(st.sample_lines) + ",\n";
  out += "  \"event_lines\": " + std::to_string(st.event_lines) + ",\n";
  out += "  \"log_lines\": " + std::to_string(st.log_lines) + ",\n";
  out += "  \"last_step\": " + std::to_string(static_cast<long long>(st.step)) +
         ",\n";
  out += "  \"last_cycles\": " +
         std::to_string(static_cast<long long>(st.cycles)) + ",\n";
  char util[32];
  std::snprintf(util, sizeof(util), "%.6f", st.utilization());
  out += "  \"utilization\": " + std::string(util) + ",\n";
  out += "  \"events\": {";
  bool first = true;
  for (const auto& [k, c] : st.events) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + k + "\": " + std::to_string(c);
  }
  out += "},\n";
  bool completed = false;
  long long dropped = 0;
  if (st.run_end_seen) {
    const obs::JsonValue* c = st.run_end.get("completed");
    completed = c != nullptr && c->is_bool() && c->boolean();
    if (const obs::JsonValue* o = st.run_end.get("obs"); o && o->is_object()) {
      dropped = static_cast<long long>(o->get_number("dropped_records"));
    }
  }
  out += "  \"completed\": " + std::string(completed ? "true" : "false") + ",\n";
  out += "  \"dropped_records\": " + std::to_string(dropped) + "\n";
  out += "}\n";
  std::fputs(out.c_str(), stdout);
}

/// Opens the stream source. Returns the read fd (plus, for unix:PATH, the
/// listening fd to close later), or -1 with a diagnostic.
int open_source(const std::string& source, int* listen_fd) {
  *listen_fd = -1;
  if (source == "-") return STDIN_FILENO;
  if (source.rfind("unix:", 0) == 0) {
    const std::string path = source.substr(5);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      std::fprintf(stderr, "tcfmon: unix socket path too long: %s\n",
                   path.c_str());
      return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (lfd < 0) {
      std::fprintf(stderr, "tcfmon: socket: %s\n", std::strerror(errno));
      return -1;
    }
    ::unlink(path.c_str());  // stale socket from a previous session
    if (::bind(lfd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(lfd, 1) != 0) {
      std::fprintf(stderr, "tcfmon: listen on '%s': %s\n", path.c_str(),
                   std::strerror(errno));
      ::close(lfd);
      return -1;
    }
    // A signal (EINTR) or a client that connected and vanished before we got
    // here (ECONNABORTED) must not tear down the listener — keep waiting for
    // the next attach.
    int fd = -1;
    do {
      fd = ::accept(lfd, nullptr, nullptr);
    } while (fd < 0 && (errno == EINTR || errno == ECONNABORTED));
    if (fd < 0) {
      std::fprintf(stderr, "tcfmon: accept: %s\n", std::strerror(errno));
      ::close(lfd);
      return -1;
    }
    *listen_fd = lfd;
    return fd;
  }
  const int fd = ::open(source.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    std::fprintf(stderr, "tcfmon: cannot open '%s': %s\n", source.c_str(),
                 std::strerror(errno));
    return -1;
  }
  return fd;
}

}  // namespace

int main(int argc, char** argv) {
  MonOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 2;
    } else if (arg == "--once") {
      opt.once = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg.rfind("--refresh=", 0) == 0) {
      opt.refresh_ms = std::strtoull(arg.c_str() + 10, nullptr, 10);
      if (opt.refresh_ms == 0) opt.refresh_ms = 200;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "tcfmon: unknown option '%s'\n", arg.c_str());
      usage();
      return 2;
    } else {
      opt.source = arg;
    }
  }
  if (opt.source.empty()) {
    std::fprintf(stderr, "tcfmon: no stream source given\n");
    usage();
    return 2;
  }

  int listen_fd = -1;
  const int fd = open_source(opt.source, &listen_fd);
  if (fd < 0) return 2;
  const bool is_plain_file = opt.source != "-" && listen_fd < 0;

  // Without a tty there is no cursor to repaint over — intermediate frames
  // would just stack up in a pipe — so only the final frame is printed.
  const bool live_paint = !opt.json && ::isatty(STDOUT_FILENO) != 0;

  MonState st;
  std::string carry;  ///< partial last line between reads
  std::array<char, 1 << 16> buf;
  auto last_paint = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(opt.refresh_ms);
  bool dirty = true;

  while (!st.run_end_seen) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "tcfmon: read: %s\n", std::strerror(errno));
      break;
    }
    if (n == 0) {
      // EOF. A followed file may still be growing (the producer appends);
      // sockets and stdin are done for good.
      if (opt.once || !is_plain_file) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    } else {
      carry.append(buf.data(), static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = carry.find('\n', start); nl != std::string::npos;
           nl = carry.find('\n', start)) {
        apply_line(st, carry.substr(start, nl - start));
        start = nl + 1;
      }
      carry.erase(0, start);
      dirty = true;
    }
    const auto now = std::chrono::steady_clock::now();
    if (live_paint && dirty &&
        now - last_paint >= std::chrono::milliseconds(opt.refresh_ms)) {
      paint(st);
      last_paint = now;
      dirty = false;
    }
  }
  if (!carry.empty()) apply_line(st, carry);  // unterminated last line

  if (opt.json) {
    print_json_summary(st);
  } else {
    paint(st);
    if (!st.run_end_seen) {
      std::printf("\n(stream ended without a run_end line — producer still "
                  "running or died)\n");
    }
  }
  ::close(fd);
  if (listen_fd >= 0) ::close(listen_fd);
  return st.header_seen && st.parse_errors == 0 ? 0 : 1;
}
