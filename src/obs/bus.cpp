#include "obs/bus.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstring>

namespace tcfpn::obs {

namespace {

constexpr const char kUnixPrefix[] = "unix:";

bool is_unix_dest(const std::string& dest) {
  return dest.rfind(kUnixPrefix, 0) == 0;
}

int open_destination(const std::string& dest, bool* close_fd, bool* is_socket,
                     std::string* error) {
  *close_fd = false;
  *is_socket = false;
  if (dest == "-") return STDOUT_FILENO;
  if (is_unix_dest(dest)) {
    const std::string path = dest.substr(sizeof(kUnixPrefix) - 1);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      if (error) *error = "unix socket path too long: " + path;
      return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      if (error) *error = std::string("socket: ") + std::strerror(errno);
      return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      if (error)
        *error = "connect '" + path + "': " + std::strerror(errno);
      ::close(fd);
      return -1;
    }
    *close_fd = true;
    *is_socket = true;
    return fd;
  }
  const int fd = ::open(dest.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    if (error) *error = "open '" + dest + "': " + std::strerror(errno);
    return -1;
  }
  *close_fd = true;
  return fd;
}

// A line that would push the unwritten bytes past this bound is dropped.
// About 600 metrics lines of a 26-instrument registry.
constexpr std::size_t kMaxPendingBytes = std::size_t{1} << 20;

}  // namespace

std::unique_ptr<Bus> Bus::open(const Config& cfg, std::string* error) {
  bool close_fd = false, is_socket = false;
  const int fd = open_destination(cfg.destination, &close_fd, &is_socket, error);
  if (fd < 0) return nullptr;
  std::unique_ptr<Bus> bus(new Bus(cfg));
  bus->fd_ = fd;
  bus->is_socket_ = is_socket;
  bus->close_fd_ = close_fd;
  bus->emit(&bus->stats_.dropped_records, [&](std::uint64_t) {
    header_line(bus->pending_, cfg.run_meta);
  });
  if (cfg.forward_logs) {
    Bus* raw = bus.get();
    set_log_forwarder([raw](LogLine&& line) { raw->push_log(line); });
  }
  return bus;
}

Bus::~Bus() {
  if (cfg_.forward_logs) set_log_forwarder(nullptr);
  if (!finished_) write_out(pending_.size(), /*wait=*/true);
  if (close_fd_ && fd_ >= 0) ::close(fd_);
}

template <typename Format>
bool Bus::emit(std::uint64_t* dropped, Format&& format) {
  if (fd_ < 0) {  // destination already failed; count and move on
    ++stats_.write_errors;
    return false;
  }
  const std::size_t mark = pending_.size();
  format(next_seq_);
  pending_ += '\n';
  if (pending_.size() - sent_ > kMaxPendingBytes) {
    // Over the bound. The consumer may have read since the last write, so
    // first hand it the lines before this one; drop this one only if it
    // still does not fit.
    write_out(mark, /*wait=*/false);
    if (fd_ < 0) return false;  // the destination died: fail() counted it
    if (pending_.size() - sent_ > kMaxPendingBytes) {
      pending_.resize(mark);
      compact();
      ++*dropped;
      return false;
    }
  }
  ++next_seq_;
  ++stats_.written;
  write_out(pending_.size(), /*wait=*/false);
  compact();
  return true;
}

void Bus::metrics(StepId step, Cycle cycles,
                  const metrics::MetricsSnapshot& cumulative) {
  if (finished_) return;
  ++stats_.pushed;
  const bool accepted = emit(&stats_.dropped_records, [&](std::uint64_t seq) {
    metrics_line(pending_, seq, step, cycles, cumulative, last_cumulative_);
  });
  if (accepted) last_cumulative_ = cumulative;
}

void Bus::sample(const machine::StepSample& s) {
  if (finished_) return;
  ++stats_.pushed;
  emit(&stats_.dropped_records,
       [&](std::uint64_t seq) { sample_line(pending_, seq, s); });
}

void Bus::events(StepId step, const EventCounts& counts) {
  if (finished_) return;
  ++stats_.pushed;
  emit(&stats_.dropped_records,
       [&](std::uint64_t seq) { events_line(pending_, seq, step, counts); });
}

void Bus::push_log(const LogLine& line) {
  if (finished_) return;
  emit(&stats_.dropped_logs,
       [&](std::uint64_t seq) { log_line(pending_, seq, line); });
}

void Bus::write_out(std::size_t end, bool wait) {
  // Without `wait` nothing goes out before PIPE_BUF bytes are pending: one
  // write per PIPE_BUF instead of one per line. A shorter tail waits for
  // the next line or for finish().
  const std::size_t least = wait ? 1 : PIPE_BUF;
  while (fd_ >= 0 && end - sent_ >= least) {
    std::size_t len = end - sent_;
    if (!wait && !is_socket_) {
      // Never wait: write only into an fd that says it has room, and no
      // more than the PIPE_BUF bytes a writable pipe is sure to take.
      pollfd p{fd_, POLLOUT, 0};
      if (::poll(&p, 1, 0) != 1) break;
      len = PIPE_BUF;
    }
    // Sockets use send(MSG_NOSIGNAL) so a hung-up tcfmon surfaces as EPIPE
    // instead of killing the producer with SIGPIPE.
    const char* data = pending_.data() + sent_;
    const ssize_t n =
        is_socket_
            ? ::send(fd_, data, len, MSG_NOSIGNAL | (wait ? 0 : MSG_DONTWAIT))
            : ::write(fd_, data, len);
    if (n >= 0) {
      sent_ += static_cast<std::size_t>(n);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!wait) break;
      pollfd p{fd_, POLLOUT, 0};
      ::poll(&p, 1, -1);
    } else if (errno != EINTR) {
      fail();
    }
  }
}

void Bus::compact() {
  if (sent_ == pending_.size()) {
    pending_.clear();
    sent_ = 0;
  } else if (sent_ > pending_.size() / 2) {
    pending_.erase(0, sent_);
    sent_ = 0;
  }
}

void Bus::fail() {
  // Dead destination (consumer hung up, disk full): stop writing, and keep
  // accepting calls so the producer side stays oblivious.
  ++stats_.write_errors;
  if (close_fd_) ::close(fd_);
  close_fd_ = false;
  fd_ = -1;
  pending_.clear();
  sent_ = 0;
}

void Bus::finish(StepId step, Cycle cycles, bool completed,
                 const std::string& fault,
                 const metrics::MetricsSnapshot& cumulative,
                 const machine::MachineStats& stats) {
  if (finished_) return;
  finished_ = true;
  if (cfg_.forward_logs) set_log_forwarder(nullptr);
  if (fd_ < 0) {
    ++stats_.write_errors;
    return;
  }
  // The run_end line is never dropped: it carries the drop counts.
  run_end_line(pending_, next_seq_++, step, cycles, completed, fault,
               cumulative, stats, stats_);
  pending_ += '\n';
  ++stats_.written;
  write_out(pending_.size(), /*wait=*/true);
}

}  // namespace tcfpn::obs
