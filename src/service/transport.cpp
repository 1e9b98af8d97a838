#include "service/transport.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "service/request.hpp"
#include "util/faults.hpp"
#include "util/jsonl.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define OLP_TRANSPORT_POSIX 1
#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace olp::service {

namespace {

using Clock = std::chrono::steady_clock;

std::string reject_line(RejectReason reason, const std::string& detail) {
  std::string line = "{\"event\":\"rejected\",\"reason\":\"";
  line += reject_reason_name(reason);
  line += "\",\"error\":\"";
  line += jsonl::escape(detail);
  line += "\"}";
  return line;
}

#if OLP_TRANSPORT_POSIX
bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}
#endif

}  // namespace

/// One multiplexed connection. Owned by the poll loop via shared_ptr; emit
/// callbacks hold weak_ptrs, so a closed connection is collected as soon as
/// the last pending completion lets go.
struct TransportSupervisor::Conn {
  explicit Conn(std::size_t max_line_bytes) : framer(max_line_bytes) {}

  std::mutex out_mu;  ///< guards fd (for emit liveness) and out
  int fd = -1;
  std::string out;    ///< bytes queued for the peer, flushed under POLLOUT
  std::string identity;
  jsonl::LineFramer framer;
  bool want_close = false;  ///< close once `out` drains
  bool has_partial = false;
  Clock::time_point partial_since{};
};

struct TransportSupervisor::Impl {
  TransportOptions options;
  LineHandler handler;
  std::atomic<long> read_timeout_ms{0};
  std::atomic<std::size_t> max_connections{0};
  std::atomic<std::size_t> max_line_bytes{0};
  std::atomic<bool> stop{false};
  int unix_fd = -1;
  int tcp_fd = -1;
  int wake_r = -1;
  int wake_w = -1;
  int bound_tcp_port = -1;
  mutable std::mutex mu;  ///< guards conns and stats
  std::vector<std::shared_ptr<Conn>> conns;
  TransportStats stats;

  void wake() {
#if OLP_TRANSPORT_POSIX
    if (wake_w >= 0) {
      const char byte = 'w';
      // EAGAIN means a wake is already pending — exactly what we want.
      (void)!::write(wake_w, &byte, 1);
    }
#endif
  }
};

TransportSupervisor::TransportSupervisor() : impl_(std::make_shared<Impl>()) {}

TransportSupervisor::~TransportSupervisor() { stop(); }

#if OLP_TRANSPORT_POSIX

bool TransportSupervisor::start(const TransportOptions& options,
                                LineHandler handler, std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    stop();
    return false;
  };
  if (running_.load()) return fail("transport already running");

  impl_->options = options;
  impl_->handler = std::move(handler);
  impl_->read_timeout_ms.store(options.read_timeout_ms);
  impl_->max_connections.store(options.max_connections);
  impl_->max_line_bytes.store(options.max_line_bytes);
  impl_->stop.store(false);
  impl_->bound_tcp_port = -1;

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) return fail("cannot create wake pipe");
  impl_->wake_r = pipe_fds[0];
  impl_->wake_w = pipe_fds[1];
  set_nonblocking(impl_->wake_r);
  set_nonblocking(impl_->wake_w);

  if (!options.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options.unix_path.size() >= sizeof addr.sun_path) {
      return fail("unix socket path too long: " + options.unix_path);
    }
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                  options.unix_path.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return fail("cannot create unix socket");
    ::unlink(options.unix_path.c_str());  // stale socket from a crash
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 16) != 0 || !set_nonblocking(fd)) {
      ::close(fd);
      return fail("cannot bind/listen unix socket " + options.unix_path);
    }
    impl_->unix_fd = fd;
  }

  if (options.tcp_port >= 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options.tcp_port));
    if (::inet_pton(AF_INET, options.tcp_host.c_str(), &addr.sin_addr) != 1) {
      return fail("invalid TCP bind address " + options.tcp_host);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return fail("cannot create TCP socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 16) != 0 || !set_nonblocking(fd)) {
      ::close(fd);
      return fail("cannot bind/listen TCP " + options.tcp_host + ":" +
                  std::to_string(options.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      impl_->bound_tcp_port = static_cast<int>(ntohs(bound.sin_port));
    }
    impl_->tcp_fd = fd;
  }

  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stats = TransportStats{};
    impl_->stats.running = true;
    impl_->stats.tcp_port = impl_->bound_tcp_port;
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { poll_loop(); });
  return true;
}

void TransportSupervisor::stop() {
  impl_->stop.store(true);
  impl_->wake();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);

  auto close_fd = [](int& fd) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  };
  std::vector<std::shared_ptr<Conn>> doomed;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    doomed.swap(impl_->conns);
    impl_->stats.running = false;
    impl_->stats.active = 0;
  }
  for (const auto& conn : doomed) {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    close_fd(conn->fd);
  }
  close_fd(impl_->unix_fd);
  close_fd(impl_->tcp_fd);
  close_fd(impl_->wake_r);
  close_fd(impl_->wake_w);
  if (!impl_->options.unix_path.empty()) {
    ::unlink(impl_->options.unix_path.c_str());
  }
  impl_->bound_tcp_port = -1;
}

void TransportSupervisor::poll_loop() {
  auto impl = impl_;
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Conn>> polled;

  // Closes a connection on the poll thread, discarding any torn frame. The
  // bookkeeping lands before the fd closes, so a client that sees EOF also
  // sees the connection gone from stats().
  auto close_conn = [&](const std::shared_ptr<Conn>& conn) {
    {
      std::lock_guard<std::mutex> lock(impl->mu);
      if (conn->framer.partial_bytes() > 0) {
        conn->framer.discard_partial();
        ++impl->stats.torn_frames_discarded;
      }
      for (std::size_t i = 0; i < impl->conns.size(); ++i) {
        if (impl->conns[i] == conn) {
          impl->conns.erase(impl->conns.begin() + static_cast<long>(i));
          break;
        }
      }
      impl->stats.active = impl->conns.size();
    }
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  };

  // Queues a line the SUPERVISOR originates (reject notices) directly.
  auto queue_line = [&](const std::shared_ptr<Conn>& conn,
                        const std::string& line) {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->fd < 0) return;
    conn->out += line;
    conn->out += '\n';
  };

  // Flushes pending output; false when the connection died on write.
  auto flush_conn = [&](const std::shared_ptr<Conn>& conn) -> bool {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->fd < 0 || conn->out.empty()) return true;
    std::size_t target = conn->out.size();
    if (FaultInjector::global().enabled() &&
        FaultInjector::global().should_fail(FaultSite::kTransportPartialWrite)) {
      // Flush only a prefix; the rest goes out on a later POLLOUT round.
      target = target > 1 ? target / 2 : 1;
      std::lock_guard<std::mutex> slock(impl->mu);
      ++impl->stats.partial_writes;
    }
    const ssize_t n = ::write(conn->fd, conn->out.data(), target);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return true;
      }
      std::lock_guard<std::mutex> slock(impl->mu);
      ++impl->stats.write_errors;
      return false;
    }
    conn->out.erase(0, static_cast<std::size_t>(n));
    return true;
  };

  auto accept_on = [&](int listen_fd, bool is_tcp) {
    while (true) {
      sockaddr_storage peer{};
      socklen_t peer_len = sizeof peer;
      const int fd = ::accept(listen_fd, reinterpret_cast<sockaddr*>(&peer),
                              &peer_len);
      if (fd < 0) return;  // EAGAIN: drained
      set_nonblocking(fd);

      const std::size_t cap = impl->max_connections.load();
      bool refuse = false;
      {
        std::lock_guard<std::mutex> lock(impl->mu);
        refuse = cap > 0 && impl->conns.size() >= cap;
        if (refuse) ++impl->stats.refused;
      }
      if (refuse) {
        const std::string line =
            reject_line(RejectReason::kRateLimited, "too many connections") +
            "\n";
        (void)!::write(fd, line.data(), line.size());
        ::close(fd);
        continue;
      }

      std::string identity;
      if (is_tcp) {
        char ip[INET6_ADDRSTRLEN] = {0};
        if (peer.ss_family == AF_INET) {
          const auto* in4 = reinterpret_cast<const sockaddr_in*>(&peer);
          ::inet_ntop(AF_INET, &in4->sin_addr, ip, sizeof ip);
        } else if (peer.ss_family == AF_INET6) {
          const auto* in6 = reinterpret_cast<const sockaddr_in6*>(&peer);
          ::inet_ntop(AF_INET6, &in6->sin6_addr, ip, sizeof ip);
        }
        // Port deliberately excluded: the identity must survive reconnects.
        identity = std::string("tcp:") + (ip[0] != 0 ? ip : "unknown");
      } else {
#if defined(__linux__) && defined(SO_PEERCRED)
        ucred cred{};
        socklen_t cred_len = sizeof cred;
        if (::getsockopt(fd, SOL_SOCKET, SO_PEERCRED, &cred, &cred_len) == 0) {
          identity = "unix:pid:" + std::to_string(cred.pid);
        }
#endif
        if (identity.empty()) identity = "unix";
      }

      auto conn = std::make_shared<Conn>(impl->max_line_bytes.load());
      conn->fd = fd;
      conn->identity = std::move(identity);
      std::lock_guard<std::mutex> lock(impl->mu);
      impl->conns.push_back(conn);
      ++impl->stats.accepted;
      impl->stats.active = impl->conns.size();
      if (impl->stats.active > impl->stats.max_active) {
        impl->stats.max_active = impl->stats.active;
      }
    }
  };

  while (!impl->stop.load()) {
    fds.clear();
    polled.clear();
    fds.push_back(pollfd{impl->wake_r, POLLIN, 0});
    if (impl->unix_fd >= 0) fds.push_back(pollfd{impl->unix_fd, POLLIN, 0});
    if (impl->tcp_fd >= 0) fds.push_back(pollfd{impl->tcp_fd, POLLIN, 0});
    const std::size_t first_conn = fds.size();
    {
      std::lock_guard<std::mutex> lock(impl->mu);
      for (const auto& conn : impl->conns) {
        short events = POLLIN;
        {
          std::lock_guard<std::mutex> olock(conn->out_mu);
          if (!conn->out.empty()) events |= POLLOUT;
        }
        fds.push_back(pollfd{conn->fd, events, 0});
        polled.push_back(conn);
      }
    }

    // A short tick keeps slow-loris deadline checks and cross-thread emits
    // responsive even if a wake byte is ever lost.
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (impl->stop.load()) break;

    if ((fds[0].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(impl->wake_r, drain, sizeof drain) > 0) {
      }
    }
    std::size_t next = 1;
    if (impl->unix_fd >= 0) {
      if ((fds[next].revents & POLLIN) != 0) accept_on(impl->unix_fd, false);
      ++next;
    }
    if (impl->tcp_fd >= 0) {
      if ((fds[next].revents & POLLIN) != 0) accept_on(impl->tcp_fd, true);
      ++next;
    }

    const Clock::time_point now = Clock::now();
    const long deadline_ms = impl->read_timeout_ms.load();

    for (std::size_t i = 0; i < polled.size(); ++i) {
      const auto& conn = polled[i];
      const short revents = fds[first_conn + i].revents;
      bool dead = false;

      if ((revents & (POLLERR | POLLNVAL)) != 0) dead = true;

      if (!dead && (revents & (POLLIN | POLLHUP)) != 0) {
        char buf[4096];
        while (!dead) {
          const ssize_t n = ::read(conn->fd, buf, sizeof buf);
          if (n == 0) {
            dead = true;  // orderly EOF (possibly mid-frame: torn, discarded)
            break;
          }
          if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
              break;
            }
            dead = true;
            break;
          }
          if (FaultInjector::global().enabled() &&
              FaultInjector::global().should_fail(
                  FaultSite::kTransportDisconnect)) {
            std::lock_guard<std::mutex> lock(impl->mu);
            ++impl->stats.injected_disconnects;
            dead = true;
            break;
          }
          const bool had_partial = conn->has_partial;
          conn->framer.feed(buf, static_cast<std::size_t>(n));
          jsonl::LineFramer::Frame frame;
          while (conn->framer.next(&frame)) {
            if (frame.oversized) {
              {
                std::lock_guard<std::mutex> lock(impl->mu);
                ++impl->stats.frames_oversized;
              }
              queue_line(conn,
                         reject_line(RejectReason::kFrameTooLarge,
                                     "frame exceeds " +
                                         std::to_string(
                                             impl->max_line_bytes.load()) +
                                         " bytes"));
              continue;
            }
            if (conn->want_close) continue;  // already being shed
            {
              std::lock_guard<std::mutex> lock(impl->mu);
              ++impl->stats.lines_dispatched;
            }
            std::weak_ptr<Impl> impl_weak = impl;
            std::weak_ptr<Conn> conn_weak = conn;
            Emit emit = [impl_weak, conn_weak](const std::string& line) {
              auto impl_live = impl_weak.lock();
              auto conn_live = conn_weak.lock();
              if (!impl_live || !conn_live) return;
              {
                std::lock_guard<std::mutex> lock(conn_live->out_mu);
                if (conn_live->fd < 0) return;
                conn_live->out += line;
                conn_live->out += '\n';
              }
              impl_live->wake();
            };
            impl->handler(conn->identity, frame.line, emit);
          }
          // The slow-loris clock starts when a partial frame APPEARS and
          // only resets when the frame completes — dribbling one byte per
          // poll tick cannot extend the deadline.
          conn->has_partial = conn->framer.partial_bytes() > 0;
          if (conn->has_partial && !had_partial) conn->partial_since = now;
        }
      }

      if (!dead && conn->has_partial && deadline_ms > 0 &&
          now - conn->partial_since > std::chrono::milliseconds(deadline_ms)) {
        {
          std::lock_guard<std::mutex> lock(impl->mu);
          ++impl->stats.read_timeouts;
          ++impl->stats.torn_frames_discarded;
        }
        conn->framer.discard_partial();
        conn->has_partial = false;
        queue_line(conn, reject_line(RejectReason::kReadTimeout,
                                     "partial frame older than " +
                                         std::to_string(deadline_ms) + " ms"));
        conn->want_close = true;  // flush the verdict, then hang up
      }

      if (!dead) dead = !flush_conn(conn);
      if (!dead && conn->want_close) {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        if (conn->out.empty()) dead = true;
      }
      if (dead) close_conn(conn);
    }
  }
}

int TransportSupervisor::tcp_port() const { return impl_->bound_tcp_port; }

#else  // !OLP_TRANSPORT_POSIX

bool TransportSupervisor::start(const TransportOptions& options,
                                LineHandler handler, std::string* error) {
  impl_->options = options;
  impl_->handler = std::move(handler);
  if (options.unix_path.empty() && options.tcp_port < 0) return true;
  if (error != nullptr) {
    *error = "stream sockets are not supported on this platform";
  }
  return false;
}

void TransportSupervisor::stop() {}

void TransportSupervisor::poll_loop() {}

int TransportSupervisor::tcp_port() const { return -1; }

#endif  // OLP_TRANSPORT_POSIX

void TransportSupervisor::reload_limits(long read_timeout_ms,
                                        std::size_t max_connections,
                                        std::size_t max_line_bytes) {
  impl_->read_timeout_ms.store(read_timeout_ms);
  impl_->max_connections.store(max_connections);
  impl_->max_line_bytes.store(max_line_bytes);
  impl_->wake();
}

TransportStats TransportSupervisor::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  TransportStats out = impl_->stats;
  out.tcp_port = impl_->bound_tcp_port;
  return out;
}

}  // namespace olp::service
