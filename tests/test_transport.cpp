// Transport supervisor tests: real loopback TCP / unix-domain sockets
// against the poll-based multi-client supervisor — concurrent clients,
// oversized-frame shedding, torn-frame discard, slow-loris deadlines,
// connection caps, hot limit reloads, and listener-failure reporting.
// The LineFramer (the framing layer the supervisor builds on) is unit
// tested here too.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <istream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/fd_input.hpp"
#include "service/transport.hpp"
#include "util/jsonl.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define OLP_TEST_POSIX_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace olp::service {
namespace {

// --- LineFramer -------------------------------------------------------------

TEST(LineFramer, ReassemblesByteByByteInput) {
  jsonl::LineFramer framer(64);
  const std::string input = "{\"op\":\"ping\"}\n";
  jsonl::LineFramer::Frame frame;
  for (std::size_t i = 0; i + 1 < input.size(); ++i) {
    framer.feed(&input[i], 1);
    EXPECT_FALSE(framer.next(&frame)) << "frame surfaced before its newline";
  }
  framer.feed(&input[input.size() - 1], 1);
  ASSERT_TRUE(framer.next(&frame));
  EXPECT_EQ(frame.line, "{\"op\":\"ping\"}");
  EXPECT_FALSE(frame.oversized);
  EXPECT_EQ(framer.partial_bytes(), 0u);
}

TEST(LineFramer, SplitsManyFramesFromOneFeed) {
  jsonl::LineFramer framer(64);
  const std::string input = "one\ntwo\r\nthree\npartial";
  framer.feed(input.data(), input.size());
  jsonl::LineFramer::Frame frame;
  ASSERT_TRUE(framer.next(&frame));
  EXPECT_EQ(frame.line, "one");
  ASSERT_TRUE(framer.next(&frame));
  EXPECT_EQ(frame.line, "two");  // CRLF client: '\r' stripped
  ASSERT_TRUE(framer.next(&frame));
  EXPECT_EQ(frame.line, "three");
  EXPECT_FALSE(framer.next(&frame));
  EXPECT_EQ(framer.partial_bytes(), 7u);  // "partial" awaits its newline
  framer.discard_partial();
  EXPECT_EQ(framer.partial_bytes(), 0u);
}

TEST(LineFramer, OversizedFrameIsMarkedAndStreamResyncs) {
  jsonl::LineFramer framer(8);
  const std::string input = "0123456789abcdef\nok\n";
  framer.feed(input.data(), input.size());
  jsonl::LineFramer::Frame frame;
  ASSERT_TRUE(framer.next(&frame));
  EXPECT_TRUE(frame.oversized);
  EXPECT_TRUE(frame.line.empty());  // bytes were discarded, not buffered
  ASSERT_TRUE(framer.next(&frame));
  EXPECT_FALSE(frame.oversized);
  EXPECT_EQ(frame.line, "ok");  // framing recovered after the bad newline
}

TEST(LineFramer, OversizedDetectionDoesNotBufferTheFrame) {
  // A "frame" far past the bound arrives in chunks with no newline: the
  // framer must hold O(bound) memory, not O(frame).
  jsonl::LineFramer framer(16);
  const std::string chunk(1024, 'x');
  for (int i = 0; i < 64; ++i) framer.feed(chunk.data(), chunk.size());
  EXPECT_LE(framer.partial_bytes(), 17u);
  framer.feed("\n", 1);
  jsonl::LineFramer::Frame frame;
  ASSERT_TRUE(framer.next(&frame));
  EXPECT_TRUE(frame.oversized);
}

#if OLP_TEST_POSIX_SOCKETS

// --- socket test helpers ----------------------------------------------------

/// Blocking loopback TCP client with a receive timeout.
class TestClient {
 public:
  ~TestClient() { close(); }

  bool connect_tcp(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    set_recv_timeout();
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }

  bool connect_unix(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    set_recv_timeout();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) return false;
    path.copy(addr.sun_path, path.size());
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }

  bool send(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Reads one '\n'-terminated line (newline stripped). False on EOF or
  /// the 5 s receive timeout.
  bool read_line(std::string* out) {
    out->clear();
    char c = 0;
    while (true) {
      const ssize_t n = ::read(fd_, &c, 1);
      if (n <= 0) return false;
      if (c == '\n') return true;
      out->push_back(c);
    }
  }

  /// True when the peer has closed (read returns 0 within the timeout).
  bool at_eof() {
    char c = 0;
    return ::read(fd_, &c, 1) == 0;
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  void set_recv_timeout() {
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }

  int fd_ = -1;
};

/// Polls `done` until true or ~5 s passed — transport counters are updated
/// on the supervisor thread, so tests wait instead of asserting instantly.
bool eventually(const std::function<bool()>& done) {
  for (int i = 0; i < 500; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

/// Records every dispatched line and answers {"n":<count>}.
struct Recorder {
  std::mutex mu;
  std::vector<std::pair<std::string, std::string>> lines;  // identity, line

  TransportSupervisor::LineHandler handler() {
    return [this](const std::string& identity, const std::string& line,
                  const TransportSupervisor::Emit& emit) {
      std::size_t n = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        lines.emplace_back(identity, line);
        n = lines.size();
      }
      emit("{\"n\":" + std::to_string(n) + "}");
    };
  }

  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return lines.size();
  }
};

TransportOptions tcp_options() {
  TransportOptions o;
  o.tcp_port = 0;  // ephemeral
  o.read_timeout_ms = 0;
  return o;
}

// --- supervisor over real sockets -------------------------------------------

TEST(Transport, EphemeralPortServesAndStampsIdentity) {
  Recorder rec;
  TransportSupervisor transport;
  std::string error;
  ASSERT_TRUE(transport.start(tcp_options(), rec.handler(), &error)) << error;
  ASSERT_GT(transport.tcp_port(), 0);

  TestClient client;
  ASSERT_TRUE(client.connect_tcp(transport.tcp_port()));
  ASSERT_TRUE(client.send("{\"op\":\"ping\"}\n"));
  std::string line;
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(line, "{\"n\":1}");
  {
    std::lock_guard<std::mutex> lock(rec.mu);
    ASSERT_EQ(rec.lines.size(), 1u);
    EXPECT_EQ(rec.lines[0].first, "tcp:127.0.0.1");
    EXPECT_EQ(rec.lines[0].second, "{\"op\":\"ping\"}");
  }
  const TransportStats stats = transport.stats();
  EXPECT_TRUE(stats.running);
  EXPECT_EQ(stats.accepted, 1);
  EXPECT_EQ(stats.lines_dispatched, 1);
  transport.stop();
  EXPECT_FALSE(transport.running());
}

TEST(Transport, ManyConcurrentClientsAreMultiplexed) {
  Recorder rec;
  TransportSupervisor transport;
  ASSERT_TRUE(transport.start(tcp_options(), rec.handler()));

  // All four connect FIRST (concurrency, not sequence), then all talk.
  constexpr int kClients = 4;
  TestClient clients[kClients];
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(clients[i].connect_tcp(transport.tcp_port())) << i;
  }
  ASSERT_TRUE(eventually([&] {
    return transport.stats().active == static_cast<std::size_t>(kClients);
  }));
  EXPECT_EQ(transport.stats().max_active, static_cast<std::size_t>(kClients));

  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kClients; ++i) {
      ASSERT_TRUE(clients[i].send("{\"client\":" + std::to_string(i) + "}\n"));
    }
    // Every client gets its answer on ITS connection — no cross-talk, no
    // head-of-line blocking on the slower peers.
    for (int i = 0; i < kClients; ++i) {
      std::string line;
      ASSERT_TRUE(clients[i].read_line(&line)) << "client " << i;
      EXPECT_EQ(line.find("{\"n\":"), 0u) << line;
    }
  }
  EXPECT_EQ(rec.count(), static_cast<std::size_t>(2 * kClients));
  const TransportStats stats = transport.stats();
  EXPECT_EQ(stats.accepted, kClients);
  EXPECT_EQ(stats.lines_dispatched, 2 * kClients);
  transport.stop();
}

TEST(Transport, OversizedFrameShedsWithoutClosingTheConnection) {
  Recorder rec;
  TransportSupervisor transport;
  TransportOptions options = tcp_options();
  options.max_line_bytes = 32;
  ASSERT_TRUE(transport.start(options, rec.handler()));

  TestClient client;
  ASSERT_TRUE(client.connect_tcp(transport.tcp_port()));
  ASSERT_TRUE(client.send(std::string(100, 'x') + "\n"));
  std::string line;
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_NE(line.find("\"rejected\""), std::string::npos) << line;
  EXPECT_NE(line.find("frame_too_large"), std::string::npos) << line;
  // The stream resynced: the connection still serves normal frames.
  ASSERT_TRUE(client.send("{\"ok\":1}\n"));
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(line, "{\"n\":1}");
  EXPECT_EQ(transport.stats().frames_oversized, 1);
  EXPECT_EQ(rec.count(), 1u);  // the oversized frame never reached the handler
  transport.stop();
}

TEST(Transport, TornFrameOnDisconnectIsDiscardedNotDispatched) {
  Recorder rec;
  TransportSupervisor transport;
  ASSERT_TRUE(transport.start(tcp_options(), rec.handler()));

  TestClient client;
  ASSERT_TRUE(client.connect_tcp(transport.tcp_port()));
  ASSERT_TRUE(client.send("{\"half\":"));  // no newline, then vanish
  ASSERT_TRUE(eventually([&] { return transport.stats().active == 1; }));
  client.close();
  ASSERT_TRUE(
      eventually([&] { return transport.stats().torn_frames_discarded == 1; }));
  EXPECT_EQ(transport.stats().active, 0u);
  EXPECT_EQ(rec.count(), 0u);  // the half frame was never half-parsed
  transport.stop();
}

TEST(Transport, SlowLorisPartialFrameHitsReadDeadline) {
  Recorder rec;
  TransportSupervisor transport;
  TransportOptions options = tcp_options();
  options.read_timeout_ms = 150;
  ASSERT_TRUE(transport.start(options, rec.handler()));

  TestClient client;
  ASSERT_TRUE(client.connect_tcp(transport.tcp_port()));
  // A complete frame, then a dribble that never finishes.
  ASSERT_TRUE(client.send("{\"op\":\"ping\"}\n{\"stuck\":"));
  std::string line;
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(line, "{\"n\":1}");  // the complete frame was served normally
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_NE(line.find("read_timeout"), std::string::npos) << line;
  EXPECT_TRUE(client.at_eof());  // shed connections are closed after the verdict
  const TransportStats stats = transport.stats();
  EXPECT_EQ(stats.read_timeouts, 1);
  EXPECT_EQ(rec.count(), 1u);
  transport.stop();
}

TEST(Transport, IdleConnectionWithoutPartialFrameIsNeverTimedOut) {
  Recorder rec;
  TransportSupervisor transport;
  TransportOptions options = tcp_options();
  options.read_timeout_ms = 100;
  ASSERT_TRUE(transport.start(options, rec.handler()));

  TestClient client;
  ASSERT_TRUE(client.connect_tcp(transport.tcp_port()));
  ASSERT_TRUE(eventually([&] { return transport.stats().active == 1; }));
  // Sit idle well past the deadline: keepalive clients are not penalized.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ASSERT_TRUE(client.send("{\"still\":\"here\"}\n"));
  std::string line;
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(line, "{\"n\":1}");
  EXPECT_EQ(transport.stats().read_timeouts, 0);
  transport.stop();
}

TEST(Transport, ConnectionCapRefusesExcessWithReasonLine) {
  Recorder rec;
  TransportSupervisor transport;
  TransportOptions options = tcp_options();
  options.max_connections = 1;
  ASSERT_TRUE(transport.start(options, rec.handler()));

  TestClient first;
  ASSERT_TRUE(first.connect_tcp(transport.tcp_port()));
  ASSERT_TRUE(eventually([&] { return transport.stats().active == 1; }));

  TestClient second;
  ASSERT_TRUE(second.connect_tcp(transport.tcp_port()));
  std::string line;
  ASSERT_TRUE(second.read_line(&line));
  EXPECT_NE(line.find("too many connections"), std::string::npos) << line;
  EXPECT_TRUE(second.at_eof());
  // The admitted client is unaffected.
  ASSERT_TRUE(first.send("{\"op\":\"ping\"}\n"));
  ASSERT_TRUE(first.read_line(&line));
  EXPECT_EQ(line, "{\"n\":1}");
  EXPECT_EQ(transport.stats().refused, 1);
  transport.stop();
}

TEST(Transport, ReloadedLimitsApplyWithoutDroppingOpenConnections) {
  Recorder rec;
  TransportSupervisor transport;
  TransportOptions options = tcp_options();
  options.max_line_bytes = 1024;
  ASSERT_TRUE(transport.start(options, rec.handler()));

  TestClient veteran;
  ASSERT_TRUE(veteran.connect_tcp(transport.tcp_port()));
  ASSERT_TRUE(eventually([&] { return transport.stats().active == 1; }));

  transport.reload_limits(/*read_timeout_ms=*/0, /*max_connections=*/8,
                          /*max_line_bytes=*/16);

  // New connections get the new frame bound...
  TestClient fresh;
  ASSERT_TRUE(fresh.connect_tcp(transport.tcp_port()));
  ASSERT_TRUE(fresh.send(std::string(64, 'y') + "\n"));
  std::string line;
  ASSERT_TRUE(fresh.read_line(&line));
  EXPECT_NE(line.find("frame_too_large"), std::string::npos) << line;
  // ...while the open connection keeps its framer AND its life: the same
  // 64-byte frame still fits its accept-time bound.
  ASSERT_TRUE(veteran.send(std::string(64, 'z') + "\n"));
  ASSERT_TRUE(veteran.read_line(&line));
  EXPECT_EQ(line.find("{\"n\":"), 0u) << line;
  transport.stop();
}

TEST(Transport, UnixSocketServesWithPidIdentity) {
  const std::string path = testing::TempDir() + "olp_transport_test.sock";
  Recorder rec;
  TransportSupervisor transport;
  TransportOptions options;
  options.unix_path = path;
  std::string error;
  ASSERT_TRUE(transport.start(options, rec.handler(), &error)) << error;
  EXPECT_EQ(transport.tcp_port(), -1);

  TestClient client;
  ASSERT_TRUE(client.connect_unix(path));
  ASSERT_TRUE(client.send("{\"via\":\"unix\"}\n"));
  std::string line;
  ASSERT_TRUE(client.read_line(&line));
  EXPECT_EQ(line, "{\"n\":1}");
  {
    std::lock_guard<std::mutex> lock(rec.mu);
    ASSERT_EQ(rec.lines.size(), 1u);
    EXPECT_EQ(rec.lines[0].first.find("unix"), 0u) << rec.lines[0].first;
  }
  transport.stop();
  // The socket file is cleaned up on stop.
  TestClient after;
  EXPECT_FALSE(after.connect_unix(path));
}

TEST(Transport, BusyPortFailsStartWithError) {
  // Occupy a port ourselves...
  const int blocker = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(blocker, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(blocker, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::listen(blocker, 1), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ASSERT_EQ(::getsockname(blocker, reinterpret_cast<sockaddr*>(&bound), &len),
            0);

  // ...then ask the supervisor for it: start() must fail loudly, not fall
  // back to a silently socket-less service (olp_serviced exits non-zero on
  // this path).
  TransportSupervisor transport;
  TransportOptions options;
  options.tcp_port = static_cast<int>(ntohs(bound.sin_port));
  std::string error;
  EXPECT_FALSE(transport.start(
      options,
      [](const std::string&, const std::string&, const TransportSupervisor::Emit&) {},
      &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(transport.running());
  ::close(blocker);
}

TEST(Transport, EmitOutlivesConnectionAndStopHarmlessly) {
  // Completions arrive AFTER the client vanished (and even after stop()):
  // the weak-ptr emit must be a no-op, never a crash.
  TransportSupervisor::Emit captured;
  std::mutex captured_mu;
  TransportSupervisor transport;
  ASSERT_TRUE(transport.start(
      tcp_options(),
      [&](const std::string&, const std::string&,
          const TransportSupervisor::Emit& emit) {
        std::lock_guard<std::mutex> lock(captured_mu);
        captured = emit;
      }));

  TestClient client;
  ASSERT_TRUE(client.connect_tcp(transport.tcp_port()));
  ASSERT_TRUE(client.send("{\"op\":\"ping\"}\n"));
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lock(captured_mu);
    return static_cast<bool>(captured);
  }));
  client.close();
  ASSERT_TRUE(eventually([&] { return transport.stats().active == 0; }));
  captured("{\"late\":1}");  // after disconnect
  transport.stop();
  captured("{\"later\":2}");  // after stop
  transport.stop();           // idempotent
}

// --- FdInputBuf: a stdin buffer a signal's self-pipe can wake ---------------

/// Writes all of `text` to `fd`.
void write_all(int fd, const std::string& text) {
  ASSERT_EQ(::write(fd, text.data(), text.size()),
            static_cast<ssize_t>(text.size()));
}

TEST(FdInput, BufferedLinesComeBeforeAWake) {
  int data[2], wake[2];
  ASSERT_EQ(::pipe(data), 0);
  ASSERT_EQ(::pipe(wake), 0);
  FdInputBuf buf(data[0], wake[0]);
  std::istream in(&buf);
  // Three lines arrive in one read; the wake lands after the first is
  // taken. The other two are already buffered and must not be stranded.
  write_all(data[1], "a\nb\nc\n");
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "a");
  write_all(wake[1], "x");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "b");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "c");
  // The buffer is dry: the next read sees the wake, not a blocked read.
  EXPECT_FALSE(std::getline(in, line));
  // Cleared, the stream reads on (a reload keeps serving).
  in.clear();
  write_all(data[1], "d\n");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "d");
  // End of input is end-of-file.
  ::close(data[1]);
  EXPECT_FALSE(std::getline(in, line));
  for (const int fd : {data[0], wake[0], wake[1]}) ::close(fd);
}

TEST(FdInput, WakeEndsABlockedRead) {
  int data[2], wake[2];
  ASSERT_EQ(::pipe(data), 0);
  ASSERT_EQ(::pipe(wake), 0);
  FdInputBuf buf(data[0], wake[0]);
  std::istream in(&buf);
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    write_all(wake[1], "x");
  });
  std::string line;
  EXPECT_FALSE(std::getline(in, line));  // blocks until the wake
  waker.join();
  for (const int fd : {data[0], data[1], wake[0], wake[1]}) ::close(fd);
}

#else  // !OLP_TEST_POSIX_SOCKETS

TEST(Transport, NoListenersIsANoOpSupervisor) {
  TransportSupervisor transport;
  EXPECT_TRUE(transport.start(
      TransportOptions{},
      [](const std::string&, const std::string&,
         const TransportSupervisor::Emit&) {}));
  transport.stop();
}

#endif  // OLP_TEST_POSIX_SOCKETS

}  // namespace
}  // namespace olp::service
