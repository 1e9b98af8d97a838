#include "service/fd_input.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>

namespace olp::service {

FdInputBuf::FdInputBuf(int fd, int wake_fd) : fd_(fd), wake_fd_(wake_fd) {
  setg(buf_.data(), buf_.data(), buf_.data());
}

FdInputBuf::int_type FdInputBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  for (;;) {
    pollfd fds[2] = {{wake_fd_, POLLIN, 0}, {fd_, POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return traits_type::eof();
    }
    // The wake comes first: a signal must not queue behind input.
    if (fds[0].revents != 0) {
      char drained[64];
      (void)::read(wake_fd_, drained, sizeof drained);
      return traits_type::eof();
    }
    if (fds[1].revents == 0) continue;
    const ssize_t n = ::read(fd_, buf_.data(), buf_.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return traits_type::eof();
    setg(buf_.data(), buf_.data(), buf_.data() + n);
    return traits_type::to_int_type(*gptr());
  }
}

}  // namespace olp::service
