#pragma once
// An input stream buffer over a file descriptor that a second descriptor
// can wake.
//
// A daemon reading requests from stdin must notice a signal that lands
// while it is not blocked in read(): after one line is handled and before
// the next read starts, an interrupted-read check sees nothing and the
// read then blocks forever. FdInputBuf polls the input next to a wake
// descriptor (the read end of a self-pipe that the signal handler writes
// to) whenever its buffer runs dry, so a signal that arrives at any moment
// ends the current or the next read. Bytes already in the buffer are
// always handed out first: a wake never strands a buffered line.

#include <array>
#include <streambuf>

namespace olp::service {

class FdInputBuf : public std::streambuf {
 public:
  /// Reads `fd`; a readable `wake_fd` makes the read in progress (or the
  /// next one) report end-of-file after consuming what is pending on
  /// `wake_fd`. The caller keeps both descriptors open and owns them.
  FdInputBuf(int fd, int wake_fd);

  FdInputBuf(const FdInputBuf&) = delete;
  FdInputBuf& operator=(const FdInputBuf&) = delete;

 protected:
  int_type underflow() override;

 private:
  int fd_;
  int wake_fd_;
  std::array<char, 4096> buf_{};
};

}  // namespace olp::service
