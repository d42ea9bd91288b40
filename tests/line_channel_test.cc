// LineChannel's line bound (server/line_channel.h) and how the protocol
// reports a skipped line (server/protocol.h): an over-long line is never
// buffered whole, its length is still reported, and a LOAD/APPEND payload
// or a BATCH that holds one fails with the same ERR after all of its
// lines are consumed.

#include "server/line_channel.h"

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.h"

namespace iodb {
namespace {

using server::kMaxLineBytes;
using server::LineChannel;
using server::ProtocolSession;
using server::ServingState;

// Writes `bytes` to `fd` and half-closes it, stopping at the first error.
void SendAndShutdown(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
}

std::string LineTooLong(size_t bytes) {
  return "ERR line-too-long (" + std::to_string(bytes) + " bytes; limit " +
         std::to_string(kMaxLineBytes) + ")";
}

TEST(LineChannelTest, OverLongLineIsSkippedWithinTheBound) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  const size_t long_bytes = 8 * kMaxLineBytes;
  std::thread writer([&] {
    SendAndShutdown(fds[0], std::string(long_bytes, 'x') + "\ngood line\n" +
                                std::string(kMaxLineBytes + 7, 'y'));
  });
  LineChannel channel(fds[1], fds[1]);
  std::string line = "untouched";
  EXPECT_EQ(channel.ReadLine(&line), LineChannel::ReadStatus::kTooLong);
  EXPECT_EQ(channel.too_long_bytes(), long_bytes);
  ASSERT_EQ(channel.ReadLine(&line), LineChannel::ReadStatus::kLine);
  EXPECT_EQ(line, "good line");
  // A final over-long line without a newline: skipped too, then EOF.
  EXPECT_EQ(channel.ReadLine(&line), LineChannel::ReadStatus::kTooLong);
  EXPECT_EQ(channel.too_long_bytes(), kMaxLineBytes + 7);
  EXPECT_EQ(channel.ReadLine(&line), LineChannel::ReadStatus::kEof);
  EXPECT_LE(channel.peak_buffered_bytes(),
            kMaxLineBytes + LineChannel::kReadChunk);
  writer.join();
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(LineChannelTest, LineOfExactlyTheLimitIsServed) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  std::thread writer([&] {
    SendAndShutdown(fds[0], std::string(kMaxLineBytes, 'z') + "\r\nnext");
  });
  LineChannel channel(fds[1], fds[1]);
  std::string line;
  // The '\r' of a CRLF counts: this line is one byte over.
  EXPECT_EQ(channel.ReadLine(&line), LineChannel::ReadStatus::kTooLong);
  EXPECT_EQ(channel.too_long_bytes(), kMaxLineBytes + 1);
  ASSERT_EQ(channel.ReadLine(&line), LineChannel::ReadStatus::kLine);
  EXPECT_EQ(line, "next");
  writer.join();
  ::close(fds[0]);
  ::close(fds[1]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  std::thread exact([&] {
    SendAndShutdown(fds[0], std::string(kMaxLineBytes, 'z') + "\n");
  });
  LineChannel exact_channel(fds[1], fds[1]);
  ASSERT_EQ(exact_channel.ReadLine(&line), LineChannel::ReadStatus::kLine);
  EXPECT_EQ(line.size(), kMaxLineBytes);
  EXPECT_EQ(exact_channel.ReadLine(&line), LineChannel::ReadStatus::kEof);
  exact.join();
  ::close(fds[0]);
  ::close(fds[1]);
}

// Runs one session over `stream` and returns its output lines.
std::vector<std::string> Serve(ServingState* state, const std::string& stream) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  std::thread session([&] {
    LineChannel channel(fds[1], fds[1]);
    ProtocolSession(state, &channel, ProtocolSession::Options{}).Run();
    ::shutdown(fds[1], SHUT_WR);
  });
  std::thread writer([&] { SendAndShutdown(fds[0], stream); });
  std::string output;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fds[0], chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    output.append(chunk, static_cast<size_t>(n));
  }
  writer.join();
  session.join();
  ::close(fds[0]);
  ::close(fds[1]);
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t pos; (pos = output.find('\n', start)) != std::string::npos;
       start = pos + 1) {
    lines.push_back(output.substr(start, pos - start));
  }
  return lines;
}

TEST(LineChannelTest, OverLongPayloadLineFailsItsCommandAfterEnd) {
  ServingState state(ServiceOptions{}, storage::WalSyncOptions{});
  ASSERT_TRUE(state.service().Load("base", "P(u)\n").ok());
  const std::string long_line(kMaxLineBytes + 1, 'q');
  const std::string query = "exists t: P(t)";
  const std::vector<std::string> lines = Serve(
      &state, "LOAD big\nP(u)\n" + long_line + "\nQ(v)\nEND\n" +
                  "APPEND base\n" + long_line + "\nEND\n" +
                  "BATCH 2\nbase " + query + "\n" + long_line + "\n" +
                  "INFO big\nEVAL base " + query + "\n");
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0], LineTooLong(kMaxLineBytes + 1));  // the LOAD
  EXPECT_EQ(lines[1], LineTooLong(kMaxLineBytes + 1));  // the APPEND
  EXPECT_EQ(lines[2], LineTooLong(kMaxLineBytes + 1));  // the BATCH
  // Nothing was loaded, and the session kept reading commands in step.
  EXPECT_EQ(lines[3], "ERR INVALID_ARGUMENT: unknown database 'big'");
  EXPECT_EQ(lines[4].rfind("ENTAILED", 0), 0u) << lines[4];
  EXPECT_EQ(state.service().Snapshot("base")->SizeAtoms(), 1);
}

}  // namespace
}  // namespace iodb
