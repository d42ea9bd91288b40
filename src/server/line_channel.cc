#include "server/line_channel.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "storage/io.h"

namespace iodb::server {

LineChannel::LineChannel(int read_fd, int write_fd, int wake_fd)
    : read_fd_(read_fd), write_fd_(write_fd), wake_fd_(wake_fd) {}

LineChannel::ReadStatus LineChannel::ReadLine(std::string* line) {
  for (;;) {
    // Serve from the buffer first: bytes already read must be consumed
    // before EOF/interrupt is reported, or pipelined commands would be
    // dropped.
    const size_t newline = in_buffer_.find('\n', scan_pos_);
    if (newline != std::string::npos) {
      const size_t start = in_pos_;
      const size_t length = newline - start;
      in_pos_ = scan_pos_ = newline + 1;
      if (skipped_ > 0 || length > kMaxLineBytes) {
        too_long_bytes_ = skipped_ + length;
        skipped_ = 0;
        return ReadStatus::kTooLong;
      }
      line->assign(in_buffer_, start, length);
      return ReadStatus::kLine;
    }
    scan_pos_ = in_buffer_.size();
    // A partial line past the limit is dropped; only its length is
    // still needed.
    if (skipped_ > 0 || in_buffer_.size() - in_pos_ > kMaxLineBytes) {
      skipped_ += in_buffer_.size() - in_pos_;
      in_buffer_.clear();
      in_pos_ = scan_pos_ = 0;
    }
    if (eof_) {
      if (skipped_ > 0) {  // a final over-long line without a newline
        too_long_bytes_ = skipped_;
        skipped_ = 0;
        return ReadStatus::kTooLong;
      }
      if (in_pos_ < in_buffer_.size()) {  // final line without a newline
        line->assign(in_buffer_, in_pos_, in_buffer_.size() - in_pos_);
        in_buffer_.clear();
        in_pos_ = scan_pos_ = 0;
        return ReadStatus::kLine;
      }
      return ReadStatus::kEof;
    }
    // Wait for data or a wake. The wake fd is checked by poll() itself,
    // so a wake byte written before this wait still interrupts it —
    // there is no unguarded window between a flag check and the read.
    struct pollfd fds[2];
    fds[0] = {read_fd_, POLLIN, 0};
    nfds_t nfds = 1;
    if (wake_fd_ >= 0) {
      fds[1] = {wake_fd_, POLLIN, 0};
      nfds = 2;
    }
    int ready = ::poll(fds, nfds, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;  // the wake pipe carries the signal
      return ReadStatus::kError;
    }
    if (nfds == 2 && (fds[1].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      return ReadStatus::kInterrupted;
    }
    if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;

    const ssize_t n = ReadChunk();
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kError;
    }
    // At EOF, loop to deliver any buffered final line first.
  }
}

bool LineChannel::PeekLine(std::string_view* line) {
  for (;;) {
    const size_t newline = in_buffer_.find('\n', scan_pos_);
    if (newline != std::string::npos) {
      if (skipped_ > 0 || newline - in_pos_ > kMaxLineBytes) return false;
      // [in_pos_, newline) has no newline: ReadLine resumes its scan here.
      scan_pos_ = newline;
      *line = std::string_view(in_buffer_).substr(in_pos_, newline - in_pos_);
      return true;
    }
    scan_pos_ = in_buffer_.size();
    if (eof_ || skipped_ > 0 || in_buffer_.size() - in_pos_ > kMaxLineBytes) {
      return false;
    }
    // Read only what is there now, and never past a wake.
    struct pollfd fds[2];
    fds[0] = {read_fd_, POLLIN, 0};
    nfds_t nfds = 1;
    if (wake_fd_ >= 0) {
      fds[1] = {wake_fd_, POLLIN, 0};
      nfds = 2;
    }
    if (::poll(fds, nfds, 0) <= 0) return false;
    if (nfds == 2 && fds[1].revents != 0) return false;
    if ((fds[0].revents & POLLIN) == 0) return false;
    if (ReadChunk() <= 0) return false;
  }
}

ssize_t LineChannel::ReadChunk() {
  // Drop the consumed prefix before reading more: the buffer then holds
  // at most one partial line plus one chunk.
  in_buffer_.erase(0, in_pos_);
  scan_pos_ -= in_pos_;
  in_pos_ = 0;
  char chunk[kReadChunk];
  const ssize_t n = ::read(read_fd_, chunk, sizeof(chunk));
  if (n == 0) eof_ = true;
  if (n <= 0) return n;
  in_buffer_.append(chunk, static_cast<size_t>(n));
  peak_buffered_bytes_ = std::max(peak_buffered_bytes_, in_buffer_.size());
  return n;
}

void LineChannel::Write(std::string_view bytes) { out_buffer_ += bytes; }

bool LineChannel::Flush() {
  if (out_buffer_.empty()) return true;
  Status status = storage::WriteFull(write_fd_, out_buffer_, "session fd");
  out_buffer_.clear();
  return status.ok();
}

}  // namespace iodb::server
