// LineChannel: a buffered, interruptible line reader/writer over raw
// file descriptors — the transport under every serving session (stdin
// pipes, FIFOs, unix/TCP sockets alike).
//
// The read side fixes the lost-wakeup race of the old serve loop: a
// shutdown signal delivered between "check the flag" and "enter the
// blocking read" used to leave the process blocked until the next input
// line. Here every blocking wait is a poll() over {data fd, wake fd}, so
// a wake byte written at ANY point — before the wait, during it, or
// mid-payload — interrupts the very next (or current) wait. The wake fd
// is level-triggered by convention: the waker writes one byte and never
// drains it, so every subsequent wait returns kInterrupted too (shutdown
// is terminal).
//
// Lines are bounded: a line longer than kMaxLineBytes is not buffered.
// Once its prefix passes the limit the rest is discarded as it arrives,
// through the newline, and ReadLine reports kTooLong with the line's full
// length. So the input buffer never holds more than kMaxLineBytes plus
// one read chunk, and each newline search resumes where the last stopped.
//
// The write side buffers until Flush() (one syscall per response burst)
// and goes through the storage layer's EINTR/short-write-safe WriteFull.

#ifndef IODB_SERVER_LINE_CHANNEL_H_
#define IODB_SERVER_LINE_CHANNEL_H_

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <string_view>

namespace iodb::server {

/// Command lines (and LOAD/APPEND payload and BATCH request lines) over
/// this limit are rejected with a structured error instead of being
/// buffered.
inline constexpr size_t kMaxLineBytes = size_t{1} << 20;

class LineChannel {
 public:
  /// `read_fd` and `write_fd` may be the same descriptor (a socket).
  /// `wake_fd` < 0 disables interruption. The channel borrows all three
  /// (no close on destruction).
  LineChannel(int read_fd, int write_fd, int wake_fd = -1);

  enum class ReadStatus {
    kLine,         // *line holds the next line (newline stripped)
    kTooLong,      // the next line exceeded kMaxLineBytes and was skipped;
                   // too_long_bytes() has its length
    kEof,          // clean end of input
    kInterrupted,  // the wake fd is readable (shutdown/disconnect)
    kError,        // read failed (connection reset, ...)
  };

  /// Blocks until a full line is buffered, then strips the trailing
  /// newline. A final line without a newline is still delivered (kEof
  /// comes on the following call), matching std::getline.
  ReadStatus ReadLine(std::string* line);

  /// The "complete line buffered" query: true, with `*line` viewing the
  /// next line (newline stripped) but not consuming it, if a complete
  /// line within kMaxLineBytes is buffered — after reading what the
  /// descriptor holds right now, if none was. Never waits. False
  /// when the next ReadLine would have to wait, or would report anything
  /// but kLine, or after a wake: the caller then goes to ReadLine, whose
  /// verdict stands. The view is valid until the next call on the
  /// channel; the next ReadLine returns the same line.
  bool PeekLine(std::string_view* line);

  /// The length (newline excluded) of the line the last kTooLong skipped.
  size_t too_long_bytes() const { return too_long_bytes_; }

  /// The most bytes the input buffer has held at once: at most
  /// kMaxLineBytes plus one read chunk.
  size_t peak_buffered_bytes() const { return peak_buffered_bytes_; }

  /// Size of one read() into the input buffer.
  static constexpr size_t kReadChunk = size_t{1} << 16;

  /// Appends to the output buffer. Call Flush() to push to the fd.
  void Write(std::string_view bytes);

  /// Writes the buffered output; false on a write error (broken pipe).
  /// Safe to call with an empty buffer.
  bool Flush();

 private:
  // Drops the consumed prefix and appends one read() chunk: > 0 bytes
  // read, 0 at EOF (sets eof_), < 0 on error (errno set).
  ssize_t ReadChunk();

  int read_fd_;
  int write_fd_;
  int wake_fd_;
  std::string in_buffer_;
  size_t in_pos_ = 0;    // consumed prefix of in_buffer_
  size_t scan_pos_ = 0;  // in_buffer_[in_pos_, scan_pos_) has no newline
  // > 0 while skipping an over-long line: its bytes dropped so far.
  size_t skipped_ = 0;
  size_t too_long_bytes_ = 0;
  size_t peak_buffered_bytes_ = 0;
  bool eof_ = false;
  std::string out_buffer_;
};

}  // namespace iodb::server

#endif  // IODB_SERVER_LINE_CHANNEL_H_
