// The client side of the wire: the iodb_serve child process and
// line-oriented connections to its unix socket.

#ifndef WIREBENCH_WIRE_H_
#define WIREBENCH_WIRE_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

namespace wirebench {

/// A spawned iodb_serve. The destructor kills and reaps a child that is
/// still running, so no exit path leaves the server behind.
class ServerProcess {
 public:
  /// Starts `binary` with `args`; stdout and stderr go to `log_path`.
  static std::unique_ptr<ServerProcess> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path, std::string* error);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0; }

  /// SIGTERM, then waits up to `timeout_s` (SIGKILL after that). Returns
  /// true iff the server exited on its own with status 0.
  bool Stop(double timeout_s, std::string* error);

  /// VmHWM from /proc/<pid>/status in MiB, or -1 if unreadable.
  double PeakRssMb() const;

 private:
  explicit ServerProcess(pid_t pid) : pid_(pid) {}
  // Marks the child as reaped.
  void Forget();
  pid_t pid_;
};

/// Installs SIGTERM/SIGINT/SIGHUP handlers that SIGKILL the live server
/// before the client dies, so an interrupted run leaves no server behind.
void KillServerOnSignal();

/// One client connection: buffered line reads with a timeout.
class Conn {
 public:
  static std::unique_ptr<Conn> Connect(const std::string& socket_path,
                                       std::string* error);
  /// Takes ownership of a connected stream socket.
  static std::unique_ptr<Conn> Adopt(int fd) {
    return std::unique_ptr<Conn>(new Conn(fd));
  }
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Writes all of `bytes`; false on a write error.
  bool Send(const std::string& bytes);
  /// Reads one line (newline stripped); false on EOF, error or timeout.
  bool ReadLine(std::string* line, double timeout_s = 120.0) {
    return NextLine(line, timeout_s, true);
  }
  /// As ReadLine, but leaves the line to be read again.
  bool PeekLine(std::string* line, double timeout_s) {
    return NextLine(line, timeout_s, false);
  }

 private:
  explicit Conn(int fd) : fd_(fd) {}
  bool NextLine(std::string* line, double timeout_s, bool consume);
  int fd_;
  std::string buffer_;
  size_t pos_ = 0;
};

/// Polls connect + INFO until the server answers "OK ..." or
/// `timeout_s` passes (or the child exits). Returns the connection.
std::unique_ptr<Conn> WaitReady(const std::string& socket_path,
                                const ServerProcess& server, double timeout_s,
                                std::string* error);

/// syncfs() on the filesystem holding `dir` (best effort).
void SyncFilesystem(const std::string& dir);

/// Total bytes of the regular files under `dir`.
long long DirectoryBytes(const std::string& dir);

}  // namespace wirebench

#endif  // WIREBENCH_WIRE_H_
