// SocketServer: the concurrent multi-client front end. An accept loop
// plus one session thread per connection, every session speaking the
// line protocol (server/protocol.h) against one shared ServingState.
//
// Concurrency model (see docs/SERVING.md):
//
//   * N sessions serve concurrently; EVAL/BATCH pin a published
//     database version at request start and run lock-free against it —
//     no reader ever blocks on a writer;
//   * LOAD/APPEND/SAVE funnel through the one writer seam — the
//     durable registry, which serializes its own writes, or the bare
//     service's publish path (WAL-log, build the next version,
//     atomically republish); the protocol takes no lock of its own, and
//     readers on the old version drain naturally;
//   * per-session governance: every session owns a CancelToken wired
//     into its evaluations. The monitor thread watches session sockets
//     for peer hangup (POLLRDHUP) and trips the token, so a client that
//     disconnects mid-request cancels its in-flight work instead of
//     burning a worker. (Half-closing the write side counts as
//     disconnecting — keep the socket open until responses arrive.)
//   * lingering close: a session that ends half-closes its socket and
//     reads its peer's remaining input (up to EOF, a wake byte or one
//     second) before the fd is closed, so bytes sent after QUIT never
//     turn the close into a connection reset;
//   * shutdown (Stop): a never-drained wake byte interrupts every
//     session's next (or current) blocking read, all tokens are
//     cancelled, and the server joins every session before returning —
//     a drain, not an abort; acknowledged work is complete.

#ifndef IODB_SERVER_SERVER_H_
#define IODB_SERVER_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.h"
#include "util/budget.h"
#include "util/status.h"

namespace iodb::server {

struct ServerOptions {
  /// Non-empty: listen on this unix-domain socket path (a stale socket
  /// file is replaced).
  std::string unix_path;
  /// >= 0: listen on 127.0.0.1:tcp_port (0 picks an ephemeral port,
  /// readable back via tcp_port()). Loopback only — the protocol has no
  /// authentication.
  int tcp_port = -1;
  /// Connections beyond this many live sessions are turned away with a
  /// one-line structured error.
  int max_sessions = 256;
};

class SocketServer {
 public:
  /// Binds the listeners and starts the accept/monitor thread. At least
  /// one of unix_path / tcp_port must be set.
  static Result<std::unique_ptr<SocketServer>> Start(ServingState* state,
                                                     ServerOptions options);

  ~SocketServer();

  /// The bound TCP port (resolved when options asked for port 0), or -1.
  int tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return options_.unix_path; }

  struct Stats {
    long long sessions_accepted = 0;
    long long sessions_active = 0;
    long long sessions_rejected = 0;
    long long disconnect_cancels = 0;
  };
  Stats stats() const;

  /// Graceful drain: stops accepting, wakes every blocked session read,
  /// cancels in-flight evaluations, joins all session threads, closes
  /// the listeners (unlinking the unix path). Idempotent.
  void Stop();

 private:
  struct Session {
    int fd = -1;
    CancelToken cancel;
    std::thread thread;
    // The protocol loop ended; the fd is in its lingering close.
    std::atomic<bool> closing{false};
    // The thread is finished; the reaper joins it and closes the fd.
    std::atomic<bool> done{false};
    bool hangup_seen = false;
  };

  SocketServer(ServingState* state, ServerOptions options);
  Status Bind();
  void AcceptLoop();
  void RunSession(Session* session);
  void ReapFinishedSessions();  // join + close + erase (accept thread only)

  ServingState* state_;
  ServerOptions options_;
  int tcp_port_ = -1;
  int unix_listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  // wake_pipe_: written once at Stop(), never drained — every session's
  // LineChannel polls the read end (level-triggered shutdown).
  // reap_pipe_: session threads write a byte when they finish so the
  // accept loop wakes to join them (drained each time).
  int wake_pipe_[2] = {-1, -1};
  int reap_pipe_[2] = {-1, -1};
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  // Stop() ran to completion
  mutable std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::atomic<long long> accepted_{0};
  std::atomic<long long> rejected_{0};
  std::atomic<long long> disconnect_cancels_{0};
};

}  // namespace iodb::server

#endif  // IODB_SERVER_SERVER_H_
