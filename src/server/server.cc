#include "server/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <utility>

namespace iodb::server {

namespace {

Status SocketError(const std::string& what) {
  return Status::InvalidArgument(what + ": " + std::strerror(errno));
}

// A stalled or dead peer must not wedge a session (and with it, Stop())
// forever on a blocked write.
constexpr int kSendTimeoutSeconds = 30;

void ConfigureSessionFd(int fd) {
  struct timeval timeout = {kSendTimeoutSeconds, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
}

// How long a finished session waits for its peer's EOF.
constexpr auto kLingerBound = std::chrono::seconds(1);

// Lingering close. Closing a socket with unread input resets the
// connection: the peer's recv fails with ECONNRESET, and over TCP the
// reset can discard responses the peer has not read yet. So the write
// side is half-closed first (the peer reads every response, then EOF)
// and the input the peer still sends (say, commands after QUIT) is read
// and dropped until its EOF, a wake byte, a read error or kLingerBound.
void LingeringClose(int fd, int wake_fd) {
  (void)::shutdown(fd, SHUT_WR);
  const auto deadline = std::chrono::steady_clock::now() + kLingerBound;
  char chunk[4096];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return;
    struct pollfd fds[2] = {{fd, POLLIN, 0}, {wake_fd, POLLIN, 0}};
    const int ready = ::poll(fds, 2, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0 || (fds[1].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      return;
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
  }
}

}  // namespace

SocketServer::SocketServer(ServingState* state, ServerOptions options)
    : state_(state), options_(std::move(options)) {}

Result<std::unique_ptr<SocketServer>> SocketServer::Start(
    ServingState* state, ServerOptions options) {
  if (options.unix_path.empty() && options.tcp_port < 0) {
    return Status::InvalidArgument(
        "SocketServer needs a unix path or a TCP port");
  }
  // A peer that resets mid-response must surface as a write error, not
  // kill the process.
  ::signal(SIGPIPE, SIG_IGN);
  std::unique_ptr<SocketServer> server(
      new SocketServer(state, std::move(options)));
  Status status = server->Bind();
  if (!status.ok()) return status;
  server->accept_thread_ = std::thread([raw = server.get()] {
    raw->AcceptLoop();
  });
  return server;
}

Status SocketServer::Bind() {
  if (::pipe(wake_pipe_) != 0 || ::pipe(reap_pipe_) != 0) {
    return SocketError("pipe");
  }
  if (!options_.unix_path.empty()) {
    struct sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: '" +
                                     options_.unix_path + "'");
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    unix_listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (unix_listen_fd_ < 0) return SocketError("socket(AF_UNIX)");
    (void)::unlink(options_.unix_path.c_str());  // replace a stale socket
    if (::bind(unix_listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return SocketError("bind('" + options_.unix_path + "')");
    }
    if (::listen(unix_listen_fd_, 64) != 0) return SocketError("listen");
  }
  if (options_.tcp_port >= 0) {
    tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (tcp_listen_fd_ < 0) return SocketError("socket(AF_INET)");
    int one = 1;
    (void)::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof(one));
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::bind(tcp_listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return SocketError("bind(127.0.0.1:" +
                         std::to_string(options_.tcp_port) + ")");
    }
    if (::listen(tcp_listen_fd_, 64) != 0) return SocketError("listen");
    socklen_t len = sizeof(addr);
    if (::getsockname(tcp_listen_fd_,
                      reinterpret_cast<struct sockaddr*>(&addr),
                      &len) != 0) {
      return SocketError("getsockname");
    }
    tcp_port_ = ntohs(addr.sin_port);
  }
  return Status::Ok();
}

void SocketServer::RunSession(Session* session) {
  LineChannel channel(session->fd, session->fd, wake_pipe_[0]);
  ProtocolSession protocol(state_, &channel, ProtocolSession::Options{},
                           &session->cancel);
  (void)protocol.Run();
  // The peer may close first now: that is no disconnect to fan out.
  session->closing.store(true, std::memory_order_release);
  LingeringClose(session->fd, wake_pipe_[0]);
  session->done.store(true, std::memory_order_release);
  // Wake the accept loop to join us; the byte is drained there.
  char byte = 'r';
  (void)!::write(reap_pipe_[1], &byte, 1);
}

void SocketServer::ReapFinishedSessions() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (size_t i = 0; i < sessions_.size();) {
    if (sessions_[i]->done.load(std::memory_order_acquire)) {
      sessions_[i]->thread.join();
      ::close(sessions_[i]->fd);
      sessions_.erase(sessions_.begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
}

void SocketServer::AcceptLoop() {
  for (;;) {
    // Rebuild the poll set every pass: reap pipe + listeners + every
    // live session fd (watched for peer hangup only — the session
    // thread owns the data).
    std::vector<struct pollfd> fds;
    std::vector<Session*> watched;
    fds.push_back({reap_pipe_[0], POLLIN, 0});
    if (unix_listen_fd_ >= 0 && !stopping_.load()) {
      fds.push_back({unix_listen_fd_, POLLIN, 0});
    }
    if (tcp_listen_fd_ >= 0 && !stopping_.load()) {
      fds.push_back({tcp_listen_fd_, POLLIN, 0});
    }
    const size_t first_session = fds.size();
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (const std::unique_ptr<Session>& session : sessions_) {
        if (session->closing.load(std::memory_order_acquire) ||
            session->hangup_seen) {
          continue;
        }
        fds.push_back({session->fd, POLLRDHUP, 0});
        watched.push_back(session.get());
      }
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable; Stop() still joins whatever is left
    }
    if ((fds[0].revents & POLLIN) != 0) {
      char drain[64];
      (void)!::read(reap_pipe_[0], drain, sizeof(drain));
    }
    // Peer hangups: fan the disconnect out to the session's in-flight
    // evaluation via its cancel token. The session itself exits through
    // its read/write path; we only trip the token once. This must run
    // BEFORE the reap — sessions are only ever freed by
    // ReapFinishedSessions() on this thread, so the watched pointers
    // stay valid exactly until then. A session that already finished on
    // its own gets no disconnect count.
    for (size_t i = first_session; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLRDHUP | POLLHUP | POLLERR)) == 0) continue;
      Session* session = watched[i - first_session];
      if (session->closing.load(std::memory_order_acquire)) continue;
      session->hangup_seen = true;
      session->cancel.Cancel();
      ++disconnect_cancels_;
    }
    ReapFinishedSessions();
    if (stopping_.load()) {
      // Drain mode: no new connections; exit once every session thread
      // has been joined and removed.
      std::lock_guard<std::mutex> lock(sessions_mu_);
      if (sessions_.empty()) return;
      continue;
    }
    // New connections.
    for (size_t i = 1; i < first_session; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      int fd = ::accept4(fds[i].fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) continue;
      bool reject;
      {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        reject = static_cast<int>(sessions_.size()) >= options_.max_sessions;
      }
      if (reject) {
        static const char kBusy[] = "ERR too-many-sessions\n";
        (void)!::write(fd, kBusy, sizeof(kBusy) - 1);
        ::close(fd);
        ++rejected_;
        continue;
      }
      ConfigureSessionFd(fd);
      auto session = std::make_unique<Session>();
      session->fd = fd;
      Session* raw = session.get();
      {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        sessions_.push_back(std::move(session));
      }
      raw->thread = std::thread([this, raw] { RunSession(raw); });
      ++accepted_;
    }
  }
}

SocketServer::Stats SocketServer::stats() const {
  Stats stats;
  stats.sessions_accepted = accepted_;
  stats.sessions_rejected = rejected_;
  stats.disconnect_cancels = disconnect_cancels_;
  std::lock_guard<std::mutex> lock(sessions_mu_);
  stats.sessions_active = static_cast<long long>(sessions_.size());
  return stats;
}

void SocketServer::Stop() {
  if (stopped_) return;
  stopping_.store(true);
  // One never-drained wake byte: every session's next (or current)
  // blocked read returns kInterrupted, now and forever.
  char byte = 'w';
  (void)!::write(wake_pipe_[1], &byte, 1);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const std::unique_ptr<Session>& session : sessions_) {
      session->cancel.Cancel();
    }
  }
  (void)!::write(reap_pipe_[1], &byte, 1);  // wake the accept loop
  if (accept_thread_.joinable()) accept_thread_.join();
  ReapFinishedSessions();  // anything that finished after the loop exited
  if (unix_listen_fd_ >= 0) {
    ::close(unix_listen_fd_);
    unix_listen_fd_ = -1;
    (void)::unlink(options_.unix_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
  for (int* pipe_pair : {wake_pipe_, reap_pipe_}) {
    for (int i = 0; i < 2; ++i) {
      if (pipe_pair[i] >= 0) {
        ::close(pipe_pair[i]);
        pipe_pair[i] = -1;
      }
    }
  }
  stopped_ = true;
}

SocketServer::~SocketServer() { Stop(); }

}  // namespace iodb::server
