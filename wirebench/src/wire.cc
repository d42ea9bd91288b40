#include "wire.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

extern char** environ;

namespace wirebench {
namespace {

double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The live server, if any, for the signal handler below.
std::atomic<pid_t> g_live_server{-1};

void KillServerAndDie(int sig) {
  const pid_t pid = g_live_server.load();
  if (pid > 0) ::kill(pid, SIGKILL);
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

// Reaps the child if it has exited; returns true and its wait status.
bool Reap(pid_t pid, bool block, int* status) {
  for (;;) {
    const pid_t got = ::waitpid(pid, status, block ? 0 : WNOHANG);
    if (got == pid) return true;
    if (got == 0) return false;
    if (errno != EINTR) return true;  // not our child any more
  }
}

}  // namespace

std::unique_ptr<ServerProcess> ServerProcess::Spawn(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path, std::string* error) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    *error = "spawn " + binary + ": " + std::strerror(rc);
    return nullptr;
  }
  g_live_server = pid;
  return std::unique_ptr<ServerProcess>(new ServerProcess(pid));
}

void KillServerOnSignal() {
  ::signal(SIGTERM, KillServerAndDie);
  ::signal(SIGINT, KillServerAndDie);
  ::signal(SIGHUP, KillServerAndDie);
}

void ServerProcess::Forget() {
  pid_t expected = pid_;
  g_live_server.compare_exchange_strong(expected, -1);
  pid_ = -1;
}

ServerProcess::~ServerProcess() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  Reap(pid_, true, &status);
  Forget();
}

bool ServerProcess::Stop(double timeout_s, std::string* error) {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  const auto start = std::chrono::steady_clock::now();
  int status = 0;
  bool exited = false;
  while (!(exited = Reap(pid_, false, &status)) && Since(start) < timeout_s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    Reap(pid_, true, &status);
    Forget();
    *error = "server did not exit within " + std::to_string(timeout_s) +
             " s of SIGTERM";
    return false;
  }
  Forget();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "server exited with wait status " + std::to_string(status);
    return false;
  }
  return true;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return -1;
}

std::unique_ptr<Conn> Conn::Connect(const std::string& socket_path,
                                    std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + socket_path;
    return nullptr;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return nullptr;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = "connect " + socket_path + ": " + std::strerror(errno);
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<Conn>(new Conn(fd));
}

Conn::~Conn() { ::close(fd_); }

bool Conn::Send(const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

bool Conn::NextLine(std::string* line, double timeout_s, bool consume) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const size_t newline = buffer_.find('\n', pos_);
    if (newline != std::string::npos) {
      line->assign(buffer_, pos_, newline - pos_);
      if (!consume) return true;
      pos_ = newline + 1;
      if (pos_ > 65536) {
        buffer_.erase(0, pos_);
        pos_ = 0;
      }
      return true;
    }
    const double left = timeout_s - Since(start);
    if (left <= 0) return false;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::unique_ptr<Conn> WaitReady(const std::string& socket_path,
                                const ServerProcess& server, double timeout_s,
                                std::string* error) {
  const auto start = std::chrono::steady_clock::now();
  std::string last_error = "no attempt";
  while (Since(start) < timeout_s) {
    int status = 0;
    if (::waitpid(server.pid(), &status, WNOHANG) == server.pid()) {
      *error = "server exited during start-up (wait status " +
               std::to_string(status) + ")";
      return nullptr;
    }
    std::unique_ptr<Conn> conn = Conn::Connect(socket_path, &last_error);
    if (conn != nullptr) {
      std::string line;
      if (conn->Send("INFO\n") && conn->ReadLine(&line, timeout_s) &&
          line.rfind("OK ", 0) == 0) {
        return conn;
      }
      last_error = "INFO answered '" + line + "'";
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  *error = "server not ready within " + std::to_string(timeout_s) +
           " s: " + last_error;
  return nullptr;
}

void SyncFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

long long DirectoryBytes(const std::string& dir) {
  long long bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += static_cast<long long>(entry.file_size(ec));
    }
  }
  return bytes;
}

}  // namespace wirebench
