// iodb_serve: line-oriented request server over the in-process
// EvaluationService. Two front ends share one protocol implementation
// (src/server/protocol.h):
//
//   * stdin/stdout (default): one session per process, inetd-style —
//     the compatibility path, and the only mode where OPEN is allowed;
//   * socket server (--listen=PATH and/or --tcp-port=N): a concurrent
//     multi-client front end (src/server/server.h) where N sessions
//     serve at once. EVAL/BATCH pin a published database version at
//     request start and run lock-free against it; LOAD/APPEND/SAVE go
//     through the single-writer publish path (WAL-log, build the next
//     version, atomically republish) and readers on the old version
//     drain naturally. See docs/SERVING.md.
//
// Protocol (one command per line; blank lines and '#' comments ignored):
//
//   LOAD <name>          start loading a database; the following lines
//                        are parser-format database text, terminated by
//                        a line containing only "END"
//                        -> "OK db=<name> atoms=<n>"
//                        With a durable registry open (--data-dir or
//                        OPEN), the database is persisted: a restarted
//                        server restores it under the same name with
//                        the same (uid, revision) identity.
//   APPEND <name>        append parser-format statements (same END
//                        terminator) to a registered database; with a
//                        registry open the mutation is logged to the
//                        database's write-ahead log first
//                        -> "OK db=<name> atoms=<n> revision=<r>"
//   OPEN <dir>           open (creating if needed) a durable registry;
//                        replaces the session's service with one
//                        restored from <dir> (stdin mode only — a
//                        socket session may not swap the registry under
//                        its peers). The registry it replaces is flushed
//                        first; if that fails, OPEN errors and the
//                        current registry stays
//                        -> "OK dir=<dir> databases=<n>"
//   SAVE <name>          fold the write-ahead log of <name> into a
//                        fresh snapshot (registry required)
//                        -> "OK db=<name> atoms=<n>"
//   INFO [<name>]        -> "OK db=<name> atoms=<n> uid=<u> revision=<r>"
//                        or, with no name, the service identity:
//                        "OK databases=<n> vocab-uid=<u>"
//   EVAL <request>       <request> is the wire form of service/request.h:
//                        <db> [--semantics=...] [--engine=...]
//                        [--countermodel] [--explain] [--identity] <query>
//                        -> verdict line "ENTAILED  [engine: ..., cache:
//                        hit|miss]", then optional "countermodel: ..."
//                        and explain lines; --identity adds the pinned
//                        snapshot's "db: <uid>@<revision>" to the
//                        verdict line
//   BATCH <n>            the next n lines are EVAL request lines, served
//                        as one batch through the worker pool
//                        -> n verdict lines, in request order
//   STATS                -> the service counters, one "name value" per
//                        line, terminated by "OK"
//   QUIT                 -> exit 0 (EOF does the same)
//
// Every failure is reported as a single "ERR <message>" line and the
// session continues; an unrecognized verb is the structured
// "ERR unknown-verb '<verb>'", a line over the 1 MiB limit is
// "ERR line-too-long ..." (inside a LOAD/APPEND payload or a BATCH it
// fails that command once the command's lines are consumed), and a
// request that exhausted its deadline / step budget / cancellation is
// "ERR deadline-exceeded <detail>" or "ERR cancelled <detail>".
// Flags: --workers=N (worker pool size, default: machine),
// --costing=on|off (statistics-backed cost-based planning default for
// requests that do not pass their own --costing flag; default on),
// --plan-cache=N (plan cache capacity, default 128),
// --data-dir=DIR (open a durable registry at startup),
// --wal-sync=none|commit|interval (WAL flush policy, default commit),
// --default-deadline-ms=N / --default-step-budget=N (governance applied
// to requests that set none of their own), --listen=PATH (serve on a
// unix-domain socket), --tcp-port=N (serve on 127.0.0.1:N; 0 picks an
// ephemeral port, announced on stdout), --max-sessions=N (socket
// concurrency cap, default 256).
//
// Shutdown: SIGTERM / SIGINT (and, in stdin mode, QUIT / EOF) end the
// process cleanly — the registry's un-synced WAL appends are flushed
// and the process exits 0. Signals are delivered through a self-pipe:
// the handler writes one byte to a pipe that every blocking wait polls
// alongside its data fd, so a signal that lands between "check the
// flag" and "enter the blocking read" (the old lost-wakeup window)
// still interrupts the wait immediately. In socket mode, shutdown is a
// drain: in-flight evaluations are cancelled, every session is joined,
// and acknowledged appends are durable before exit.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <poll.h>
#include <string>
#include <unistd.h>

#include "server/line_channel.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/wal.h"

namespace {

using namespace iodb;

// Self-pipe for shutdown signals. The handler writes one byte and never
// drains it, so the pipe stays readable (level-triggered): a wait
// entered AFTER the signal still returns immediately — there is no
// window between checking a flag and blocking where a signal is lost.
int g_signal_pipe[2] = {-1, -1};

void OnShutdownSignal(int) {
  char byte = 's';
  // write(2) is async-signal-safe; a full pipe just means a byte is
  // already there, which is all we need.
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

bool InstallShutdownHandlers() {
  if (::pipe(g_signal_pipe) != 0) return false;
  struct sigaction action = {};
  action.sa_handler = OnShutdownSignal;
  sigemptyset(&action.sa_mask);
  // SA_RESTART deliberately NOT set, but correctness does not depend on
  // it: the self-pipe byte makes the poll() in LineChannel::ReadLine
  // return even if the signal itself was swallowed by a restart.
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  // A client that disconnects mid-response must surface as a write
  // error on that session, not kill the server.
  ::signal(SIGPIPE, SIG_IGN);
  return true;
}

// Socket mode: park until a shutdown signal arrives.
void WaitForShutdownSignal() {
  struct pollfd pfd = {g_signal_pipe[0], POLLIN, 0};
  for (;;) {
    int ready = ::poll(&pfd, 1, -1);
    if (ready > 0) return;
    if (ready < 0 && errno != EINTR) return;
  }
}

int FlushAndExit(server::ServingState& state) {
  Status status = state.FlushRegistry();
  if (!status.ok()) {
    std::fprintf(stderr, "iodb_serve: shutdown flush: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServiceOptions options;
  storage::WalSyncOptions sync;
  std::string data_dir;
  server::ServerOptions server_options;
  bool socket_mode = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--workers=", 0) == 0) {
      options.num_workers = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--plan-cache=", 0) == 0) {
      int capacity = std::atoi(arg.c_str() + 13);
      if (capacity <= 0) {
        std::fprintf(stderr, "iodb_serve: --plan-cache needs a positive "
                             "capacity\n");
        return 2;
      }
      options.plan_cache_capacity = static_cast<size_t>(capacity);
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      data_dir = arg.substr(11);
      if (data_dir.empty()) {
        std::fprintf(stderr, "iodb_serve: --data-dir needs a path\n");
        return 2;
      }
    } else if (arg.rfind("--wal-sync=", 0) == 0) {
      std::optional<storage::WalSyncPolicy> policy =
          storage::ParseWalSyncPolicy(arg.substr(11));
      if (!policy.has_value()) {
        std::fprintf(stderr, "iodb_serve: --wal-sync needs "
                             "none|commit|interval\n");
        return 2;
      }
      sync.policy = *policy;
    } else if (arg.rfind("--costing=", 0) == 0) {
      const std::string value = arg.substr(10);
      if (value == "on") {
        options.use_cost_model = true;
      } else if (value == "off") {
        options.use_cost_model = false;
      } else {
        std::fprintf(stderr,
                     "iodb_serve: --costing needs on or off\n");
        return 2;
      }
    } else if (arg.rfind("--default-deadline-ms=", 0) == 0) {
      options.default_deadline_ms = std::atoll(arg.c_str() + 22);
    } else if (arg.rfind("--default-step-budget=", 0) == 0) {
      options.default_step_budget = std::atoll(arg.c_str() + 22);
    } else if (arg.rfind("--listen=", 0) == 0) {
      server_options.unix_path = arg.substr(9);
      if (server_options.unix_path.empty()) {
        std::fprintf(stderr, "iodb_serve: --listen needs a socket path\n");
        return 2;
      }
      socket_mode = true;
    } else if (arg.rfind("--tcp-port=", 0) == 0) {
      server_options.tcp_port = std::atoi(arg.c_str() + 11);
      socket_mode = true;
    } else if (arg.rfind("--max-sessions=", 0) == 0) {
      server_options.max_sessions = std::atoi(arg.c_str() + 15);
      if (server_options.max_sessions <= 0) {
        std::fprintf(stderr, "iodb_serve: --max-sessions needs a positive "
                             "count\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: iodb_serve [--workers=N] [--plan-cache=N] "
                   "[--costing=on|off] "
                   "[--data-dir=DIR] [--wal-sync=none|commit|interval] "
                   "[--default-deadline-ms=N] [--default-step-budget=N] "
                   "[--listen=SOCKET_PATH] [--tcp-port=N] "
                   "[--max-sessions=N]\n");
      return 2;
    }
  }

  if (!InstallShutdownHandlers()) {
    std::fprintf(stderr, "iodb_serve: cannot create signal pipe\n");
    return 2;
  }

  server::ServingState state(options, sync);
  if (!data_dir.empty()) {
    Status status = state.OpenRegistry(data_dir);
    if (!status.ok()) {
      std::fprintf(stderr, "iodb_serve: --data-dir: %s\n",
                   status.ToString().c_str());
      return 2;
    }
  }

  if (socket_mode) {
    Result<std::unique_ptr<server::SocketServer>> server =
        server::SocketServer::Start(&state, server_options);
    if (!server.ok()) {
      std::fprintf(stderr, "iodb_serve: %s\n",
                   server.status().ToString().c_str());
      return 2;
    }
    // Announce the endpoints (the ephemeral TCP port in particular) so
    // harnesses can connect without racing the bind.
    if (!server.value()->unix_path().empty()) {
      std::printf("listening unix=%s\n", server.value()->unix_path().c_str());
    }
    if (server.value()->tcp_port() >= 0) {
      std::printf("listening tcp=127.0.0.1:%d\n", server.value()->tcp_port());
    }
    std::fflush(stdout);
    WaitForShutdownSignal();
    server.value()->Stop();  // drain: cancel, wake, join every session
    return FlushAndExit(state);
  }

  // stdin mode: one session over stdin/stdout, interruptible by the
  // signal pipe at any blocking point (idle, mid-payload, mid-batch).
  server::LineChannel channel(STDIN_FILENO, STDOUT_FILENO, g_signal_pipe[0]);
  server::ProtocolSession::Options session_options;
  session_options.allow_open = true;
  server::ProtocolSession session(&state, &channel, session_options);
  server::ProtocolSession::ExitReason reason = session.Run();
  if (reason == server::ProtocolSession::ExitReason::kChannelError) {
    std::fprintf(stderr, "iodb_serve: stdout write failed\n");
    return 1;
  }
  return FlushAndExit(state);
}
