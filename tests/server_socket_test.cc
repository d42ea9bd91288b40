// Socket server tests (server/server.h): multi-client sessions over one
// shared service with snapshot-isolated reads, the disconnect-cancel
// fan-out, graceful shutdown drain, the TCP front end, the session cap,
// durable writers racing with no protocol lock, the lingering close of a
// session that ends with unread input, and OPEN's flush of the registry
// it replaces. The multi-client test is the serving layer's
// consistency proof and runs under the TSan CI job: M concurrent
// sessions interleave EVAL/APPEND/BATCH, every response's (uid,
// revision) identity must be a consistent snapshot, and the final state
// must equal a serial replay of the same mutations.

#include "server/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/line_channel.h"
#include "server/protocol.h"
#include "storage/durable_registry.h"
#include "storage/wal.h"

namespace iodb {
namespace {

namespace fs = std::filesystem;

using server::LineChannel;
using server::ServingState;
using server::SocketServer;

std::string SocketPath(const std::string& name) {
  // sun_path is ~108 bytes; TempDir can be long, so fall back to /tmp.
  std::string path = testing::TempDir() + "/" + name;
  if (path.size() >= 100) path = "/tmp/" + name;
  return path;
}

// A minimal blocking protocol client over a connected socket.
class Client {
 public:
  static std::unique_ptr<Client> ConnectUnix(const std::string& path) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return nullptr;
    struct sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return nullptr;
    }
    return std::unique_ptr<Client>(new Client(fd));
  }

  static std::unique_ptr<Client> ConnectTcp(int port) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return nullptr;
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return nullptr;
    }
    return std::unique_ptr<Client>(new Client(fd));
  }

  ~Client() { Close(); }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool Send(const std::string& text) {
    channel_.Write(text);
    return channel_.Flush();
  }

  bool ReadLine(std::string* line) {
    return channel_.ReadLine(line) == LineChannel::ReadStatus::kLine;
  }

  // Sends one command and returns the single response line.
  std::string RoundTrip(const std::string& command) {
    if (!Send(command + "\n")) return "<send failed>";
    std::string line;
    if (!ReadLine(&line)) return "<read failed>";
    return line;
  }

 private:
  explicit Client(int fd) : fd_(fd), channel_(fd, fd) {}
  int fd_;
  LineChannel channel_;
};

// Serves a bare service, or with a non-empty `data_dir` a durable
// registry opened there.
struct ServerFixture {
  ServerFixture(const std::string& socket_name, int max_sessions = 256,
                int tcp_port = -1, const std::string& data_dir = "") {
    state = std::make_unique<ServingState>(ServiceOptions{},
                                           storage::WalSyncOptions{});
    if (!data_dir.empty()) {
      Status opened = state->OpenRegistry(data_dir);
      EXPECT_TRUE(opened.ok()) << opened.ToString();
    }
    server::ServerOptions options;
    options.unix_path = SocketPath(socket_name);
    options.tcp_port = tcp_port;
    options.max_sessions = max_sessions;
    Result<std::unique_ptr<SocketServer>> started =
        SocketServer::Start(state.get(), options);
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    if (started.ok()) server = std::move(started.value());
  }

  std::unique_ptr<ServingState> state;
  std::unique_ptr<SocketServer> server;
};

// Parses "ENTAILED  [..., db: <uid>@<revision>]" verdict lines.
struct Verdict {
  bool entailed = false;
  uint64_t revision = 0;
  bool parsed = false;
};

Verdict ParseVerdict(const std::string& line) {
  Verdict verdict;
  if (line.rfind("ENTAILED", 0) == 0) {
    verdict.entailed = true;
  } else if (line.rfind("NOT ENTAILED", 0) != 0) {
    return verdict;  // not a verdict line
  }
  size_t at = line.rfind('@');
  size_t close = line.rfind(']');
  if (at == std::string::npos || close == std::string::npos || close <= at) {
    return verdict;
  }
  verdict.revision = std::stoull(line.substr(at + 1, close - at - 1));
  verdict.parsed = true;
  return verdict;
}

// The value of " key=" in a response line ("" when absent).
std::string Field(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  at += needle.size();
  return line.substr(at, line.find(' ', at) - at);
}

TEST(ServerSocketTest, SingleSessionServesTheProtocol) {
  ServerFixture fixture("iodb_single.sock");
  ASSERT_NE(fixture.server, nullptr);
  std::unique_ptr<Client> client =
      Client::ConnectUnix(fixture.server->unix_path());
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->Send("LOAD base\nP(u)\nQ(v)\nu < v\nEND\n"));
  std::string line;
  ASSERT_TRUE(client->ReadLine(&line));
  EXPECT_EQ(line, "OK db=base atoms=3");

  EXPECT_EQ(client->RoundTrip(
                "EVAL base exists t1 t2: P(t1) & t1 < t2 & Q(t2)"),
            "ENTAILED  [engine: bounded-width, cache: miss]");
  EXPECT_EQ(client->RoundTrip("FROBNICATE"),
            "ERR unknown-verb 'FROBNICATE'");
  // OPEN is a single-session (stdin mode) verb.
  std::string open_response = client->RoundTrip("OPEN /tmp/nope");
  EXPECT_NE(open_response.find("ERR OPEN is not available"),
            std::string::npos)
      << open_response;
  ASSERT_TRUE(client->Send("QUIT\n"));

  fixture.server->Stop();
  EXPECT_EQ(fixture.server->stats().sessions_accepted, 1);
  EXPECT_EQ(fixture.server->stats().sessions_active, 0);
}

// Regression: plan-cache keys used to be a 64-bit mix of the query, the
// options and the database's planner fingerprint, and on this session
// (two near-identical databases) the mix cancelled the countermodel bit,
// so the second EVAL was served the first one's plan and printed no
// countermodel. The same key could hand a forced-engine request an
// auto-route plan. Keys now compare every option exactly.
TEST(ServerSocketTest, PlanCacheKeepsRequestOptionsApart) {
  ServerFixture fixture("iodb_options.sock");
  ASSERT_NE(fixture.server, nullptr);
  std::unique_ptr<Client> client =
      Client::ConnectUnix(fixture.server->unix_path());
  ASSERT_NE(client, nullptr);

  const char* loads[] = {
      "LOAD first\na < b\nP0(a)\nP1(a)\nP2(a)\nP3(a)\nEND\n",
      "LOAD bin5\nb0_0 < b0_1 < b0_2\nb1_0 < b1_1\nR(b0_0, b0_2)\n"
      "R(b0_2, b0_1)\nR(b0_2, b1_1)\nR(b1_0, b0_0)\nP(b1_0)\nEND\n",
      "LOAD bin6\nb0_0 < b0_1\nb1_0 < b1_1 < b1_2\nR(b1_2, b0_0)\n"
      "R(b1_1, b1_0)\nR(b1_2, b1_0)\nR(b1_2, b1_2)\nP(b1_1)\nP(b1_1)\n"
      "END\n",
  };
  std::string line;
  for (const char* load : loads) {
    ASSERT_TRUE(client->Send(load));
    ASSERT_TRUE(client->ReadLine(&line));
    ASSERT_EQ(line.rfind("OK", 0), 0u) << line;
  }

  // The order atoms keep these queries off the order-free route.
  EXPECT_EQ(client->RoundTrip(
                "EVAL bin6 exists t0 t1: R(t0, t1) & P(t1) & t0 < t1"),
            "NOT ENTAILED  [engine: brute-force, cache: miss]");
  EXPECT_EQ(client->RoundTrip("EVAL bin5 --countermodel exists t0 t1: "
                              "R(t0, t1) & P(t1) & t0 < t1"),
            "NOT ENTAILED  [engine: brute-force, cache: miss]");
  ASSERT_TRUE(client->ReadLine(&line));
  EXPECT_EQ(line.rfind("countermodel: ", 0), 0u) << line;

  // A forced engine is never served the auto route's plan.
  EXPECT_EQ(
      client->RoundTrip("EVAL first exists t s: P0(t) & P1(t) & t < s"),
      "ENTAILED  [engine: bounded-width, cache: miss]");
  EXPECT_EQ(client->RoundTrip("EVAL first --engine=paths exists t s: "
                              "P0(t) & P1(t) & t < s"),
            "ENTAILED  [engine: path-decomposition, cache: miss]");
  EXPECT_EQ(client->RoundTrip("EVAL first --engine=paths exists t s: "
                              "P0(t) & P1(t) & t < s"),
            "ENTAILED  [engine: path-decomposition, cache: hit]");

  // Without order atoms the same shapes take the order-free route, and
  // the countermodel request is again a plan of its own.
  EXPECT_EQ(client->RoundTrip("EVAL bin6 exists t0 t1: R(t0, t1) & P(t1)"),
            "NOT ENTAILED  [engine: order-free, cache: miss]");
  EXPECT_EQ(client->RoundTrip(
                "EVAL bin5 --countermodel exists t0 t1: R(t0, t1) & P(t1)"),
            "NOT ENTAILED  [engine: order-free, cache: miss]");
  ASSERT_TRUE(client->ReadLine(&line));
  EXPECT_EQ(line.rfind("countermodel: ", 0), 0u) << line;
  EXPECT_EQ(client->RoundTrip("EVAL first exists t: P0(t) & P1(t)"),
            "ENTAILED  [engine: order-free, cache: miss]");
  EXPECT_EQ(client->RoundTrip(
                "EVAL first --engine=paths exists t: P0(t) & P1(t)"),
            "ENTAILED  [engine: path-decomposition, cache: miss]");
  ASSERT_TRUE(client->Send("QUIT\n"));
  fixture.server->Stop();
}

TEST(ServerSocketTest, TcpLoopbackServes) {
  ServerFixture fixture("iodb_tcp.sock", 256, /*tcp_port=*/0);
  ASSERT_NE(fixture.server, nullptr);
  ASSERT_GT(fixture.server->tcp_port(), 0);

  std::unique_ptr<Client> client =
      Client::ConnectTcp(fixture.server->tcp_port());
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Send("LOAD base\nP(u)\nEND\n"));
  std::string line;
  ASSERT_TRUE(client->ReadLine(&line));
  EXPECT_EQ(line, "OK db=base atoms=1");
  EXPECT_EQ(client->RoundTrip("EVAL base exists t: P(t)"),
            "ENTAILED  [engine: auto, cache: miss]");
  client.reset();
  fixture.server->Stop();
}

TEST(ServerSocketTest, RejectsSessionsOverTheCap) {
  ServerFixture fixture("iodb_cap.sock", /*max_sessions=*/1);
  ASSERT_NE(fixture.server, nullptr);
  std::unique_ptr<Client> first =
      Client::ConnectUnix(fixture.server->unix_path());
  ASSERT_NE(first, nullptr);
  // Roundtrip so the accept loop has definitely admitted the session.
  EXPECT_NE(first->RoundTrip("INFO").find("OK databases="),
            std::string::npos);

  std::unique_ptr<Client> second =
      Client::ConnectUnix(fixture.server->unix_path());
  ASSERT_NE(second, nullptr);
  std::string line;
  ASSERT_TRUE(second->ReadLine(&line));
  EXPECT_EQ(line, "ERR too-many-sessions");

  second.reset();
  first.reset();
  fixture.server->Stop();
  EXPECT_EQ(fixture.server->stats().sessions_rejected, 1);
}

// Satellite: M concurrent sessions interleaving EVAL/APPEND/BATCH. The
// appended order fact flips a query's verdict at a known revision;
// every response's pinned (revision) must agree with its verdict, and
// the final served state must equal a serial replay of the same
// mutations on a fresh service.
TEST(ServerSocketTest, MultiClientSnapshotConsistency) {
  ServerFixture fixture("iodb_multi.sock");
  ASSERT_NE(fixture.server, nullptr);
  const std::string path = fixture.server->unix_path();
  const std::string query = "exists t1 t2: P(t1) & t1 < t2 & Q(t2)";

  {
    std::unique_ptr<Client> loader = Client::ConnectUnix(path);
    ASSERT_NE(loader, nullptr);
    // u and v are order points (below the anchor z) but mutually
    // unordered, so the query's verdict hinges on the appended u < v.
    ASSERT_TRUE(loader->Send("LOAD base\nP(u)\nQ(v)\nu < z\nv < z\nEND\n"));
    std::string line;
    ASSERT_TRUE(loader->ReadLine(&line));
    ASSERT_EQ(line, "OK db=base atoms=4");
    loader->Send("QUIT\n");
  }

  // The mutation stream: unordered padding facts around the one order
  // fact that makes the query entailed.
  std::vector<std::string> appends;
  for (int i = 0; i < 4; ++i) appends.push_back("P(pad" + std::to_string(i) + ")");
  appends.push_back("u < v");  // the flip
  for (int i = 0; i < 4; ++i) appends.push_back("Q(qad" + std::to_string(i) + ")");

  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::vector<std::vector<Verdict>> observed(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::unique_ptr<Client> client = Client::ConnectUnix(path);
      ASSERT_NE(client, nullptr);
      std::vector<Verdict>& log = observed[static_cast<size_t>(t)];
      while (!done.load(std::memory_order_acquire)) {
        if (t % 2 == 0) {
          Verdict verdict = ParseVerdict(
              client->RoundTrip("EVAL base --identity " + query));
          ASSERT_TRUE(verdict.parsed);
          log.push_back(verdict);
        } else {
          // Batch of two identical identity-reporting requests: both
          // members pin at batch start, so they must agree.
          ASSERT_TRUE(client->Send("BATCH 2\nbase --identity " + query +
                                   "\nbase --identity " + query + "\n"));
          std::string line1, line2;
          ASSERT_TRUE(client->ReadLine(&line1));
          ASSERT_TRUE(client->ReadLine(&line2));
          Verdict v1 = ParseVerdict(line1), v2 = ParseVerdict(line2);
          ASSERT_TRUE(v1.parsed && v2.parsed) << line1 << "\n" << line2;
          EXPECT_EQ(v1.revision, v2.revision);
          EXPECT_EQ(v1.entailed, v2.entailed);
          log.push_back(v1);
          log.push_back(v2);
        }
      }
      client->Send("QUIT\n");
    });
  }

  // One writer session streams the appends, recording each acknowledged
  // revision; readers race every publish boundary.
  std::vector<uint64_t> append_revisions;
  {
    std::unique_ptr<Client> writer = Client::ConnectUnix(path);
    ASSERT_NE(writer, nullptr);
    for (const std::string& text : appends) {
      ASSERT_TRUE(writer->Send("APPEND base\n" + text + "\nEND\n"));
      std::string ack;
      ASSERT_TRUE(writer->ReadLine(&ack));
      ASSERT_EQ(ack.rfind("OK db=base ", 0), 0u) << ack;
      size_t rev = ack.rfind("revision=");
      ASSERT_NE(rev, std::string::npos) << ack;
      append_revisions.push_back(std::stoull(ack.substr(rev + 9)));
      // A short stagger so reads interleave between publishes too.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writer->Send("QUIT\n");
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  // Consistency: verdict == (pinned revision >= flip revision).
  const uint64_t flip_revision = append_revisions[4];
  long long total = 0;
  for (const std::vector<Verdict>& log : observed) {
    for (const Verdict& verdict : log) {
      EXPECT_EQ(verdict.entailed, verdict.revision >= flip_revision)
          << "revision " << verdict.revision << " (flip at "
          << flip_revision << ")";
      ++total;
    }
  }
  EXPECT_GT(total, 0);

  // Serial-replay equivalence: the same LOAD + appends applied in order
  // on a fresh service give the same atom count and revision.
  EvaluationService serial;
  ASSERT_TRUE(serial.Load("base", "P(u)\nQ(v)\nu < z\nv < z").ok());
  Result<DbInfo> last(Status::InvalidArgument("no appends"));
  for (const std::string& text : appends) {
    Result<std::vector<storage::WalRecord>> records =
        storage::ParseMutationText(text, serial.vocab());
    ASSERT_TRUE(records.ok());
    last = serial.Mutate("base", [&](Database* db) {
      return storage::ApplyWalRecords(records.value(), db);
    });
    ASSERT_TRUE(last.ok());
  }
  std::unique_ptr<Client> checker = Client::ConnectUnix(path);
  ASSERT_NE(checker, nullptr);
  std::string info = checker->RoundTrip("INFO base");
  EXPECT_NE(info.find("atoms=" + std::to_string(last.value().atoms) + " "),
            std::string::npos)
      << info;
  EXPECT_NE(info.find("revision=" + std::to_string(last.value().revision)),
            std::string::npos)
      << info;
  checker->Send("QUIT\n");
  checker.reset();

  fixture.server->Stop();
  EXPECT_EQ(fixture.server->stats().sessions_active, 0);
}

// A genuinely long-running request for the drain/disconnect tests:
// three parallel chains whose interleavings the brute-force engine must
// search before the rare countermodel (R on two chain tops) appears —
// ~8 s of work on a release build, so only a tripped cancel token can
// end it promptly. Sized so the engine checks its budget frequently.
std::string HardLoadText() {
  std::string load = "LOAD hard\n";
  for (char chain : {'a', 'b', 'c'}) {
    for (int i = 1; i <= 11; ++i) {
      load += std::string("P(") + chain + std::to_string(i) + ")\n";
      if (i > 1) {
        load += std::string(1, chain) + std::to_string(i - 1) + " < " +
                chain + std::to_string(i) + "\n";
      }
    }
  }
  load += "R(a11)\nR(b11)\nEND\n";
  return load;
}

constexpr char kHardLoadAck[] = "OK db=hard atoms=65";
constexpr char kHardEval[] =
    "EVAL hard --engine=brute-force --deadline-ms=30000 "
    "exists t1 t2: R(t1) & t1 < t2 & R(t2)\n";

// Shutdown drain: Stop() while a session is blocked idle and another is
// mid-request must cancel the in-flight evaluation and join every
// session promptly — never hang on a blocked read.
TEST(ServerSocketTest, StopDrainsIdleAndBusySessions) {
  ServerFixture fixture("iodb_drain.sock");
  ASSERT_NE(fixture.server, nullptr);
  const std::string path = fixture.server->unix_path();

  // An idle session, provably admitted (roundtrip), now blocked reading.
  std::unique_ptr<Client> idle = Client::ConnectUnix(path);
  ASSERT_NE(idle, nullptr);
  EXPECT_NE(idle->RoundTrip("INFO").find("OK databases="),
            std::string::npos);

  // A busy session: a hard enumeration (many unordered points) with a
  // deadline backstop so a broken cancel path fails the test loudly
  // instead of hanging it.
  std::unique_ptr<Client> busy = Client::ConnectUnix(path);
  ASSERT_NE(busy, nullptr);
  ASSERT_TRUE(busy->Send(HardLoadText()));
  std::string line;
  ASSERT_TRUE(busy->ReadLine(&line));
  ASSERT_EQ(line, kHardLoadAck);
  ASSERT_TRUE(busy->Send(kHardEval));
  // Give the request a moment to be mid-evaluation.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto start = std::chrono::steady_clock::now();
  fixture.server->Stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            20)
      << "Stop() did not drain promptly";
  EXPECT_EQ(fixture.server->stats().sessions_active, 0);
}

// Disconnect fan-out: abruptly closing a session that is mid-request
// trips its cancel token (counted in disconnect_cancels) and the
// session is reaped.
TEST(ServerSocketTest, DisconnectCancelsInFlightWork) {
  ServerFixture fixture("iodb_dc.sock");
  ASSERT_NE(fixture.server, nullptr);

  std::unique_ptr<Client> client =
      Client::ConnectUnix(fixture.server->unix_path());
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Send(HardLoadText()));
  std::string line;
  ASSERT_TRUE(client->ReadLine(&line));
  ASSERT_EQ(line, kHardLoadAck);
  ASSERT_TRUE(client->Send(kHardEval));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client->Close();  // abrupt disconnect, no QUIT

  // The monitor must observe the hangup, cancel the evaluation, and
  // reap the session.
  bool reaped = false;
  for (int i = 0; i < 400 && !reaped; ++i) {
    SocketServer::Stats stats = fixture.server->stats();
    reaped = stats.sessions_active == 0 && stats.disconnect_cancels >= 1;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  SocketServer::Stats stats = fixture.server->stats();
  EXPECT_EQ(stats.sessions_active, 0);
  EXPECT_GE(stats.disconnect_cancels, 1);
  fixture.server->Stop();
}

// Durable writers need no protocol lock: one session APPENDs while
// another SAVEs the same database and readers EVAL alongside, and a
// registry reopened after the drain restores exactly the last
// acknowledged state. The registry's own writer mutex is what keeps an
// APPEND from landing between a SAVE's snapshot and the fresh WAL after
// it, where the restart would lose it.
TEST(ServerSocketTest, ConcurrentDurableWritersRestoreTheLastAcks) {
  const std::string data_dir = testing::TempDir() + "/iodb_socket_durable";
  fs::remove_all(data_dir);
  ServerFixture fixture("iodb_durable.sock", 256, -1, data_dir);
  ASSERT_NE(fixture.server, nullptr);
  const std::string path = fixture.server->unix_path();
  const std::string query = "exists t1 t2: P(t1) & t1 < t2 & Q(t2)";
  {
    std::unique_ptr<Client> loader = Client::ConnectUnix(path);
    ASSERT_NE(loader, nullptr);
    ASSERT_TRUE(loader->Send("LOAD base\nP(u)\nQ(v)\nu < z\nv < z\nEND\n"));
    std::string line;
    ASSERT_TRUE(loader->ReadLine(&line));
    ASSERT_EQ(line, "OK db=base atoms=4");
    loader->Send("QUIT\n");
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> sessions;
  for (int t = 0; t < 2; ++t) {
    sessions.emplace_back([&] {
      std::unique_ptr<Client> reader = Client::ConnectUnix(path);
      ASSERT_NE(reader, nullptr);
      while (!done.load(std::memory_order_acquire)) {
        ASSERT_TRUE(
            ParseVerdict(reader->RoundTrip("EVAL base --identity " + query))
                .parsed);
      }
      reader->Send("QUIT\n");
    });
  }
  std::atomic<int> saves{0};
  sessions.emplace_back([&] {
    std::unique_ptr<Client> saver = Client::ConnectUnix(path);
    ASSERT_NE(saver, nullptr);
    while (!done.load(std::memory_order_acquire)) {
      std::string ack = saver->RoundTrip("SAVE base");
      ASSERT_EQ(ack.rfind("OK db=base ", 0), 0u) << ack;
      ++saves;
    }
    saver->Send("QUIT\n");
  });

  std::string last_atoms, last_revision;
  {
    std::unique_ptr<Client> appender = Client::ConnectUnix(path);
    ASSERT_NE(appender, nullptr);
    for (int i = 0; i < 150; ++i) {
      ASSERT_TRUE(appender->Send("APPEND base\nP(pad" + std::to_string(i) +
                                 ")\nEND\n"));
      std::string ack;
      ASSERT_TRUE(appender->ReadLine(&ack));
      ASSERT_EQ(ack.rfind("OK db=base ", 0), 0u) << ack;
      last_atoms = Field(ack, "atoms");
      last_revision = Field(ack, "revision");
    }
    appender->Send("QUIT\n");
  }
  done.store(true, std::memory_order_release);
  for (std::thread& session : sessions) session.join();
  EXPECT_GT(saves.load(), 0);
  EXPECT_EQ(last_atoms, "154");

  std::unique_ptr<Client> checker = Client::ConnectUnix(path);
  ASSERT_NE(checker, nullptr);
  const std::string info = checker->RoundTrip("INFO base");
  EXPECT_EQ(Field(info, "atoms"), last_atoms) << info;
  EXPECT_EQ(Field(info, "revision"), last_revision) << info;
  checker->Send("QUIT\n");
  checker.reset();
  fixture.server->Stop();
  ASSERT_TRUE(fixture.state->FlushRegistry().ok());

  Result<std::unique_ptr<storage::DurableRegistry>> reopened =
      storage::DurableRegistry::Open(data_dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EvaluationService::DatabasePtr db =
      reopened.value()->service().Snapshot("base");
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(std::to_string(db->SizeAtoms()), last_atoms);
  EXPECT_EQ(std::to_string(db->uid()), Field(info, "uid"));
  EXPECT_EQ(std::to_string(db->revision()), last_revision);
  reopened.value().reset();
  fs::remove_all(data_dir);
}

// Lingering close: a session that ends on QUIT with more input already
// sent must not reset the connection. The peer reads the responses, then
// a clean EOF (recv == 0), never ECONNRESET. The input after QUIT is
// larger than one read chunk, so part of it is still unread in the
// socket when the session ends.
TEST(ServerSocketTest, QuitWithUnreadInputEndsInEofNotReset) {
  ServerFixture fixture("iodb_linger.sock");
  ASSERT_NE(fixture.server, nullptr);
  ASSERT_TRUE(
      fixture.state->service().Load("base", "P(u)\nQ(v)\nu < v\n").ok());

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, fixture.server->unix_path().c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string eval = "EVAL base exists t: P(t)\n";
  std::string bytes = eval + "QUIT\n";
  while (bytes.size() < 3 * LineChannel::kReadChunk / 2) bytes += eval;
  // One send, small enough for the socket buffer, so it completes while
  // the session still runs: the unread tail is what the close must drain.
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  std::string received;
  ssize_t last = 0;
  int last_errno = 0;
  char chunk[4096];
  for (;;) {
    last = ::recv(fd, chunk, sizeof(chunk), 0);
    if (last < 0 && errno == EINTR) continue;
    if (last <= 0) {
      last_errno = last < 0 ? errno : 0;
      break;
    }
    received.append(chunk, static_cast<size_t>(last));
  }
  ::close(fd);
  EXPECT_EQ(received, "ENTAILED  [engine: order-free, cache: miss]\n");
  EXPECT_EQ(last, 0) << "recv failed: " << std::strerror(last_errno);
  fixture.server->Stop();
  EXPECT_EQ(fixture.server->stats().disconnect_cancels, 0);
}

// OPEN flushes the registry it replaces (a registry does not flush on
// destruction). When that flush fails — here the un-synced WAL is gone —
// OPEN fails and the current registry keeps serving.
TEST(ServingStateTest, OpenKeepsTheRegistryWhoseFlushFails) {
  const std::string dir_a = testing::TempDir() + "/iodb_open_flush_a";
  const std::string dir_b = testing::TempDir() + "/iodb_open_flush_b";
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
  storage::WalSyncOptions sync;
  sync.policy = storage::WalSyncPolicy::kNone;
  ServingState state(ServiceOptions{}, sync);
  ASSERT_TRUE(state.OpenRegistry(dir_a).ok());
  ASSERT_TRUE(state.registry()->Load("base", "P(u)\n").ok());
  ASSERT_TRUE(state.registry()->AppendText("base", "P(w)\n").ok());
  ASSERT_TRUE(fs::remove(state.registry()->WalPath("base")));

  EXPECT_FALSE(state.OpenRegistry(dir_b).ok());
  ASSERT_NE(state.registry(), nullptr);
  EXPECT_EQ(state.registry()->dir(), dir_a);
  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

}  // namespace
}  // namespace iodb
