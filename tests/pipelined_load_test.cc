// Grouped LOADs (server/protocol.h, "Pipelined LOAD" in docs/SERVING.md)
// against the one-command-at-a-time session.
//
// Each seed builds a random command stream: valid LOADs, parse errors,
// duplicate names, LOADs that register predicates (some only after an
// error, some with clashing signatures), empty payloads, over-long
// payload lines, and EVAL / INFO / APPEND / STATS between them. One
// ServingState is fed the stream pipelined, in random pieces, through a
// single session, so group boundaries land at random points and some
// LOAD payloads run dry mid-way. A second ServingState is fed the same
// commands one at a time: a fresh session per command, which sees EOF
// after it, so every LOAD there takes the lone-LOAD path.
//
// Invariants:
//   * the response bytes are identical, once database and vocabulary
//     uids (process-wide counters) are renamed by first appearance;
//   * the vocabularies are identical, id for id;
//   * the published databases' uids rise in the order of the LOADs that
//     published them;
//   * durable mode: a restart restores every uid@revision.
//
// Two more tests trip the wake fd: while a group is in flight (every LOAD
// that was answered is published, and nothing else is), and while the
// session waits for the rest of a LOAD whose payload stopped mid-way
// (the LOADs before it were answered first).

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "server/line_channel.h"
#include "server/protocol.h"
#include "util/random.h"

namespace iodb {
namespace {

namespace fs = std::filesystem;

using server::kMaxLineBytes;
using server::LineChannel;
using server::ProtocolSession;
using server::ServingState;

constexpr uint64_t kSeedBase = 20261020100ULL;

void SendAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    done += static_cast<size_t>(n);
  }
}

// Reads `fd` to EOF; false if nothing arrives for 30 s.
bool ReceiveAll(int fd, std::string* out) {
  char chunk[1 << 16];
  for (;;) {
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 30000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return n == 0 || errno == ECONNRESET;
    out->append(chunk, static_cast<size_t>(n));
  }
}

// Runs one session over a socketpair: `pieces` are sent in order, with
// a short pause after those flagged in `pause_after`, then the write
// side is shut. Returns the session's output.
std::string RunSession(ServingState* state,
                       const std::vector<std::string>& pieces,
                       const std::vector<bool>& pause_after = {}) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  ProtocolSession::ExitReason reason =
      ProtocolSession::ExitReason::kChannelError;
  std::thread session_thread([&] {
    LineChannel channel(fds[1], fds[1]);
    ProtocolSession session(state, &channel, ProtocolSession::Options{});
    reason = session.Run();
    ::close(fds[1]);
  });
  std::thread writer([&] {
    for (size_t i = 0; i < pieces.size(); ++i) {
      SendAll(fds[0], pieces[i]);
      if (i < pause_after.size() && pause_after[i]) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    }
    ::shutdown(fds[0], SHUT_WR);
  });
  std::string output;
  const bool drained = ReceiveAll(fds[0], &output);
  if (!drained) ::shutdown(fds[0], SHUT_RDWR);
  writer.join();
  session_thread.join();
  ::close(fds[0]);
  EXPECT_TRUE(drained) << "session hung";
  EXPECT_EQ(reason, ProtocolSession::ExitReason::kQuit);
  return output;
}

// Renames every database uid and vocabulary uid in `text` by order of
// first appearance, so outputs of two processes-worth of counters
// compare byte for byte.
std::string NormalizeUids(const std::string& text) {
  static const std::regex uid(R"((uid=|db: |stats )(\d+)(@|\s|$))");
  std::map<std::string, int> seen;
  std::string out;
  auto begin = std::sregex_iterator(text.begin(), text.end(), uid);
  size_t last = 0;
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const std::smatch& m = *it;
    out.append(text, last, static_cast<size_t>(m.position(0)) - last);
    const std::string key = m[1].str() == "uid=" && m.position(0) >= 6 &&
                                    text.compare(static_cast<size_t>(
                                                     m.position(0)) - 6,
                                                 6, "vocab-") == 0
                                ? "v" + m[2].str()
                                : m[2].str();
    auto [entry, inserted] =
        seen.try_emplace(key, static_cast<int>(seen.size()));
    out += m[1].str() + "#" + std::to_string(entry->second) + m[3].str();
    last = static_cast<size_t>(m.position(0) + m.length(0));
  }
  out.append(text, last, std::string::npos);
  return out;
}

const std::vector<std::string> kNames = {"d0", "d1", "d2", "d3", "d4", "d5"};

// A LOAD payload of one of several kinds; `fresh` numbers predicates no
// earlier payload used.
std::string RandomPayload(Rng& rng, int* fresh, bool* long_line) {
  std::string text;
  switch (rng.UniformInt(0, 11)) {
    case 0:
    case 1:
    case 2:
    case 3: {  // a monadic database over a shared pool of predicates
      const int chains = rng.UniformInt(1, 3);
      for (int c = 0; c < chains; ++c) {
        const int length = rng.UniformInt(1, 4);
        for (int i = 0; i < length; ++i) {
          text += (i > 0 ? (rng.Bernoulli(0.7) ? " < " : " <= ") : "") +
                  ("c" + std::to_string(c) + "_" + std::to_string(i));
        }
        text += "\n";
        for (int i = 0; i < length; ++i) {
          if (rng.Bernoulli(0.6)) {
            text += "P" + std::to_string(rng.UniformInt(0, 7)) + "(c" +
                    std::to_string(c) + "_" + std::to_string(i) + ")\n";
          }
        }
      }
      break;
    }
    case 4:  // registers a predicate no earlier LOAD named
      text = "a < b\nN" + std::to_string((*fresh)++) + "(a)\nP0(b)\n";
      break;
    case 5:  // registers one, then fails on an arity clash
      text = "N" + std::to_string((*fresh)++) + "(u)\nu < v\nP1(u, v)\n";
      break;
    case 6:  // a declaration that may clash with an earlier monadic use
      text = rng.Bernoulli(0.5) ? "pred P2(object)\nP2(o)\n"
                                : "pred B(order, order)\nx < y\nB(x, y)\n";
      break;
    case 7:  // a binary database
      text = "x < y <= z\nB(x, y)\nB(y, z)\nP3(x)\n";
      break;
    case 8:  // a syntax error
      text = rng.Bernoulli(0.5) ? "P1(a\n" : "a < b\n<<<\n";
      break;
    case 9:  // a constant used with two sorts
      text = "pred O(object)\nu < v\nO(u)\n";
      break;
    case 10:  // empty
      break;
    default:
      if (!*long_line && rng.Bernoulli(0.3)) {
        *long_line = true;
        text = "P0(a)\n" + std::string(kMaxLineBytes + 1, 'q') + "\nP1(a)\n";
      } else {
        text = "# a comment\n\nP4(a)\n";
      }
      break;
  }
  return text;
}

struct Stream {
  std::vector<std::string> commands;  // each complete, payload included
};

Stream RandomStream(Rng& rng, bool durable) {
  Stream stream;
  int fresh = 0;
  bool long_line = false;
  const int runs = rng.UniformInt(2, 6);
  for (int r = 0; r < runs; ++r) {
    // A run of back-to-back LOADs, sometimes with blank or comment lines
    // between them.
    const int loads = rng.UniformInt(1, 24);
    for (int l = 0; l < loads; ++l) {
      std::string command;
      if (rng.Bernoulli(0.1)) command += rng.Bernoulli(0.5) ? "\n" : "# x\n";
      command += "LOAD " + kNames[rng.Uniform(kNames.size())] + "\n" +
                 RandomPayload(rng, &fresh, &long_line) + "END\n";
      stream.commands.push_back(std::move(command));
    }
    // Something else between runs.
    const std::string name = kNames[rng.Uniform(kNames.size())];
    switch (rng.UniformInt(0, 5)) {
      case 0:
        stream.commands.push_back("EVAL " + name +
                                  " --identity exists t: P0(t)\n");
        break;
      case 1:
        stream.commands.push_back("INFO " + name + "\n");
        break;
      case 2:
        stream.commands.push_back("INFO\n");
        break;
      case 3:
        stream.commands.push_back("APPEND " + name + "\nP5(z)\nz < w\nEND\n");
        break;
      case 4:
        stream.commands.push_back("EVAL " + name +
                                  " exists t1 t2: P0(t1) & t1 < t2\n");
        break;
      default:
        // STATS counts requests and publishes: the same in both modes.
        // In durable mode SAVE writes a snapshot; its response matches.
        stream.commands.push_back(durable ? "SAVE " + name + "\n"
                                          : "STATS\n");
        break;
    }
  }
  for (const std::string& name : kNames) {
    stream.commands.push_back("INFO " + name + "\n");
  }
  return stream;
}

// Splits `bytes` at random points (some pieces end mid-line).
std::vector<std::string> RandomPieces(Rng& rng, const std::string& bytes,
                                      std::vector<bool>* pause_after) {
  std::vector<std::string> pieces;
  size_t pos = 0;
  while (pos < bytes.size()) {
    const size_t length = rng.Bernoulli(0.3)
                              ? bytes.size() - pos
                              : static_cast<size_t>(rng.UniformInt(1, 4096));
    pieces.push_back(bytes.substr(pos, length));
    pause_after->push_back(rng.Bernoulli(0.3));
    pos += pieces.back().size();
  }
  return pieces;
}

// `b` holds the predicates of `a`, id for id; with `prefix`, `a` may
// hold more after them.
void ExpectSameVocabulary(const Vocabulary& a, const Vocabulary& b,
                          const std::string& context, bool prefix = false) {
  if (prefix) {
    ASSERT_GE(a.num_predicates(), b.num_predicates()) << context;
  } else {
    ASSERT_EQ(a.num_predicates(), b.num_predicates()) << context;
  }
  for (int id = 0; id < b.num_predicates(); ++id) {
    EXPECT_EQ(a.predicate(id).name, b.predicate(id).name)
        << "id " << id << " " << context;
    EXPECT_EQ(a.predicate(id).arg_sorts, b.predicate(id).arg_sorts)
        << "id " << id << " " << context;
  }
}

struct TempDir {
  explicit TempDir(const std::string& name)
      : path(testing::TempDir() + "/iodb_pipelined_" + name + "_" +
             std::to_string(::getpid())) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

void CheckSeed(uint64_t seed, bool durable) {
  const std::string context = "seed " + std::to_string(seed) +
                              (durable ? " (durable)" : " (bare)");
  Rng rng(seed);
  const Stream stream = RandomStream(rng, durable);
  TempDir ref_dir("ref"), grp_dir("grp");
  ServingState reference(ServiceOptions{}, storage::WalSyncOptions{});
  ServingState grouped(ServiceOptions{}, storage::WalSyncOptions{});
  if (durable) {
    ASSERT_TRUE(reference.OpenRegistry(ref_dir.path).ok()) << context;
    ASSERT_TRUE(grouped.OpenRegistry(grp_dir.path).ok()) << context;
  }

  // One command at a time; remember the last LOAD that published each
  // name.
  std::string expected;
  std::map<std::string, size_t> last_load;
  for (size_t i = 0; i < stream.commands.size(); ++i) {
    const std::string out = RunSession(&reference, {stream.commands[i]});
    expected += out;
    const size_t verb = stream.commands[i].find("LOAD ");
    if (verb != std::string::npos && out.rfind("OK db=", 0) == 0) {
      const size_t end = stream.commands[i].find('\n', verb);
      last_load[stream.commands[i].substr(verb + 5, end - verb - 5)] = i;
    }
  }

  std::string bytes;
  for (const std::string& command : stream.commands) bytes += command;
  std::vector<bool> pause_after;
  const std::vector<std::string> pieces = RandomPieces(rng, bytes, &pause_after);
  const std::string actual = RunSession(&grouped, pieces, pause_after);

  EXPECT_EQ(NormalizeUids(actual), NormalizeUids(expected)) << context;
  ExpectSameVocabulary(*reference.service().vocab(),
                       *grouped.service().vocab(), context);

  // Uids rise in the order of the LOADs that published them.
  std::vector<std::pair<size_t, std::string>> order;
  for (const auto& [name, index] : last_load) order.emplace_back(index, name);
  std::sort(order.begin(), order.end());
  uint64_t previous = 0;
  for (const auto& [index, name] : order) {
    EvaluationService::DatabasePtr db = grouped.service().Snapshot(name);
    ASSERT_NE(db, nullptr) << name << " " << context;
    EXPECT_GT(db->uid(), previous) << name << " " << context;
    previous = db->uid();
  }

  if (!durable) return;
  // A restart restores every identity.
  std::map<std::string, std::pair<uint64_t, uint64_t>> identities;
  for (const std::string& name : grouped.service().database_names()) {
    EvaluationService::DatabasePtr db = grouped.service().Snapshot(name);
    identities[name] = {db->uid(), db->revision()};
  }
  ASSERT_TRUE(grouped.FlushRegistry().ok()) << context;
  ServingState restarted(ServiceOptions{}, storage::WalSyncOptions{});
  ASSERT_TRUE(restarted.OpenRegistry(grp_dir.path).ok()) << context;
  EXPECT_EQ(restarted.service().database_names().size(), identities.size())
      << context;
  for (const auto& [name, identity] : identities) {
    EvaluationService::DatabasePtr db = restarted.service().Snapshot(name);
    ASSERT_NE(db, nullptr) << name << " " << context;
    EXPECT_EQ(db->uid(), identity.first) << name << " " << context;
    EXPECT_EQ(db->revision(), identity.second) << name << " " << context;
  }
  // A predicate registered by a parse that then failed (an APPEND with a
  // sort clash) reaches the vocabulary file only with the next write
  // that persists it, so the restored vocabulary may be a prefix.
  ExpectSameVocabulary(*grouped.service().vocab(),
                       *restarted.service().vocab(), context,
                       /*prefix=*/true);
}

TEST(PipelinedLoadTest, GroupedStreamMatchesOneAtATime) {
  for (int it = 0; it < 30; ++it) CheckSeed(kSeedBase + it, /*durable=*/false);
}

TEST(PipelinedLoadTest, GroupedStreamMatchesOneAtATimeDurable) {
  for (int it = 0; it < 8; ++it) {
    CheckSeed(kSeedBase + 1000 + it, /*durable=*/true);
  }
}

// A LOAD group in flight when the wake fd trips: the session ends
// interrupted, and the LOADs it answered are exactly the ones published
// — a prefix of the stream.
TEST(PipelinedLoadTest, WakeMidGroupLeavesAnsweredLoadsPublished) {
  constexpr int kLoads = 300;
  std::string bytes;
  for (int i = 0; i < kLoads; ++i) {
    bytes += "LOAD w" + std::to_string(i) +
             "\na < b < c\nP0(a)\nP1(b)\nN" + std::to_string(i % 7) +
             "(c)\nEND\n";
  }
  for (int delay_us : {0, 200, 1000, 3000}) {
    ServingState state(ServiceOptions{}, storage::WalSyncOptions{});
    int fds[2];
    int wake[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
    ASSERT_EQ(::pipe(wake), 0);
    ProtocolSession::ExitReason reason = ProtocolSession::ExitReason::kQuit;
    std::thread session_thread([&] {
      LineChannel channel(fds[1], fds[1], wake[0]);
      ProtocolSession session(&state, &channel, ProtocolSession::Options{});
      reason = session.Run();
      ::close(fds[1]);
    });
    std::thread writer([&] { SendAll(fds[0], bytes); });
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    ASSERT_EQ(::write(wake[1], "x", 1), 1);
    std::string output;
    EXPECT_TRUE(ReceiveAll(fds[0], &output));
    writer.join();
    session_thread.join();
    ::close(fds[0]);
    ::close(wake[0]);
    ::close(wake[1]);
    EXPECT_EQ(reason, ProtocolSession::ExitReason::kInterrupted);

    size_t answered = 0;
    for (size_t pos = 0; (pos = output.find("OK db=w", pos)) != std::string::npos;
         ++pos) {
      EXPECT_EQ(output.compare(pos, 7 + std::to_string(answered).size() + 1,
                               "OK db=w" + std::to_string(answered) + " "),
                0)
          << "answer " << answered << " out of order";
      ++answered;
    }
    EXPECT_EQ(output.find("ERR"), std::string::npos) << output;
    const std::vector<std::string> names = state.service().database_names();
    EXPECT_EQ(names.size(), answered) << "delay " << delay_us << " us";
    for (size_t i = 0; i < answered; ++i) {
      EXPECT_NE(state.service().Snapshot("w" + std::to_string(i)), nullptr)
          << "w" << i << " answered but not published";
    }
  }
}

// A LOAD whose payload stops mid-way ends the group: the LOADs before it
// are published and answered before the session waits for the rest, and
// a wake byte then ends the session without publishing the partial one.
TEST(PipelinedLoadTest, LoadsBeforeAPartialPayloadAreAnsweredFirst) {
  constexpr int kLoads = 40;
  std::string bytes;
  for (int i = 0; i < kLoads; ++i) {
    bytes += "LOAD w" + std::to_string(i) + "\na < b\nP0(a)\nEND\n";
  }
  bytes += "LOAD partial\na < b\nP0(a)\n";  // no END yet
  ServingState state(ServiceOptions{}, storage::WalSyncOptions{});
  int fds[2];
  int wake[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  ASSERT_EQ(::pipe(wake), 0);
  ProtocolSession::ExitReason reason = ProtocolSession::ExitReason::kQuit;
  std::thread session_thread([&] {
    LineChannel channel(fds[1], fds[1], wake[0]);
    ProtocolSession session(&state, &channel, ProtocolSession::Options{});
    reason = session.Run();
    ::close(fds[1]);
  });
  SendAll(fds[0], bytes);
  // Every answer arrives while the session waits for the partial LOAD.
  LineChannel replies(fds[0], fds[0]);
  std::string line;
  int answered = 0;
  std::string_view next;
  while (answered < kLoads) {
    if (!replies.PeekLine(&next)) {
      struct pollfd pfd = {fds[0], POLLIN, 0};
      if (::poll(&pfd, 1, 10000) <= 0) break;  // answers held back
      continue;
    }
    if (replies.ReadLine(&line) != LineChannel::ReadStatus::kLine) break;
    EXPECT_EQ(line.rfind("OK db=w" + std::to_string(answered) + " ", 0), 0u)
        << line;
    ++answered;
  }
  EXPECT_EQ(answered, kLoads);
  ASSERT_EQ(::write(wake[1], "x", 1), 1);
  session_thread.join();
  ::close(fds[0]);
  ::close(wake[0]);
  ::close(wake[1]);
  EXPECT_EQ(reason, ProtocolSession::ExitReason::kInterrupted);
  EXPECT_EQ(state.service().database_names().size(),
            static_cast<size_t>(kLoads));
  EXPECT_EQ(state.service().Snapshot("partial"), nullptr);
}

}  // namespace
}  // namespace iodb
