// Seeded fuzzer of the serving line protocol (server/protocol.h): drives
// one ProtocolSession over a socketpair with hostile byte streams.
//
// Each seed builds a stream of bursts. A burst is random verbs and flags
// (EVAL with every flag, good and bad; LOAD/APPEND with junk payloads,
// always END-terminated mid-stream; runs of back-to-back LOADs mixing
// valid, junk and predicate-registering payloads, which the session
// serves as groups; BATCH with its count's worth of request lines or
// more, since a short one would swallow the sentinel;
// INFO/STATS/SAVE/OPEN/unknown verbs), NUL bytes, CRLF line ends, and
// lines of exactly kMaxLineBytes and kMaxLineBytes + 1 bytes. Every
// burst is followed by a sentinel `EVAL sentinel --identity <query>` on
// a database no burst touches. The stream ends with QUIT, a bare EOF, an
// APPEND without END, or a BATCH cut short by EOF (the only place a
// BATCH has too few members). It is sent in random pieces, some after a
// short pause, so LOAD groups end at random points, some mid-payload.
//
// Invariants:
//   * every sentinel gets its expected verdict line, in order, so the
//     session stayed usable through every burst;
//   * exactly the lines over kMaxLineBytes get "ERR line-too-long";
//   * the session ends with ExitReason::kQuit (QUIT or EOF);
//   * no crash (the full-suite ASan job also catches leaks).
//
// On failure the test prints the seed and the byte stream (long runs of
// one byte abbreviated). IODB_PROTOCOL_FUZZ_SEED=<seed> in the
// environment reruns exactly that seed.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "server/line_channel.h"
#include "server/protocol.h"
#include "service/request.h"
#include "util/random.h"

namespace iodb {
namespace {

using server::kMaxLineBytes;
using server::LineChannel;
using server::ProtocolSession;
using server::ServingState;

constexpr uint64_t kSeedBase = 20261019500ULL;
constexpr char kSentinelDb[] = "sentinel";
constexpr char kSentinelQuery[] = "exists t1 t2: P(t1) & t1 < t2 & Q(t2)";

constexpr int kIterations = 40;

std::optional<uint64_t> SingleSeed() {
  const char* env = std::getenv("IODB_PROTOCOL_FUZZ_SEED");
  if (env == nullptr) return std::nullopt;
  return std::strtoull(env, nullptr, 10);
}

template <typename T>
const T& Pick(const std::vector<T>& items, Rng& rng) {
  return items[rng.Uniform(items.size())];
}

// Databases the bursts may name; none of them is the sentinel's.
const std::vector<std::string> kDbNames = {"f", "g", "nope"};

std::string RandomQuery(Rng& rng) {
  static const std::vector<std::string> queries = {
      "exists t: P(t)",
      "exists t1 t2: P(t1) & t1 < t2 & Q(t2)",
      "exists t: P(t) & Q(t) | exists t1 t2: Q(t1) & t1 <= t2 & P(t2)",
      "exists t1 t2: P(t1) & t1 != t2 & Q(t2)",
      "exists x: O(x)",
      "exists t: Unknown(t)",
      "exists t: P(",
      "true",
      "u < v",
      "",
  };
  return Pick(queries, rng);
}

std::string RandomFlag(Rng& rng) {
  static const std::vector<std::string> flags = {
      "--countermodel",         "--explain",
      "--identity",             "--semantics=integer",
      "--semantics=rational",   "--semantics=bogus",
      "--engine=brute-force",   "--engine=bounded-width",
      "--engine=order-free",    "--engine=paths",
      "--engine=nope",          "--deadline-ms=0",
      "--deadline-ms=10000000000000",
      "--deadline-ms=-1",       "--step-budget=3",
      "--step-budget=x",        "--costing=off",
      "--costing=maybe",        "--bogus",
      "--",
  };
  return Pick(flags, rng);
}

// One EVAL request line (the part after the verb, or a BATCH member).
std::string RandomRequest(Rng& rng) {
  std::string out = Pick(kDbNames, rng);
  const int flags = rng.UniformInt(0, 3);
  for (int i = 0; i < flags; ++i) out += " " + RandomFlag(rng);
  return out + " " + RandomQuery(rng);
}

std::string RandomPayloadLine(Rng& rng) {
  static const std::vector<std::string> lines = {
      "P(u)", "Q(v)", "u < v", "v <= w", "u != w", "O(a)",
      "pred O(object)", "P(u", "<<<", "# comment", "",
  };
  return Pick(lines, rng);
}

// A junk line that starts no verb consuming later lines.
std::string RandomJunkLine(Rng& rng) {
  std::string out;
  const int length = rng.UniformInt(0, 24);
  for (int i = 0; i < length; ++i) {
    switch (rng.UniformInt(0, 5)) {
      case 0:
        out += '\0';
        break;
      case 1:
        out += '\r';
        break;
      case 2:
        out += ' ';
        break;
      default:
        out += static_cast<char>('a' + rng.UniformInt(0, 25));
    }
  }
  return "~" + out;
}

// A line end: LF, sometimes CRLF.
std::string Eol(Rng& rng) { return rng.Bernoulli(0.2) ? "\r\n" : "\n"; }

// Back-to-back LOADs, which the session serves as a group: valid
// databases, junk, and payloads that register fresh predicates (so a
// group must finish some parses in command order).
std::string RandomLoadRun(Rng& rng) {
  static const std::vector<std::string> payloads = {
      "P(u)\nQ(v)\nu < v\n", "u < v <= w\nP(w)\n", "O(a)\n",
      "P(u\n",                 "<<<\n",               "pred P(object)\n",
      "u != v\nQ(u)\n",        "",                     "P(u, v)\n"};
  std::string out;
  const int loads = rng.UniformInt(2, 12);
  for (int i = 0; i < loads; ++i) {
    out += "LOAD " + Pick(kDbNames, rng) + Eol(rng);
    if (rng.Bernoulli(0.3)) {
      out += "Fresh" + std::to_string(rng.Uniform(1000)) + "(u)" + Eol(rng);
    }
    out += Pick(payloads, rng);
    out += "END" + Eol(rng);
  }
  return out;
}

// One mid-stream burst: leaves the session reading commands again.
// Counts its over-long lines into `*too_long`.
std::string RandomBurst(Rng& rng, int* too_long) {
  std::string out;
  const int commands = rng.UniformInt(1, 5);
  for (int c = 0; c < commands; ++c) {
    switch (rng.UniformInt(0, 13)) {
      case 0:
      case 1:
      case 2:
        out += "EVAL " + RandomRequest(rng) + Eol(rng);
        break;
      case 3:
      case 4: {
        out += std::string(rng.Bernoulli(0.5) ? "LOAD " : "APPEND ") +
               (rng.Bernoulli(0.9) ? Pick(kDbNames, rng) : "") + Eol(rng);
        const int lines = rng.UniformInt(0, 4);
        for (int i = 0; i < lines; ++i) out += RandomPayloadLine(rng) + Eol(rng);
        out += rng.Bernoulli(0.5) ? "END" : "  END  ";
        out += Eol(rng);
        break;
      }
      case 5: {
        // A BATCH with its count's worth of members or more; the extra
        // members are read as (unknown) verbs.
        const int n = rng.UniformInt(1, 4);
        const int sent = n + (rng.Bernoulli(0.3) ? rng.UniformInt(1, 2) : 0);
        out += "BATCH " + std::to_string(n) + Eol(rng);
        for (int i = 0; i < sent; ++i) out += RandomRequest(rng) + Eol(rng);
        break;
      }
      case 6: {
        static const std::vector<std::string> bad = {
            "BATCH", "BATCH 0", "BATCH -3", "BATCH 65537", "BATCH x"};
        out += Pick(bad, rng) + Eol(rng);
        break;
      }
      case 7: {
        static const std::vector<std::string> verbs = {
            "INFO", "INFO f", "INFO nope", "STATS", "SAVE f", "SAVE",
            "OPEN /nonexistent/dir", "OPEN", "LOAD", "APPEND", "EVAL",
            "EVAL f", "quit", "# a comment", "", "   "};
        out += Pick(verbs, rng) + Eol(rng);
        break;
      }
      case 8:
      case 9:
        out += RandomJunkLine(rng) + Eol(rng);
        break;
      case 10:
        out += std::string("EV") + '\0' + "AL f exists t: P(t)" + Eol(rng);
        break;
      case 11: {
        // Exactly at the line limit: served (an unknown database).
        std::string line = "EVAL nope ";
        line.resize(kMaxLineBytes, 'x');
        out += line + "\n";
        break;
      }
      case 12:
        // One byte over: rejected as line-too-long.
        out += std::string(kMaxLineBytes + 1, 'y') + "\n";
        ++*too_long;
        break;
      default:
        out += RandomLoadRun(rng);
        break;
    }
  }
  return out;
}

// The byte stream for display: printable bytes as-is, others escaped,
// runs of one byte longer than 16 abbreviated.
std::string Render(const std::string& bytes) {
  std::string out;
  for (size_t i = 0; i < bytes.size();) {
    size_t run = 1;
    while (i + run < bytes.size() && bytes[i + run] == bytes[i]) ++run;
    const unsigned char c = static_cast<unsigned char>(bytes[i]);
    std::string shown;
    if (c == '\n') {
      shown = "\\n\n";
    } else if (c == '\r') {
      shown = "\\r";
    } else if (c >= 0x20 && c < 0x7f) {
      shown = std::string(1, static_cast<char>(c));
    } else {
      static const char hex[] = "0123456789abcdef";
      shown = std::string("\\x") + hex[c >> 4] + hex[c & 15];
    }
    if (run > 16) {
      out += "<" + std::to_string(run) + " x '" + shown + "'>";
      i += run;
    } else {
      out += shown;
      ++i;
    }
  }
  return out;
}

// Writes `bytes` to `fd`, stopping at the first error (the session may
// have ended and closed its end). MSG_NOSIGNAL: no SIGPIPE.
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

// Reads `fd` to EOF. A reset counts as EOF: a session that closes with
// unread input (bytes after QUIT) resets the connection. False if no
// byte arrives for 30 s (a hung session).
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

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t pos; (pos = text.find('\n', start)) != std::string::npos;
       start = pos + 1) {
    lines.push_back(text.substr(start, pos - start));
  }
  return lines;
}

TEST(ProtocolFuzzTest, SessionsSurviveHostileStreams) {
  ServingState state(ServiceOptions{}, storage::WalSyncOptions{});
  ASSERT_TRUE(
      state.service().Load(kSentinelDb, "P(u)\nQ(v)\nu < v\n").ok());
  EvalRequest sentinel;
  sentinel.db = kSentinelDb;
  sentinel.query = kSentinelQuery;
  sentinel.report_identity = true;
  Result<EvalResponse> direct = state.service().Eval(sentinel);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_TRUE(direct.value().entailed);
  // The cache field differs between the first and later requests.
  std::vector<std::string> expected_sentinel;
  for (const bool hit : {false, true}) {
    EvalResponse response = direct.value();
    response.plan_cache_hit = hit;
    expected_sentinel.push_back(FormatResponseLine(response));
  }
  const std::string identity = ", db: " +
                               std::to_string(direct.value().db_uid) + "@" +
                               std::to_string(direct.value().db_revision) +
                               "]";
  const std::string sentinel_line = "EVAL " + FormatEvalRequest(sentinel);

  const std::optional<uint64_t> single = SingleSeed();
  const int iterations = single.has_value() ? 1 : kIterations;
  for (int it = 0; it < iterations; ++it) {
    const uint64_t seed = single.has_value() ? *single : kSeedBase + it;
    Rng rng(seed);
    std::string stream;
    int sentinels = 0;
    int too_long = 0;
    const int bursts = rng.UniformInt(1, 6);
    for (int b = 0; b < bursts; ++b) {
      stream += RandomBurst(rng, &too_long);
      stream += sentinel_line + Eol(rng);
      ++sentinels;
    }
    switch (rng.UniformInt(0, 3)) {
      case 0: {
        int unread = 0;  // nothing after QUIT runs
        stream += "QUIT\n" + RandomBurst(rng, &unread);
        break;
      }
      case 1:
        break;  // bare EOF
      case 2:
        stream += "APPEND f\nP(z)\n";  // EOF before END
        break;
      default:
        stream += "BATCH 3\n" + RandomRequest(rng) + "\n";  // EOF inside
        break;
    }
    const std::string repro = "seed " + std::to_string(seed) +
                              " (rerun: IODB_PROTOCOL_FUZZ_SEED=" +
                              std::to_string(seed) +
                              " ./protocol_fuzz_test)\n--- stream ---\n" +
                              Render(stream) + "\n--- end ---";

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
    ProtocolSession::ExitReason reason =
        ProtocolSession::ExitReason::kChannelError;
    std::thread session_thread([&] {
      LineChannel channel(fds[1], fds[1]);
      ProtocolSession session(&state, &channel, ProtocolSession::Options{});
      reason = session.Run();
      ::close(fds[1]);
    });
    // Sent in random pieces, some after a pause, so LOAD groups end at
    // random points, sometimes mid-payload.
    std::vector<std::string> pieces;
    for (size_t pos = 0; pos < stream.size();) {
      pieces.push_back(stream.substr(
          pos, rng.Bernoulli(0.5) ? stream.size() - pos
                                  : static_cast<size_t>(
                                        rng.UniformInt(1, 2048))));
      pos += pieces.back().size();
    }
    std::thread writer([&] {
      for (const std::string& piece : pieces) {
        SendAll(fds[0], piece);
        if (piece.size() % 3 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      ::shutdown(fds[0], SHUT_WR);
    });
    std::string output;
    const bool drained = ReceiveAll(fds[0], &output);
    if (!drained) ::shutdown(fds[0], SHUT_RDWR);  // unblock a hung session
    writer.join();
    session_thread.join();
    ::close(fds[0]);
    ASSERT_TRUE(drained) << "session hung\n" << repro;
    EXPECT_EQ(reason, ProtocolSession::ExitReason::kQuit) << repro;

    int seen = 0;
    int rejected = 0;
    for (const std::string& line : Lines(output)) {
      if (line.rfind("ERR line-too-long", 0) == 0) ++rejected;
      if (line.find(identity) == std::string::npos) continue;
      ++seen;
      EXPECT_TRUE(line == expected_sentinel[0] ||
                  line == expected_sentinel[1])
          << "sentinel " << seen << " answered '" << line << "'\n"
          << repro;
    }
    ASSERT_EQ(seen, sentinels) << "output:\n" << Render(output) << "\n"
                               << repro;
    // Exactly the lines over kMaxLineBytes are rejected; one of exactly
    // kMaxLineBytes is served.
    EXPECT_EQ(rejected, too_long) << repro;
  }
}

}  // namespace
}  // namespace iodb
