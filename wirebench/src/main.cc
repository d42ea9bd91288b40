// wirebench: the wire-level serving benchmark of iodb.
//
//   wirebench --workload NAME --seed N --seconds S --trace 0|1
//             --serve PATH --work-dir DIR [--commit SHA] [--tiny]
//             [--spans-dir DIR] [--corrupt-expected]
//
// One client process. It generates the workload from the seed, starts a
// real `iodb_serve --listen=<unix socket> --data-dir=<fresh dir>
// --wal-sync=commit` child, drives it in closed loop over the socket,
// checks every verdict against the in-process library, and prints the
// end-to-end metrics; --trace 1 adds the per-layer metrics of an
// in-process traced replay of the same streams. The last stdout line is
// one JSON object holding every metric (wirebench/run.py keeps the ones
// BENCHMARK.json declares for the mode); the lines before it, prefixed
// "# ", are the human-readable report. See wirebench/README.md.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "oracle.h"
#include "traced.h"
#include "wire.h"
#include "workload.h"

#ifndef WIREBENCH_BUILD_TYPE
#define WIREBENCH_BUILD_TYPE "unknown"
#endif

namespace wirebench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 10;
  int trace = 0;
  std::string serve;
  std::string work_dir;
  std::string spans_dir;
  std::string commit = "unknown";
  bool tiny = false;
  bool corrupt_expected = false;
};

// The traced parts of a --trace 1 run (the single-connection wire replay
// and the in-process replay) measure at most this long, whatever
// --seconds is, so that a traced run stays well inside its time limit.
constexpr int kTracedSeconds = 5;

// Nearest-rank percentile of `values` (sorted in place).
double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return std::nan("");
  std::sort(values->begin(), values->end());
  size_t rank = static_cast<size_t>(std::ceil(p * values->size()));
  rank = std::clamp<size_t>(rank, 1, values->size());
  return (*values)[rank - 1];
}

// Percentile `p` of each of up to 10 consecutive chunks of the samples
// (in time order), each chunk big enough to hold 10 samples beyond `p`.
std::vector<double> ChunkPercentiles(const std::vector<double>& in_time_order, double p) {
  const size_t min_chunk = static_cast<size_t>(std::ceil(10.0 / (1.0 - p)));
  const size_t n = in_time_order.size();
  const size_t chunks = std::clamp<size_t>(n / std::max<size_t>(1, min_chunk), 1, 10);
  std::vector<double> per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    std::vector<double> chunk(in_time_order.begin() + static_cast<long>(c * n / chunks),
                              in_time_order.begin() + static_cast<long>((c + 1) * n / chunks));
    per_chunk.push_back(Percentile(&chunk, p));
  }
  return per_chunk;
}

// Percentile `p` as the median of the per-chunk percentiles. A stall
// confined to one stretch of the run then moves one chunk, not the
// reported figure.
double ChunkedPercentile(const std::vector<double>& in_time_order, double p) {
  std::vector<double> per_chunk = ChunkPercentiles(in_time_order, p);
  return Percentile(&per_chunk, 0.5);
}

// One EVAL completion: when it ended (seconds into the window) and how
// long it took.
struct Sample {
  double end_s;
  double us;
};

// A step failure: names the step, aborts the run.
struct StepError {
  std::string step;
  std::string message;
};

[[noreturn]] void Fail(const std::string& step, const std::string& message) {
  throw StepError{step, message};
}

// The run's temp directory (socket, data dirs, server logs), removed on
// every exit path.
class RunDir {
 public:
  explicit RunDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/run-XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      Fail("make run dir", "mkdtemp under " + parent + " failed");
    }
    path_ = pattern;
  }
  ~RunDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The outcome of one EVAL or BATCH member as the wire reported it.
struct Outcome {
  int8_t verdict = -1;  // 1 entailed, 0 not entailed, -1 error
  // The response carried what the request asked for: a countermodel line
  // exactly when --countermodel was asked and the verdict is NOT
  // ENTAILED, and the forced engine when --engine was given.
  bool payload_ok = true;
  uint64_t uid = 0;
  uint64_t revision = 0;
};

// The engine a request forces with --engine=NAME, or "" for auto.
std::string ForcedEngine(const EvalReq& req) {
  const size_t at = req.flags.find("--engine=");
  if (at == std::string::npos) return "";
  const size_t end = req.flags.find(' ', at);
  const std::optional<iodb::EngineKind> kind = iodb::ParseEngineKind(
      req.flags.substr(at + 9, end == std::string::npos ? end : end - at - 9));
  return kind.has_value() ? iodb::EngineKindName(*kind) : "";
}

// Parses a verdict line ("ENTAILED  [... db: uid@rev]").
Outcome ParseVerdict(const std::string& line) {
  Outcome out;
  if (line.rfind("ENTAILED", 0) == 0) {
    out.verdict = 1;
  } else if (line.rfind("NOT ENTAILED", 0) == 0) {
    out.verdict = 0;
  } else {
    return out;
  }
  const size_t at = line.find("db: ");
  if (at != std::string::npos) {
    out.uid = std::strtoull(line.c_str() + at + 4, nullptr, 10);
    const size_t sep = line.find('@', at);
    if (sep != std::string::npos) {
      out.revision = std::strtoull(line.c_str() + sep + 1, nullptr, 10);
    }
  }
  return out;
}

// The wire bytes of one reader command.
std::string Render(const Workload& w, const Command& command) {
  if (!command.batch) return "EVAL " + command.members[0].Line(w.dbs) + "\n";
  std::string bytes = "BATCH " + std::to_string(command.members.size()) + "\n";
  for (const EvalReq& req : command.members) bytes += req.Line(w.dbs) + "\n";
  return bytes;
}

// Reads the responses to one reader command. Returns an error if the
// stream broke (the connection is then unusable); ERR responses are
// outcomes.
std::string ReadResponses(Conn& conn, const Workload& w, const Command& command,
                          std::vector<Outcome>* outcomes) {
  std::string line;
  for (size_t m = 0; m < command.members.size(); ++m) {
    const EvalReq& req = command.members[m];
    if (!conn.ReadLine(&line)) return "no response to '" + req.Line(w.dbs) + "'";
    Outcome outcome = ParseVerdict(line);
    const std::string engine = ForcedEngine(req);
    if (!engine.empty() && outcome.verdict >= 0 &&
        line.find("[engine: " + engine + ",") == std::string::npos) {
      outcome.payload_ok = false;
    }
    if (outcome.verdict == 0) {
      // The server writes a response in one flush, so a countermodel line
      // is due at once; a short wait only guards against a split read.
      std::string next;
      const bool has_countermodel =
          conn.PeekLine(&next, req.countermodel ? 1.0 : 0.0) &&
          next.rfind("countermodel:", 0) == 0;
      if (has_countermodel) conn.ReadLine(&next);
      if (has_countermodel != req.countermodel) outcome.payload_ok = false;
    }
    outcomes->push_back(outcome);
    // A BATCH that failed to parse answers with one ERR line only.
    if (command.batch && outcome.verdict < 0 &&
        line.rfind("ERR request ", 0) == 0) {
      for (size_t rest = m + 1; rest < command.members.size(); ++rest) {
        outcomes->push_back(Outcome{});
      }
      break;
    }
  }
  return "";
}

std::string RunCommand(Conn& conn, const Workload& w, const Command& command,
                       std::vector<Outcome>* outcomes) {
  if (!conn.Send(Render(w, command))) return "send failed";
  return ReadResponses(conn, w, command, outcomes);
}

std::string Expect(Conn& conn, const std::string& bytes, const char* prefix,
                   const std::string& step) {
  std::string line;
  if (!conn.Send(bytes) || !conn.ReadLine(&line)) {
    Fail(step, "connection lost");
  }
  if (line.rfind(prefix, 0) != 0) Fail(step, "server answered '" + line + "'");
  return line;
}

// "key=value" field of a protocol line.
uint64_t Field(const std::string& line, const std::string& key) {
  const size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size() + 2, nullptr, 10);
}

std::map<std::string, long long> ScrapeStats(Conn& conn) {
  std::map<std::string, long long> stats;
  if (!conn.Send("STATS\n")) Fail("STATS scrape", "connection lost");
  std::string line;
  for (;;) {
    if (!conn.ReadLine(&line)) Fail("STATS scrape", "connection lost");
    if (line == "OK") break;
    const size_t space = line.find(' ');
    if (space == std::string::npos) Fail("STATS scrape", "bad line " + line);
    stats[line.substr(0, space)] = std::atoll(line.c_str() + space);
  }
  return stats;
}

// Per database: uid and current revision from INFO.
struct Identity {
  uint64_t uid = 0;
  uint64_t revision = 0;
};

std::vector<Identity> InfoAll(Conn& conn, const Workload& w,
                              const std::string& step) {
  std::vector<Identity> ids;
  for (const DbSpec& db : w.dbs) {
    const std::string line = Expect(conn, "INFO " + db.name + "\n", "OK ", step);
    ids.push_back({Field(line, "uid"), Field(line, "revision")});
  }
  return ids;
}

// Everything one untraced run measures.
struct WireRun {
  std::vector<double> setup_s;        // first LOAD byte to end of warm-up
  std::vector<double> spawn_ready_s;  // spawn to readiness
  std::vector<double> setup_load_s;   // first LOAD byte to the last LOAD's OK
  std::vector<Sample> eval;  // EVAL completions in time order
  std::vector<Sample> batch;  // BATCH completions in time order
  std::vector<double> append_us;
  double window_s = 0;
  long long eval_ok_verified = 0;
  std::vector<double> recovery_s;
  double disk_ratio = 0;
  double peak_rss_mb = 0;
  long long attempted = 0;
  long long failed = 0;
  long long err_lines = 0;
  long long wrong_verdicts = 0;
  long long wrong_payloads = 0;
  long long oracle_pairs = 0;        // distinct (version, query) verified
  long long brute_force_checks = 0;  // of them cross-checked by brute force
  bool identity_preserved = false;
  std::map<std::string, long long> stats_before, stats_after;
  std::vector<long long> reader_commands;  // commands completed per reader
  // Every reader request of the run (warm-up and window, BATCH members
  // one by one) and how many distinct query texts they carried: per text
  // alone (flags + query) and per (database, text), the finest key a
  // plan cache could use for a database that does not change.
  long long requests_sent = 0;
  long long distinct_texts = 0;
  long long distinct_db_texts = 0;
  // --trace 1: the trace commands (readers' streams interleaved) and
  // the EVAL round trips of replaying a prefix of them on one wire
  // connection, the base of server.wire_us.
  std::vector<Command> trace_commands;
  std::vector<double> single_eval_us;
};

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 15;

// Restarts per run; recovery_s is their median.
constexpr int kRestarts = 5;

// Default flags apart from the socket; the durable workload adds a data
// dir with a WAL fsync per committed group.
std::vector<std::string> ServeArgs(const Workload& w, const std::string& socket,
                                   const std::string& data) {
  if (!w.durable) return {"--listen=" + socket};
  return {"--listen=" + socket, "--data-dir=" + data, "--wal-sync=commit"};
}

// The commands the traced run replays: the readers' streams interleaved
// round-robin, the same seeded commands the wire run sent first.
std::vector<Command> TraceCommands(const Workload& w, const WireRun& run) {
  std::vector<Command> commands;
  long long longest = 0;
  for (long long n : run.reader_commands) longest = std::max(longest, n);
  const long long cap = std::min<long long>(longest, 200000);
  for (long long i = 0; i < cap; ++i) {
    for (int r = 0; r < w.readers; ++r) {
      commands.push_back(w.ReaderCommand(r, i));
    }
  }
  return commands;
}

class Runner {
 public:
  Runner(const Options& options, const Workload& workload)
      : o_(options), w_(workload), oracle_(workload) {}

  WireRun Run(const std::string& dir) {
    WireRun run;
    // Set-up, kSetups times: spawn, ready, LOAD everything, warm up. Only
    // the last server stays up to serve the window. setup_s starts at the
    // first LOAD byte: process spawn and readiness polling (timed on their
    // own as spawn_ready_s) are not work of the server's code.
    std::unique_ptr<ServerProcess> server;
    std::unique_ptr<Conn> control;
    std::string data;
    std::string socket;
    for (int rep = 0; rep < kSetups; ++rep) {
      const std::string sub = dir + "/s" + std::to_string(rep);
      std::filesystem::create_directories(sub);
      // Relative to the working directory (the server inherits it), so a
      // deep checkout does not overflow the 108-byte socket path limit.
      socket = std::filesystem::proximate(sub + "/iodb.sock").string();
      data = sub + "/data";
      const Clock::time_point spawn = Clock::now();
      server = Spawn(socket, data, sub + "/serve.log");
      control = Ready(socket, *server, "set-up: wait for readiness");
      run.spawn_ready_s.push_back(Seconds(spawn, Clock::now()));
      // LOADs and warm-up are pipelined: set-up time is the server's
      // work, not one round trip per statement. Both directions carry
      // well under 100 KB, inside the socket buffers, so sending
      // everything before reading cannot stall.
      std::string bytes;
      for (const DbSpec& db : w_.dbs) {
        bytes += "LOAD " + db.name + "\n" + db.text + "END\n";
      }
      std::vector<Command> warmup;
      for (int i = 0; i < w_.warmup_commands; ++i) {
        warmup.push_back(w_.ReaderCommand(-1, i));
        bytes += Render(w_, warmup.back());
      }
      const Clock::time_point start = Clock::now();
      if (!control->Send(bytes)) Fail("set-up: send", "connection lost");
      std::string line;
      for (const DbSpec& db : w_.dbs) {
        if (!control->ReadLine(&line) || line.rfind("OK db=", 0) != 0) {
          Fail("set-up: LOAD " + db.name, "server answered '" + line + "'");
        }
      }
      run.setup_load_s.push_back(Seconds(start, Clock::now()));
      std::vector<Outcome> outcomes;
      for (const Command& command : warmup) {
        const std::string error = ReadResponses(*control, w_, command, &outcomes);
        if (!error.empty()) Fail("set-up: warm-up", error);
      }
      for (const Outcome& outcome : outcomes) {
        if (outcome.verdict < 0) Fail("set-up: warm-up", "ERR response");
      }
      run.setup_s.push_back(Seconds(start, Clock::now()));
      if (rep + 1 < kSetups) {
        control.reset();
        Stop(*server, "set-up: stop server");
        std::filesystem::remove_all(sub);
      }
    }
    // Identities after LOAD: uid -> database, revision -> version 0.
    initial_ = InfoAll(*control, w_, "set-up: INFO");
    for (size_t d = 0; d < initial_.size(); ++d) {
      db_of_uid_[initial_[d].uid] = static_cast<int>(d);
      versions_.emplace_back();
      versions_.back()[initial_[d].revision] = 0;
    }

    run.stats_before = ScrapeStats(*control);
    // Flush what set-up left dirty, so its writeback does not land in the
    // measured window.
    SyncFilesystem(dir);
    Window(socket, &run);
    run.stats_after = ScrapeStats(*control);
    run.peak_rss_mb = server->PeakRssMb();
    if (o_.trace) SingleConnection(socket, &run);
    if (!w_.durable) {
      control.reset();
      Stop(*server, "shutdown");
      Verify({}, {}, &run);
      return run;
    }

    // Shutdown, then restart on the same data dir several times; each
    // restart must come back with every uid@revision unchanged.
    const std::vector<Identity> before = InfoAll(*control, w_, "INFO before restart");
    control.reset();
    Stop(*server, "SIGTERM shutdown");
    run.disk_ratio = static_cast<double>(DirectoryBytes(data)) /
                     static_cast<double>(w_.InputBytes());
    const Command probe{false, {w_.recovery_probe}};
    std::vector<Outcome> probe_outcomes;
    std::vector<std::vector<Identity>> restarted;
    for (int rep = 0; rep < kRestarts; ++rep) {
      const Clock::time_point restart = Clock::now();
      server = Spawn(socket, data, dir + "/serve-restart.log");
      control = Ready(socket, *server, "restart: wait for readiness");
      const std::string error = RunCommand(*control, w_, probe, &probe_outcomes);
      if (!error.empty()) Fail("restart: first EVAL", error);
      run.recovery_s.push_back(Seconds(restart, Clock::now()));
      restarted.push_back(InfoAll(*control, w_, "INFO after restart"));
      control.reset();
      Stop(*server, "restart: shutdown");
    }

    run.identity_preserved = true;
    for (const std::vector<Identity>& after : restarted) {
      for (size_t d = 0; d < before.size(); ++d) {
        if (before[d].uid == after[d].uid &&
            before[d].revision == after[d].revision) {
          continue;
        }
        run.identity_preserved = false;
        std::printf("# identity of %s changed across restart: %llu@%llu -> "
                    "%llu@%llu\n",
                    w_.dbs[d].name.c_str(),
                    static_cast<unsigned long long>(before[d].uid),
                    static_cast<unsigned long long>(before[d].revision),
                    static_cast<unsigned long long>(after[d].uid),
                    static_cast<unsigned long long>(after[d].revision));
      }
    }
    ++run.attempted;
    if (!run.identity_preserved) ++run.failed;

    Verify(w_.recovery_probe, probe_outcomes, &run);
    return run;
  }

 private:
  std::unique_ptr<ServerProcess> Spawn(const std::string& socket,
                                       const std::string& data,
                                       const std::string& log) {
    std::string error;
    std::unique_ptr<ServerProcess> server =
        ServerProcess::Spawn(o_.serve, ServeArgs(w_, socket, data), log, &error);
    if (server == nullptr) Fail("spawn iodb_serve", error);
    return server;
  }

  std::unique_ptr<Conn> Ready(const std::string& socket,
                              const ServerProcess& server,
                              const std::string& step) {
    std::string error;
    std::unique_ptr<Conn> conn = WaitReady(socket, server, 30.0, &error);
    if (conn == nullptr) Fail(step, error);
    return conn;
  }

  std::unique_ptr<Conn> Connect(const std::string& socket,
                                const std::string& step) {
    std::string error;
    std::unique_ptr<Conn> conn = Conn::Connect(socket, &error);
    if (conn == nullptr) Fail(step, error);
    return conn;
  }

  void Stop(ServerProcess& server, const std::string& step) {
    std::string error;
    if (!server.Stop(30.0, &error)) Fail(step, error);
  }

  // The writer: the fixed APPEND sequence, a SAVE after every 8th append
  // of each database. Records revisions so reader identities map back to
  // database versions.
  void Writer(Conn& conn, WireRun* run) {
    std::vector<int> applied(w_.dbs.size(), 0);
    std::string line;
    for (const AppendOp& op : w_.appends) {
      const std::string& name = w_.dbs[static_cast<size_t>(op.db)].name;
      const Clock::time_point start = Clock::now();
      if (!conn.Send("APPEND " + name + "\n" + op.text + "END\n") ||
          !conn.ReadLine(&line)) {
        Fail("APPEND", "connection lost");
      }
      const double us = Seconds(start, Clock::now()) * 1e6;
      ++run->attempted;
      if (line.rfind("OK db=", 0) != 0) {
        ++run->failed;
        ++run->err_lines;
        std::printf("# APPEND %s failed: %s\n", name.c_str(), line.c_str());
        continue;
      }
      run->append_us.push_back(us);
      const int version = ++applied[static_cast<size_t>(op.db)];
      {
        std::lock_guard<std::mutex> lock(versions_mu_);
        versions_[static_cast<size_t>(op.db)][Field(line, "revision")] = version;
      }
      if (op.save_after) {
        ++run->attempted;
        if (!conn.Send("SAVE " + name + "\n") || !conn.ReadLine(&line)) {
          Fail("SAVE", "connection lost");
        }
        if (line.rfind("OK db=", 0) != 0) {
          ++run->failed;
          ++run->err_lines;
        }
      }
    }
    final_version_ = applied;
  }

  // The timed window: closed-loop readers (and the writer on write_mix).
  void Window(const std::string& socket, WireRun* run) {
    const int readers = w_.readers;
    std::vector<std::unique_ptr<Conn>> conns;
    for (int r = 0; r <= readers; ++r) {
      conns.push_back(Connect(socket, "window: connect"));
    }
    std::atomic<bool> stop{false};
    std::vector<std::vector<Sample>> eval_us(static_cast<size_t>(readers));
    std::vector<std::vector<Sample>> batch_us(static_cast<size_t>(readers));
    outcomes_.assign(static_cast<size_t>(readers), {});
    std::vector<std::string> errors(static_cast<size_t>(readers));
    run->reader_commands.assign(static_cast<size_t>(readers), 0);
    const Clock::time_point start = Clock::now();
    auto reader = [&](int r) {
      Conn& conn = *conns[static_cast<size_t>(r)];
      for (long long i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const Command command = w_.ReaderCommand(r, i);
        const Clock::time_point sent = Clock::now();
        errors[static_cast<size_t>(r)] =
            RunCommand(conn, w_, command, &outcomes_[static_cast<size_t>(r)]);
        if (!errors[static_cast<size_t>(r)].empty()) return;
        const Clock::time_point done = Clock::now();
        const double us = Seconds(sent, done) * 1e6;
        (command.batch ? batch_us : eval_us)[static_cast<size_t>(r)].push_back(
            {Seconds(start, done), us});
        run->reader_commands[static_cast<size_t>(r)] = i + 1;
      }
    };
    std::string writer_error;
    std::vector<std::thread> threads;
    for (int r = 0; r < readers; ++r) threads.emplace_back(reader, r);
    if (w_.durable) {
      try {
        Writer(*conns.back(), run);
      } catch (const StepError& e) {
        writer_error = e.step + ": " + e.message;
      }
    } else {
      std::this_thread::sleep_for(std::chrono::seconds(o_.seconds));
    }
    stop = true;
    for (std::thread& thread : threads) thread.join();
    run->window_s = Seconds(start, Clock::now());
    if (!writer_error.empty()) Fail("window: writer", writer_error);
    for (const std::string& error : errors) {
      if (!error.empty()) Fail("window: reader", error);
    }
    for (int r = 0; r < readers; ++r) {
      run->eval.insert(run->eval.end(), eval_us[static_cast<size_t>(r)].begin(),
                       eval_us[static_cast<size_t>(r)].end());
      run->batch.insert(run->batch.end(), batch_us[static_cast<size_t>(r)].begin(),
                        batch_us[static_cast<size_t>(r)].end());
    }
    auto by_time = [](const Sample& a, const Sample& b) { return a.end_s < b.end_s; };
    std::sort(run->eval.begin(), run->eval.end(), by_time);
    std::sort(run->batch.begin(), run->batch.end(), by_time);
  }

  // --trace 1: replays the trace commands on one fresh connection, back
  // to back, for half the window (at least 1 s, at most kTracedSeconds /
  // 2), after the window and its STATS scrape. The in-process
  // ProtocolSession replays a prefix of the same commands the same way,
  // so server.wire_us compares two single connections, not one against
  // the loaded window.
  void SingleConnection(const std::string& socket, WireRun* run) {
    run->trace_commands = TraceCommands(w_, *run);
    std::unique_ptr<Conn> conn = Connect(socket, "single connection: connect");
    const double budget_s = std::max(1.0, std::min(o_.seconds, kTracedSeconds) / 2.0);
    const Clock::time_point start = Clock::now();
    size_t sent = 0;
    while (sent < run->trace_commands.size() &&
           Seconds(start, Clock::now()) < budget_s) {
      const Command& command = run->trace_commands[sent++];
      const Clock::time_point t0 = Clock::now();
      const std::string error =
          RunCommand(*conn, w_, command, &single_outcomes_);
      if (!error.empty()) Fail("single connection", error);
      if (!command.batch) {
        run->single_eval_us.push_back(Seconds(t0, Clock::now()) * 1e6);
      }
    }
    run->trace_commands.resize(sent);
  }

  // Maps a wire outcome to the database version it was served from.
  int VersionOf(int db, const Outcome& outcome) const {
    if (!w_.durable) return 0;
    const auto& map = versions_[static_cast<size_t>(db)];
    auto it = map.find(outcome.revision);
    auto owner = db_of_uid_.find(outcome.uid);
    if (it == map.end() || owner == db_of_uid_.end() || owner->second != db) {
      return -1;
    }
    return it->second;
  }

  // Checks every reader verdict (and the recovery probe) against the
  // oracle; counts errors and mismatches as failed operations.
  void Verify(const EvalReq& probe, const std::vector<Outcome>& probe_outcomes,
              WireRun* run) {
    struct Check {
      int id;         // oracle pair, or -1 for an unmappable identity
      int8_t verdict;
      bool eval;      // a single EVAL (counts toward throughput)
      bool payload_ok;
    };
    std::vector<Check> checks;
    auto add = [&](const EvalReq& req, const Outcome& outcome, int version,
                   bool eval) {
      if (outcome.verdict < 0) {
        checks.push_back({-2, -1, eval, true});
      } else if (version < 0) {
        checks.push_back({-1, outcome.verdict, eval, outcome.payload_ok});
      } else {
        checks.push_back({oracle_.Require(req.db, version, req.query),
                          outcome.verdict, eval, outcome.payload_ok});
      }
    };
    std::set<std::string> texts;
    std::set<std::pair<int, std::string>> db_texts;
    auto count = [&](const Command& command) {
      for (const EvalReq& req : command.members) {
        ++run->requests_sent;
        const std::string text = req.flags + " " + req.query;
        texts.insert(text);
        db_texts.emplace(req.db, text);
      }
    };
    for (int i = 0; i < w_.warmup_commands; ++i) count(w_.ReaderCommand(-1, i));
    for (size_t r = 0; r < outcomes_.size(); ++r) {
      size_t k = 0;
      for (long long i = 0; i < run->reader_commands[r]; ++i) {
        const Command command = w_.ReaderCommand(static_cast<int>(r), i);
        count(command);
        for (const EvalReq& req : command.members) {
          const Outcome& outcome = outcomes_[r][k++];
          add(req, outcome, VersionOf(req.db, outcome), !command.batch);
        }
      }
    }
    run->distinct_texts = static_cast<long long>(texts.size());
    run->distinct_db_texts = static_cast<long long>(db_texts.size());
    size_t k = 0;
    for (const Command& command : run->trace_commands) {
      for (const EvalReq& req : command.members) {
        const Outcome& outcome = single_outcomes_[k++];
        add(req, outcome, VersionOf(req.db, outcome), false);
      }
    }
    const size_t first_probe = checks.size();
    for (const Outcome& outcome : probe_outcomes) {
      add(probe, outcome, final_version_[static_cast<size_t>(probe.db)], false);
    }
    std::string error;
    if (!oracle_.Solve(std::max(1u, std::thread::hardware_concurrency()),
                       &error)) {
      Fail("verify: oracle", error);
    }
    run->oracle_pairs = static_cast<long long>(oracle_.pairs());
    run->brute_force_checks = oracle_.brute_force_checks();
    if (o_.corrupt_expected && !checks.empty() && checks[0].id >= 0) {
      oracle_.Corrupt(checks[0].id);
    }
    for (size_t c = 0; c < checks.size(); ++c) {
      const Check& check = checks[c];
      ++run->attempted;
      bool ok = false;
      if (check.id == -2) {
        ++run->err_lines;
      } else if (check.id < 0 ||
                 oracle_.Verdict(check.id) != (check.verdict == 1)) {
        ++run->wrong_verdicts;
      } else if (!check.payload_ok) {
        ++run->wrong_payloads;
      } else {
        ok = true;
      }
      if (!ok) {
        ++run->failed;
        if (c >= first_probe) std::printf("# recovery probe answered wrongly\n");
      } else if (check.eval) {
        ++run->eval_ok_verified;
      }
    }
  }

  const Options& o_;
  const Workload& w_;
  Oracle oracle_;
  std::vector<Identity> initial_;
  std::map<uint64_t, int> db_of_uid_;
  std::mutex versions_mu_;
  std::vector<std::map<uint64_t, int>> versions_;  // revision -> version
  std::vector<int> final_version_;
  std::vector<std::vector<Outcome>> outcomes_;
  std::vector<Outcome> single_outcomes_;
};

void Emit(std::vector<Metric>* out, const std::string& name, double value,
          const std::string& unit, long long samples = 0) {
  out->push_back({name, value, unit, samples});
}

long long Delta(const WireRun& run, const std::string& key) {
  const auto& last = run.stats_after;
  auto a = last.find(key);
  auto b = run.stats_before.find(key);
  return (a == last.end() ? 0 : a->second) -
         (b == run.stats_before.end() ? 0 : b->second);
}

// A JSON number, or null for a value that is not finite (a percentile of
// no samples).
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Main(const Options& o) {
  Workload w;
  if (!MakeWorkload(o.workload, o.seed, o.tiny, &w)) {
    std::fprintf(stderr, "wirebench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("# wirebench workload=%s seed=%llu seconds=%d trace=%d "
              "nproc=%u build=%s commit=%s scale=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace, nproc, WIREBENCH_BUILD_TYPE,
              o.commit.c_str(), o.tiny ? "tiny" : "full");
  std::printf("# server: iodb_serve --listen=<sock>%s; %zu databases, %d "
              "reader connection(s)%s\n",
              w.durable ? " --data-dir=<fresh dir> --wal-sync=commit" : "",
              w.dbs.size(), w.readers,
              w.durable ? " + 1 writer (fixed APPEND count)" : "");

  std::vector<Metric> metrics;
  WireRun run;
  TracedRun traced;
  try {
    RunDir dir(o.work_dir);
    Runner runner(o, w);
    run = runner.Run(dir.path());
    if (o.trace) {
      std::string spans_path;
      if (!o.spans_dir.empty()) {
        std::filesystem::create_directories(o.spans_dir);
        spans_path = o.spans_dir + "/" + o.workload + "-seed" +
                     std::to_string(o.seed) + ".tsv";
      }
      std::string error;
      const std::string scratch = dir.path() + "/traced";
      std::filesystem::create_directories(scratch);
      if (!RunTraced(w, run.trace_commands, std::min(o.seconds, kTracedSeconds),
                     scratch, spans_path, &traced, &error)) {
        Fail("traced replay", error);
      }
      if (!spans_path.empty()) {
        std::printf("# spans: %lld written to %s\n", traced.spans,
                    spans_path.c_str());
      }
    }
  } catch (const StepError& e) {
    std::fprintf(stderr, "wirebench: step '%s' failed: %s\n", e.step.c_str(),
                 e.message.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wirebench: failed: %s\n", e.what());
    return 1;
  }

  const double failed_ratio =
      static_cast<double>(run.failed) / static_cast<double>(run.attempted);
  std::vector<double> setup = run.setup_s;
  std::vector<double> eval;
  for (const Sample& sample : run.eval) eval.push_back(sample.us);
  std::vector<double> batch;
  for (const Sample& sample : run.batch) batch.push_back(sample.us);
  std::vector<double> append = run.append_us;
  std::vector<double> recovery = run.recovery_s;
  const double eval_p99 = ChunkedPercentile(eval, 0.99);
  const double append_p99 = ChunkedPercentile(append, 0.99);
  const double eval_p50 = ChunkedPercentile(eval, 0.50);
  const double batch_p50 = ChunkedPercentile(batch, 0.50);
  // Throughput: the median over the window's whole seconds of the EVALs
  // completed in that second, scaled by the share that was OK and
  // verified.
  std::vector<double> per_second(static_cast<size_t>(run.window_s), 0.0);
  for (const Sample& sample : run.eval) {
    const size_t second = static_cast<size_t>(sample.end_s);
    if (second < per_second.size()) ++per_second[second];
  }
  if (per_second.empty()) {
    per_second.push_back(static_cast<double>(run.eval.size()) / run.window_s);
  }
  const double verified_share =
      static_cast<double>(run.eval_ok_verified) /
      static_cast<double>(std::max<size_t>(1, run.eval.size()));
  const double throughput = Percentile(&per_second, 0.5) * verified_share;

  std::vector<double> spawn_ready = run.spawn_ready_s;
  std::vector<Metric> e2e;
  Emit(&e2e, "failed_ratio", failed_ratio, "ratio", run.attempted);
  Emit(&e2e, "setup_s", Percentile(&setup, 0.5), "s", static_cast<long long>(setup.size()));
  Emit(&e2e, "spawn_ready_s", Percentile(&spawn_ready, 0.5), "s",
       static_cast<long long>(spawn_ready.size()));
  Emit(&e2e, "eval_p50_us", eval_p50, "us", static_cast<long long>(eval.size()));
  Emit(&e2e, "eval_p99_us", eval_p99, "us", static_cast<long long>(eval.size()));
  Emit(&e2e, "eval_throughput_rps", throughput, "1/s", run.eval_ok_verified);
  Emit(&e2e, "batch_p50_us", batch_p50, "us", static_cast<long long>(batch.size()));
  Emit(&e2e, "server_peak_rss_mb", run.peak_rss_mb, "MiB");
  if (w.durable) {
    Emit(&e2e, "append_p50_us", ChunkedPercentile(append, 0.5), "us",
         static_cast<long long>(append.size()));
    Emit(&e2e, "append_p99_us", append_p99, "us",
         static_cast<long long>(append.size()));
    Emit(&e2e, "recovery_s", Percentile(&recovery, 0.5), "s",
         static_cast<long long>(recovery.size()));
    Emit(&e2e, "disk_bytes_per_input_byte", run.disk_ratio, "ratio");
  }

  std::printf("# window %.3f s; %lld attempted, %lld failed (%lld ERR, %lld "
              "wrong verdicts, %lld wrong countermodel/engine payloads)\n",
              run.window_s, run.attempted, run.failed, run.err_lines,
              run.wrong_verdicts, run.wrong_payloads);
  std::printf("# oracle: %lld distinct (database version, query) pairs, %lld "
              "also checked by brute force\n",
              run.oracle_pairs, run.brute_force_checks);
  if (w.durable) {
    std::printf("# identity after restart: %s\n",
                run.identity_preserved ? "same" : "CHANGED");
  }
  const double repeated_text_share =
      1.0 - static_cast<double>(run.distinct_texts) /
                static_cast<double>(std::max(1LL, run.requests_sent));
  const double repeated_db_text_share =
      1.0 - static_cast<double>(run.distinct_db_texts) /
                static_cast<double>(std::max(1LL, run.requests_sent));
  // The server's plan cache over the window, from its STATS counters.
  const long long hits = Delta(run, "plan-cache-hits");
  const long long misses = Delta(run, "plan-cache-misses");
  std::printf("# server plan cache over the window: %lld hits of %lld "
              "lookups\n",
              hits, hits + misses);
  std::printf("# requests: %lld sent, %lld distinct texts (repeated share "
              "%.4f), %lld distinct (database, text) pairs (repeated share "
              "%.4f)\n",
              run.requests_sent, run.distinct_texts, repeated_text_share,
              run.distinct_db_texts, repeated_db_text_share);
  std::printf("# EVAL p50 per chunk of the window (us, in order):");
  for (double us : ChunkPercentiles(eval, 0.50)) std::printf(" %.0f", us);
  std::printf("\n");
  std::printf("# set-ups (ms, in order; LOAD part in brackets):");
  for (size_t i = 0; i < run.setup_s.size(); ++i) {
    std::printf(" %.2f (%.2f)", run.setup_s[i] * 1e3,
                run.setup_load_s[i] * 1e3);
  }
  std::printf("\n");
  std::printf("# EVAL round-trip deciles (us):");
  for (int d = 1; d <= 9; ++d) {
    std::printf(" %.0f", Percentile(&eval, d / 10.0));
  }
  std::printf("\n");
  for (const Metric& m : e2e) {
    std::printf("# %-28s %16.6g %-6s n=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }

  if (o.trace) {
    // Counts from the untraced run's STATS scrapes (window deltas, or to
    // the end of the write phase for publishes).
    const long long requests = Delta(run, "requests");
    Emit(&metrics, "server.err_lines", static_cast<double>(run.err_lines), "count");
    Emit(&metrics, "service.plan_cache_hit_ratio",
         static_cast<double>(hits) / static_cast<double>(std::max(1LL, hits + misses)),
         "ratio", hits + misses);
    Emit(&metrics, "service.plan_cache_lookups", static_cast<double>(hits + misses), "count");
    Emit(&metrics, "service.plan_cache_evictions",
         static_cast<double>(Delta(run, "plan-cache-evictions")), "count");
    Emit(&metrics, "service.plans_compiled_per_request",
         static_cast<double>(Delta(run, "plans-compiled")) /
             static_cast<double>(std::max(1LL, requests)),
         "ratio", requests);
    Emit(&metrics, "service.requests", static_cast<double>(requests), "count");
    Emit(&metrics, "service.publishes",
         static_cast<double>(Delta(run, "publishes")), "count");
    Emit(&metrics, "workload.repeated_text_share", repeated_text_share,
         "ratio", run.requests_sent);
    Emit(&metrics, "workload.repeated_db_text_share", repeated_db_text_share,
         "ratio", run.requests_sent);
    double roundtrip = 0;
    for (const Metric& m : traced.metrics) {
      if (m.name == "server.roundtrip_us") roundtrip = m.value;
      metrics.push_back(m);
    }
    // The base: EVAL round trips on one wire connection (see
    // Runner::SingleConnection), as server.roundtrip_us has one
    // in-process connection.
    std::vector<double> single = run.single_eval_us;
    const double single_p50 = Percentile(&single, 0.5);
    Emit(&metrics, "server.wire_us", single_p50 - roundtrip, "us");
    Emit(&metrics, "trace.client_p50_us", single_p50, "us",
         static_cast<long long>(single.size()));
    Emit(&metrics, "trace.coverage_of_client_p50", roundtrip / single_p50,
         "ratio");
    std::printf("# traced: %lld requests replayed, %lld spans\n",
                traced.requests, traced.spans);
    for (const Metric& m : metrics) {
      std::printf("# %-40s %16.6g %-6s n=%lld\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
  }
  // Every metric goes into the JSON line; wirebench/run.py keeps the ones
  // BENCHMARK.json declares for the mode.
  metrics.insert(metrics.end(), e2e.begin(), e2e.end());

  const bool correct = run.failed == 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.attempted) +
                     ", \"failed\": " + std::to_string(run.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--workload") {
      if (!value(&o->workload)) return false;
    } else if (arg == "--seed") {
      if (!value(&v)) return false;
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      if (!value(&v)) return false;
      o->seconds = std::max(1, std::atoi(v.c_str()));
    } else if (arg == "--trace") {
      if (!value(&v)) return false;
      o->trace = std::atoi(v.c_str()) != 0;
    } else if (arg == "--serve") {
      if (!value(&o->serve)) return false;
    } else if (arg == "--work-dir") {
      if (!value(&o->work_dir)) return false;
    } else if (arg == "--spans-dir") {
      if (!value(&o->spans_dir)) return false;
    } else if (arg == "--commit") {
      if (!value(&o->commit)) return false;
    } else if (arg == "--tiny") {
      o->tiny = true;
    } else if (arg == "--corrupt-expected") {
      o->corrupt_expected = true;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && !o->serve.empty() && !o->work_dir.empty();
}

}  // namespace
}  // namespace wirebench

int main(int argc, char** argv) {
  wirebench::Options options;
  if (!wirebench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: wirebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --serve IODB_SERVE --work-dir DIR "
                 "[--spans-dir DIR] [--commit SHA] [--tiny] "
                 "[--corrupt-expected]\n");
    return 2;
  }
  wirebench::KillServerOnSignal();
  return wirebench::Main(options);
}
