// bench_storage_load: text-parse load vs binary snapshot open.
//
// The acceptance bar of the storage layer: opening a large generated
// database from a snapshot must be faster than re-parsing its text
// rendering — the snapshot's predicate-bucketed flat segments decode by
// bounds-checked byte reads instead of tokenization, identifier
// interning and sort inference (1.5-1.9× on a 4-vCPU VM, Release).
//
// BM_TextParseLoad and BM_SnapshotOpen consume the SAME database at
// each size (rendered to text vs encoded to a snapshot, both
// in-memory), so their ratio is the pure format effect.
// BM_SnapshotOpenFile adds the filesystem read on top.
//
// The ingest stages one request or one LOAD pays, on the shapes the
// serving benchmark's engine_mix workload sends:
//   BM_ParseQueryFresh  ParseQuery on a new query text each iteration;
//   BM_CollectStatsWide stats::CollectStats on a 4x6-point, 16-predicate
//                       database (its NormView already built);
//   BM_PublishWide      EvaluationService::Register of such a database,
//                       freshly parsed: NormView, enumeration context,
//                       statistics and cost model.
//
// And the whole set-up LOAD of engine_mix over the wire protocol:
//   BM_PipelinedLoadWide  one ProtocolSession over a socketpair LOADs 256
//                         wide and 16 binary databases, either pipelined
//                         (/1: every LOAD sent before any reply is read;
//                         the session serves them in groups on the
//                         service's workers) or one at a time (/0: each
//                         reply read before the next LOAD is sent).

#include <sys/socket.h>
#include <unistd.h>

#include <benchmark/benchmark.h>

#include <cerrno>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/parser.h"
#include "core/printer.h"
#include "server/line_channel.h"
#include "server/protocol.h"
#include "service/service.h"
#include "stats/stats.h"
#include "storage/snapshot.h"
#include "util/random.h"
#include "workload/generators.h"

namespace iodb {
namespace {

// A k-observer database with `chains` chains of `length` labelled
// events: the paper's motivating shape at serving scale.
Database MakeDatabase(int chains, int length, VocabularyPtr vocab) {
  Rng rng(42);
  MonadicDbParams params;
  params.num_chains = chains;
  params.chain_length = length;
  params.num_predicates = 8;
  params.label_probability = 0.5;
  params.le_probability = 0.2;
  return RandomMonadicDb(params, vocab, rng);
}

void BM_TextParseLoad(benchmark::State& state) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = MakeDatabase(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(1)), vocab);
  const std::string text = ToString(db);
  for (auto _ : state) {
    auto fresh = std::make_shared<Vocabulary>();
    Result<Database> parsed = ParseDatabase(text, fresh);
    if (!parsed.ok()) state.SkipWithError("parse failed");
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
  state.counters["atoms"] = static_cast<double>(db.SizeAtoms());
}

void BM_SnapshotOpen(benchmark::State& state) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = MakeDatabase(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(1)), vocab);
  const std::string bytes = storage::EncodeSnapshot(db);
  for (auto _ : state) {
    Result<Database> opened = storage::DecodeSnapshot(bytes);
    if (!opened.ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
  state.counters["atoms"] = static_cast<double>(db.SizeAtoms());
}

void BM_SnapshotOpenFile(benchmark::State& state) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = MakeDatabase(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(1)), vocab);
  const std::string path = "bench_storage_load.tmp.snap";
  if (!storage::SaveSnapshot(db, path).ok()) {
    state.SkipWithError("save failed");
    return;
  }
  for (auto _ : state) {
    Result<Database> opened = storage::OpenSnapshot(path);
    if (!opened.ok()) state.SkipWithError("open failed");
    benchmark::DoNotOptimize(opened);
  }
  std::remove(path.c_str());
}

void BM_SnapshotEncode(benchmark::State& state) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = MakeDatabase(static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(1)), vocab);
  for (auto _ : state) {
    std::string bytes = storage::EncodeSnapshot(db);
    benchmark::DoNotOptimize(bytes);
  }
}

// An engine_mix-shaped database text: 4 strict chains of 6 points, each
// point carrying each of 16 labels with probability 1/4, every label
// used at least once.
std::string WideDbText(Rng& rng) {
  constexpr int kChains = 4;
  constexpr int kLength = 6;
  constexpr int kPreds = 16;
  std::string text;
  std::vector<std::string> points;
  for (int c = 0; c < kChains; ++c) {
    for (int i = 0; i < kLength; ++i) {
      points.push_back("c" + std::to_string(c) + "_" + std::to_string(i));
      text += (i > 0 ? " < " : "") + points.back();
    }
    text += "\n";
  }
  std::vector<bool> used(kPreds, false);
  for (const std::string& point : points) {
    for (int k = 0; k < kPreds; ++k) {
      if (rng.Bernoulli(0.25)) {
        text += "P" + std::to_string(k) + "(" + point + ")\n";
        used[k] = true;
      }
    }
  }
  for (int k = 0; k < kPreds; ++k) {
    if (!used[k]) text += "P" + std::to_string(k) + "(c0_0)\n";
  }
  return text;
}

void BM_ParseQueryFresh(benchmark::State& state) {
  auto vocab = std::make_shared<Vocabulary>();
  Rng rng(7);
  if (!ParseDatabase(WideDbText(rng), vocab).ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  // A pool of distinct texts: a chain query with two labels per variable
  // or'ed with a one-variable disjunct.
  std::vector<std::string> texts;
  for (int q = 0; q < 256; ++q) {
    std::string text = "exists t0 t1 t2 t3:";
    for (int t = 0; t < 4; ++t) {
      const std::string var = "t" + std::to_string(t);
      if (t > 0) {
        text += " & t" + std::to_string(t - 1) +
                (rng.Bernoulli(0.5) ? " < " : " <= ") + var;
      }
      for (int l = 0; l < 2; ++l) {
        text += (t == 0 && l == 0 ? " P" : " & P") +
                std::to_string(rng.UniformInt(0, 15)) + "(" + var + ")";
      }
    }
    text += " | exists t: P" + std::to_string(rng.UniformInt(0, 15)) + "(t)";
    texts.push_back(std::move(text));
  }
  size_t next = 0;
  for (auto _ : state) {
    Result<Query> query = ParseQuery(texts[next], vocab);
    if (!query.ok()) state.SkipWithError("query parse failed");
    benchmark::DoNotOptimize(query);
    next = (next + 1) % texts.size();
  }
}

void BM_CollectStatsWide(benchmark::State& state) {
  auto vocab = std::make_shared<Vocabulary>();
  Rng rng(11);
  Result<Database> db = ParseDatabase(WideDbText(rng), vocab);
  if (!db.ok() || !db.value().NormView().ok()) {
    state.SkipWithError("parse failed");
    return;
  }
  for (auto _ : state) {
    stats::DatabaseStats collected = stats::CollectStats(db.value());
    benchmark::DoNotOptimize(collected);
  }
}

void BM_PublishWide(benchmark::State& state) {
  // Databases are parsed in batches outside the timed region; each batch
  // publishes into a fresh service under distinct names, so no timed
  // Register frees a replaced version.
  constexpr int kBatch = 256;
  Rng rng(13);
  std::vector<std::string> texts;
  for (int i = 0; i < kBatch; ++i) texts.push_back(WideDbText(rng));
  std::unique_ptr<EvaluationService> service;
  std::vector<Database> batch;
  int next = kBatch;
  for (auto _ : state) {
    if (next == kBatch) {
      state.PauseTiming();
      batch.clear();
      service = std::make_unique<EvaluationService>();
      for (const std::string& text : texts) {
        Result<Database> db = ParseDatabase(text, service->vocab());
        if (!db.ok()) state.SkipWithError("parse failed");
        batch.push_back(std::move(db.value()));
      }
      next = 0;
      state.ResumeTiming();
    }
    Result<DbInfo> info =
        service->Register("w" + std::to_string(next), std::move(batch[next]));
    if (!info.ok()) state.SkipWithError("register failed");
    benchmark::DoNotOptimize(info);
    ++next;
  }
}

// An engine_mix-shaped binary database text: two short chains, R and S
// facts over their points, and a few P and Q labels.
std::string BinaryDbText(Rng& rng) {
  std::vector<std::string> points;
  std::string text;
  for (int c = 0; c < 2; ++c) {
    const int length = rng.UniformInt(2, 3);
    for (int i = 0; i < length; ++i) {
      points.push_back("b" + std::to_string(c) + "_" + std::to_string(i));
      if (i > 0) text += rng.Bernoulli(0.6) ? " < " : " <= ";
      text += points.back();
    }
    text += "\n";
  }
  for (const char* pred : {"R", "S"}) {
    for (int i = rng.UniformInt(2, 4); i > 0; --i) {
      text += std::string(pred) + "(" + points[rng.Uniform(points.size())] +
              ", " + points[rng.Uniform(points.size())] + ")\n";
    }
  }
  for (const char* pred : {"P", "Q"}) {
    text += std::string(pred) + "(" + points[rng.Uniform(points.size())] +
            ")\n";
  }
  return text;
}

bool SendBytes(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

void BM_PipelinedLoadWide(benchmark::State& state) {
  const bool pipelined = state.range(0) != 0;
  Rng rng(17);
  std::vector<std::string> commands;
  for (int i = 0; i < 256; ++i) {
    commands.push_back("LOAD wide" + std::to_string(i) + "\n" +
                       WideDbText(rng) + "END\n");
  }
  for (int i = 0; i < 16; ++i) {
    commands.push_back("LOAD bin" + std::to_string(i) + "\n" +
                       BinaryDbText(rng) + "END\n");
  }
  std::string all;
  for (const std::string& command : commands) all += command;
  for (auto _ : state) {
    state.PauseTiming();
    auto serving = std::make_unique<server::ServingState>(
        ServiceOptions{}, storage::WalSyncOptions{});
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
      state.SkipWithError("socketpair failed");
      return;
    }
    std::thread session_thread([&] {
      server::LineChannel channel(fds[1], fds[1]);
      server::ProtocolSession session(serving.get(), &channel,
                                      server::ProtocolSession::Options{});
      session.Run();
      ::close(fds[1]);
    });
    server::LineChannel replies(fds[0], fds[0]);
    std::string line;
    state.ResumeTiming();
    bool ok = true;
    if (pipelined) {
      // Both directions stay well inside the socket buffers.
      ok = SendBytes(fds[0], all);
      for (size_t i = 0; ok && i < commands.size(); ++i) {
        ok = replies.ReadLine(&line) == server::LineChannel::ReadStatus::kLine &&
             line.rfind("OK db=", 0) == 0;
      }
    } else {
      for (size_t i = 0; ok && i < commands.size(); ++i) {
        ok = SendBytes(fds[0], commands[i]) &&
             replies.ReadLine(&line) == server::LineChannel::ReadStatus::kLine &&
             line.rfind("OK db=", 0) == 0;
      }
    }
    state.PauseTiming();
    if (!ok) state.SkipWithError("LOAD failed");
    ::shutdown(fds[0], SHUT_WR);
    session_thread.join();
    ::close(fds[0]);
    serving.reset();
    state.ResumeTiming();
  }
  state.counters["databases"] = static_cast<double>(commands.size());
}

// (chains, chain length): ~200, ~2k and ~20k events.
#define STORAGE_SIZES                                                     \
  Args({4, 50})->Args({8, 250})->Args({16, 1250})

BENCHMARK(BM_TextParseLoad)->STORAGE_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SnapshotOpen)->STORAGE_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SnapshotOpenFile)->STORAGE_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SnapshotEncode)->STORAGE_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ParseQueryFresh)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CollectStatsWide)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PublishWide)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PipelinedLoadWide)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace iodb
