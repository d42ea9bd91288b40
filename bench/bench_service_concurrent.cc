// Concurrent service throughput: how read (EVAL) throughput scales with
// client threads against one shared in-process EvaluationService (no
// socket), with and without a concurrent writer republishing versions.
//
// This is the acceptance bench of the MVCC serving layer: readers pin a
// published version and run lock-free, so aggregate read throughput
// should scale with threads (no reader-writer convoy), and a background
// appender (fork → publish per mutation) should dent it only by the
// publish work itself — never by blocking readers. The ->Threads(N)
// ranges report items_per_second aggregated across N benchmark threads;
// compare 1 vs 4 vs 8 threads to see the scaling, and the
// WithWriter variants against the read-only ones to see writer impact.
// BM_ServiceFreshQueries sends a new query text per request through a
// full plan cache, so every request compiles: the compile path's scaling.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "service/service.h"
#include "util/random.h"

namespace iodb {
namespace {

// A moderately sized database so one EVAL is real work (points spread
// over two ordered chains), but small enough that throughput is request
// dominated, not enumeration dominated.
std::string BenchDatabaseText() {
  std::string text;
  for (int i = 0; i < 8; ++i) {
    text += "P(a" + std::to_string(i) + ")\n";
    text += "Q(b" + std::to_string(i) + ")\n";
    if (i > 0) {
      text += "a" + std::to_string(i - 1) + " < a" + std::to_string(i) + "\n";
      text += "b" + std::to_string(i - 1) + " < b" + std::to_string(i) + "\n";
    }
  }
  text += "a0 < b7\n";
  return text;
}

EvalRequest ReadRequest() {
  EvalRequest request;
  request.db = "bench";
  request.query = "exists t1 t2: P(t1) & t1 < t2 & Q(t2)";
  return request;
}

// --- Read scaling: N reader threads over one shared service ----------------

void BM_ServerConcurrentReads(benchmark::State& state) {
  // One shared fixture across the benchmark's threads.
  static EvaluationService* service = nullptr;
  if (state.thread_index() == 0) {
    service = new EvaluationService();
    Result<DbInfo> info = service->Load("bench", BenchDatabaseText());
    IODB_CHECK(info.ok());
    // Warm the plan cache so the steady state measures evaluation, not
    // one-time compilation.
    Result<EvalResponse> warm = service->Eval(ReadRequest());
    IODB_CHECK(warm.ok());
  }
  const EvalRequest request = ReadRequest();
  for (auto _ : state) {
    Result<EvalResponse> response = service->Eval(request);
    IODB_CHECK(response.ok());
    benchmark::DoNotOptimize(response.value().entailed);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete service;
    service = nullptr;
  }
}
BENCHMARK(BM_ServerConcurrentReads)->Threads(1)->Threads(2)->Threads(4)
    ->Threads(8)->UseRealTime();

// --- Read scaling under a writer: background publishes ---------------------
// Same read load, plus one non-benchmark thread continuously mutating
// and republishing the database. Readers must never block on the
// publish path; the measured dent is the version-build cost stealing
// CPU, not lock contention. The writer re-appends facts the database
// already holds, so every published version keeps the read-only
// variant's shape (two chains, width 2) and the two compare like with
// like.

void BM_ServerConcurrentReadsWithWriter(benchmark::State& state) {
  static EvaluationService* service = nullptr;
  static std::atomic<bool>* stop_writer = nullptr;
  static std::thread* writer = nullptr;
  if (state.thread_index() == 0) {
    service = new EvaluationService();
    Result<DbInfo> info = service->Load("bench", BenchDatabaseText());
    IODB_CHECK(info.ok());
    Result<EvalResponse> warm = service->Eval(ReadRequest());
    IODB_CHECK(warm.ok());
    stop_writer = new std::atomic<bool>(false);
    writer = new std::thread([] {
      long long i = 0;
      while (!stop_writer->load(std::memory_order_acquire)) {
        Result<DbInfo> mutated = service->Mutate("bench", [&](Database* db) {
          const std::string k = std::to_string(i % 8);
          return i % 2 == 0 ? db->AddFact("P", {"a" + k})
                            : db->AddFact("Q", {"b" + k});
        });
        IODB_CHECK(mutated.ok());
        ++i;
      }
    });
  }
  const EvalRequest request = ReadRequest();
  for (auto _ : state) {
    Result<EvalResponse> response = service->Eval(request);
    IODB_CHECK(response.ok());
    benchmark::DoNotOptimize(response.value().entailed);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    stop_writer->store(true, std::memory_order_release);
    writer->join();
    delete writer;
    writer = nullptr;
    delete stop_writer;
    stop_writer = nullptr;
    delete service;
    service = nullptr;
  }
}
BENCHMARK(BM_ServerConcurrentReadsWithWriter)->Threads(1)->Threads(4)
    ->Threads(8)->UseRealTime();

// --- Compile scaling: a fresh query text per request ----------------------
// Each request carries a text no earlier request used, shaped like the
// wire benchmark's disjunctive requests: 2-3 one-variable disjuncts of
// 2-3 labels over 16 predicates, on a width-4 database (4 strict chains
// of 6 points, each point carrying each label with probability 1/4).
// The plan cache is filled to capacity first, so the steady state is a
// full cache meeting one-shot texts.

constexpr int kLabels = 16;

std::string WideDatabaseText() {
  Rng rng(7);
  std::string text;
  for (int chain = 0; chain < 4; ++chain) {
    for (int i = 0; i < 6; ++i) {
      const std::string point =
          "c" + std::to_string(chain) + "_" + std::to_string(i);
      for (int label = 0; label < kLabels; ++label) {
        if (rng.Bernoulli(0.25)) {
          text += "L" + std::to_string(label) + "(" + point + ")\n";
        }
      }
      if (i > 0) {
        text += "c" + std::to_string(chain) + "_" + std::to_string(i - 1) +
                " < " + point + "\n";
      }
    }
  }
  return text;
}

// A disjunctive text whose variable names carry `tag`, so texts with
// distinct tags are distinct plan-cache keys.
std::string FreshQueryText(Rng& rng, const std::string& tag) {
  std::string text;
  const int disjuncts = rng.UniformInt(2, 3);
  for (int d = 0; d < disjuncts; ++d) {
    const std::string var = "x" + tag + "_" + std::to_string(d);
    text += d > 0 ? " | exists " : "exists ";
    text += var + ": ";
    const int labels = rng.UniformInt(2, 3);
    for (int l = 0; l < labels; ++l) {
      if (l > 0) text += " & ";
      text += "L" + std::to_string(rng.Uniform(kLabels)) + "(" + var + ")";
    }
  }
  return text;
}

void BM_ServiceFreshQueries(benchmark::State& state) {
  static EvaluationService* service = nullptr;
  if (state.thread_index() == 0) {
    service = new EvaluationService();
    Result<DbInfo> info = service->Load("wide", WideDatabaseText());
    IODB_CHECK(info.ok());
    Rng fill(1);
    const size_t capacity = service->plan_cache().capacity();
    for (size_t i = 0; i < capacity; ++i) {
      EvalRequest request;
      request.db = "wide";
      request.query = FreshQueryText(fill, "f" + std::to_string(i));
      IODB_CHECK(service->Eval(request).ok());
    }
    IODB_CHECK_EQ(service->plan_cache().stats().entries,
                  static_cast<long long>(capacity));
  }
  Rng rng(static_cast<uint64_t>(state.thread_index()) + 100);
  const std::string prefix = "t" + std::to_string(state.thread_index()) + "_";
  EvalRequest request;
  request.db = "wide";
  long long i = 0;
  for (auto _ : state) {
    request.query = FreshQueryText(rng, prefix + std::to_string(i++));
    Result<EvalResponse> response = service->Eval(request);
    IODB_CHECK(response.ok());
    benchmark::DoNotOptimize(response.value().entailed);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete service;
    service = nullptr;
  }
}
BENCHMARK(BM_ServiceFreshQueries)->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();

// --- Writer-side cost: a publish per mutation ------------------------------
// The single-writer fork → apply → materialize → swap pipeline, alone:
// the latency an APPEND pays beyond WAL I/O.

void BM_ServerPublishLatency(benchmark::State& state) {
  EvaluationService service;
  Result<DbInfo> info = service.Load("bench", BenchDatabaseText());
  IODB_CHECK(info.ok());
  long long i = 0;
  for (auto _ : state) {
    Result<DbInfo> mutated = service.Mutate("bench", [&](Database* db) {
      db->AddFact("P", {"w" + std::to_string(i % 64)});
      return Status::Ok();
    });
    IODB_CHECK(mutated.ok());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerPublishLatency);

}  // namespace
}  // namespace iodb
