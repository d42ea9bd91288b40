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

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "service/service.h"

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
