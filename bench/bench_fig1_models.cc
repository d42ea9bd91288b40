// Figure 1: the models of the Example 1.1 data. Enumerates the minimal
// models of the espionage database (two 4-chains: Delannoy(4,4) = 321
// sorts) and of growing two-observer databases, measuring enumeration
// throughput.

#include <benchmark/benchmark.h>

#include "core/entail_bruteforce.h"
#include "core/minimal_models.h"
#include "workload/generators.h"
#include "workload/scenarios.h"

namespace iodb {
namespace {

void BM_Fig1_EspionageModels(benchmark::State& state) {
  EspionageScenario scenario = MakeEspionageScenario();
  Result<NormDb> norm = Normalize(scenario.db);
  IODB_CHECK(norm.ok());
  long long count = 0;
  for (auto _ : state) {
    count = CountMinimalModels(norm.value());
    benchmark::DoNotOptimize(count);
  }
  state.counters["models"] = static_cast<double>(count);  // 321 expected
}
BENCHMARK(BM_Fig1_EspionageModels)->Unit(benchmark::kMillisecond);

void BM_Fig1_TwoObserverModels(benchmark::State& state) {
  const int chain_length = static_cast<int>(state.range(0));
  Rng rng(17);
  auto vocab = std::make_shared<Vocabulary>();
  MonadicDbParams params;
  params.num_chains = 2;
  params.chain_length = chain_length;
  params.num_predicates = 2;
  params.le_probability = 0.0;
  Database db = RandomMonadicDb(params, vocab, rng);
  Result<NormDb> norm = Normalize(db);
  IODB_CHECK(norm.ok());
  long long count = 0;
  for (auto _ : state) {
    count = CountMinimalModels(norm.value());
    benchmark::DoNotOptimize(count);
  }
  state.counters["models"] = static_cast<double>(count);
}
BENCHMARK(BM_Fig1_TwoObserverModels)
    ->DenseRange(2, 6)
    ->Unit(benchmark::kMillisecond);

// Entailment over the same enumeration through the incremental
// evaluation core (in-place ModelBuilder + FactIndex + compiled
// matchers), on a rarely-satisfied query that forces deep countermodel
// search across the whole model space.
void BM_Fig1_EntailIncremental(benchmark::State& state) {
  const int chain_length = static_cast<int>(state.range(0));
  Rng rng(17);
  auto vocab = std::make_shared<Vocabulary>();
  MonadicDbParams params;
  params.num_chains = 2;
  params.chain_length = chain_length;
  params.num_predicates = 2;
  params.le_probability = 0.0;
  Database db = RandomMonadicDb(params, vocab, rng);
  Result<NormDb> norm = Normalize(db);
  IODB_CHECK(norm.ok());
  // P0 then P1 then P0 in strict succession: satisfied by few sorts, so
  // pruning rarely cuts and the enumeration mostly runs to full depth.
  Rng qrng(5);
  Query query = RandomSequentialQuery(3, 2, 0.9, 0.0, vocab, qrng);
  Result<NormQuery> norm_query = NormalizeQuery(query);
  IODB_CHECK(norm_query.ok());
  long long models = 0;
  for (auto _ : state) {
    BruteForceOutcome outcome =
        EntailBruteForce(norm.value(), norm_query.value());
    models = outcome.models_enumerated;
    benchmark::DoNotOptimize(outcome.entailed);
  }
  state.counters["models"] = static_cast<double>(models);
}
BENCHMARK(BM_Fig1_EntailIncremental)
    ->DenseRange(3, 6)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace iodb
