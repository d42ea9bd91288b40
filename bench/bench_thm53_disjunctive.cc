// Theorem 5.3 ablation: the bound O(|D|^{2k} · |Pred| · Π|Φᵢ|) is
// exponential in both the database width and the number of disjuncts
// (Propositions 5.4/5.5 show neither dependence is removable). Sweeps:
// disjunct count, width, database size at width 2 (16 to 256 points, so
// both forms of the sort region: one word up to 64 points, counters
// above), and countermodel-enumeration throughput (the paper's
// polynomial-delay remark).

#include <benchmark/benchmark.h>

#include "core/entail_disjunctive.h"
#include "workload/generators.h"

namespace iodb {
namespace {

struct Instance {
  NormDb db;
  NormQuery query;
};

Instance Make(int num_chains, int chain_length, int num_disjuncts,
              uint64_t seed) {
  Rng rng(seed);
  auto vocab = std::make_shared<Vocabulary>();
  MonadicDbParams params;
  params.num_chains = num_chains;
  params.chain_length = chain_length;
  params.num_predicates = 3;
  params.label_probability = 0.5;
  params.le_probability = 0.2;
  Database db = RandomMonadicDb(params, vocab, rng);
  Result<NormDb> norm = Normalize(db);
  IODB_CHECK(norm.ok());
  Query query = RandomDisjunctiveSequentialQuery(num_disjuncts, 3, 3, 0.3,
                                                 0.2, vocab, rng);
  Result<NormQuery> nq = NormalizeQuery(query);
  IODB_CHECK(nq.ok());
  return {std::move(norm.value()), std::move(nq.value())};
}

void BM_Thm53_DisjunctSweep(benchmark::State& state) {
  Instance inst = Make(2, 8, static_cast<int>(state.range(0)), 61);
  long long states = 0;
  for (auto _ : state) {
    DisjunctiveOutcome outcome = EntailDisjunctive(inst.db, inst.query);
    states = outcome.states_visited;
    benchmark::DoNotOptimize(outcome.entailed);
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_Thm53_DisjunctSweep)
    ->DenseRange(1, 5)
    ->Unit(benchmark::kMicrosecond);

void BM_Thm53_WidthSweep(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Instance inst = Make(k, 16 / k, 2, 67);
  long long states = 0;
  for (auto _ : state) {
    DisjunctiveOutcome outcome = EntailDisjunctive(inst.db, inst.query);
    states = outcome.states_visited;
    benchmark::DoNotOptimize(outcome.entailed);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["width"] = k;
}
BENCHMARK(BM_Thm53_WidthSweep)->DenseRange(1, 4)->Unit(benchmark::kMicrosecond);

void BM_Thm53_DbSweepAtWidth2(benchmark::State& state) {
  Instance inst = Make(2, static_cast<int>(state.range(0)), 2, 73);
  long long states = 0;
  for (auto _ : state) {
    DisjunctiveOutcome outcome = EntailDisjunctive(inst.db, inst.query);
    states = outcome.states_visited;
    benchmark::DoNotOptimize(outcome.entailed);
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["points"] = inst.db.num_points();
}
BENCHMARK(BM_Thm53_DbSweepAtWidth2)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Unit(benchmark::kMicrosecond);

void BM_Thm53_CountermodelEnumeration(benchmark::State& state) {
  // Throughput of countermodel (valid-schedule) enumeration: models per
  // second over a capped enumeration. Long specific patterns keep the
  // query falsifiable so there are countermodels to enumerate.
  Rng rng(71);
  auto vocab = std::make_shared<Vocabulary>();
  MonadicDbParams params;
  params.num_chains = 2;
  params.chain_length = static_cast<int>(state.range(0));
  params.num_predicates = 3;
  params.label_probability = 0.3;
  Database raw_db = RandomMonadicDb(params, vocab, rng);
  Result<NormDb> norm = Normalize(raw_db);
  IODB_CHECK(norm.ok());
  Query raw_query =
      RandomDisjunctiveSequentialQuery(2, 6, 3, 0.5, 0.1, vocab, rng);
  Result<NormQuery> nq = NormalizeQuery(raw_query);
  IODB_CHECK(nq.ok());
  Instance inst{std::move(norm.value()), std::move(nq.value())};
  long long total = 0;
  for (auto _ : state) {
    long long count = 0;
    DisjunctiveOptions options;
    options.on_countermodel = [&](const FiniteModel&) {
      return ++count < 2000;
    };
    EntailDisjunctive(inst.db, inst.query, options);
    total += count;
    benchmark::DoNotOptimize(count);
  }
  state.counters["countermodels_per_iter"] =
      static_cast<double>(total) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_Thm53_CountermodelEnumeration)
    ->DenseRange(3, 6)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace iodb
