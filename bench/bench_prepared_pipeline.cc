// Prepared vs. unprepared repeated evaluation: the compile-once /
// evaluate-many payoff of the core/prepare.h pipeline.
//
// Each pair of benchmarks runs the same (db, query) workload two ways:
// `Entails()` in a loop re-compiles the query on every call, while the
// prepared variant calls `Prepare()` once and then only
// `PreparedQuery::Evaluate()`. Both sides share the database-side
// normalization memoization (Database::NormView and the per-plan
// transformed-db cache), so the gap isolates query-compilation cost —
// constant elimination, inequality rewriting, normalization, the
// rational-closure transform, the object/order split. The batch pair
// additionally measures `EvaluateBatch` across many databases, the
// order-free pair compares two engines on the same prepared plans, and
// BM_PrepareFresh times compilation alone on one-shot query texts.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/parser.h"
#include "core/prepare.h"
#include "stats/stats.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/scenarios.h"

namespace iodb {
namespace {

// --- Standing alert: compile-heavy query, small hot database ---------------
// A monitoring-style standing query whose three "!=" atoms blow up into
// 2^3 disjuncts during compilation (Section 7); the database being
// re-checked is small. This is the classic prepared-statement shape:
// compilation dwarfs a single evaluation.

struct AlertFixture {
  VocabularyPtr vocab = std::make_shared<Vocabulary>();
  Database db;
  Query query;

  AlertFixture()
      : db(MustParseDb("P(u)\nP(v)\nP(w)\nu < v\nv < w")),
        query(MustParseQuery(
            "exists t1 t2 t3: P(t1) & P(t2) & P(t3) & "
            "t1 != t2 & t1 != t3 & t2 != t3")) {}

  Database MustParseDb(const char* text) {
    Result<Database> parsed = ParseDatabase(text, vocab);
    IODB_CHECK(parsed.ok());
    return std::move(parsed.value());
  }
  Query MustParseQuery(const char* text) {
    Result<Query> parsed = ParseQuery(text, vocab);
    IODB_CHECK(parsed.ok());
    return std::move(parsed.value());
  }
};

void BM_AlertUnprepared(benchmark::State& state) {
  AlertFixture fixture;
  for (auto _ : state) {
    Result<EntailResult> result = Entails(fixture.db, fixture.query);
    IODB_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().entailed);
  }
}
BENCHMARK(BM_AlertUnprepared);

void BM_AlertPrepared(benchmark::State& state) {
  AlertFixture fixture;
  PreparedQuery plan = MustPrepare(fixture.vocab, fixture.query);
  for (auto _ : state) {
    Result<EntailResult> result = plan.Evaluate(fixture.db);
    IODB_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().entailed);
  }
}
BENCHMARK(BM_AlertPrepared);

// --- Espionage (Example 1.1): constants + rational semantics ---------------
// Five disjuncts with constants under the dense-order reading: every
// unprepared call pays constant shifting, normalization of all disjuncts
// and the Corollary 2.6 closure.

void BM_EspionageUnprepared(benchmark::State& state) {
  EspionageScenario scenario = MakeEspionageScenario();
  EntailOptions dense;
  dense.semantics = OrderSemantics::kRational;
  for (auto _ : state) {
    Result<EntailResult> result =
        Entails(scenario.db, scenario.twice_either, dense);
    IODB_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().entailed);
  }
}
BENCHMARK(BM_EspionageUnprepared);

void BM_EspionagePrepared(benchmark::State& state) {
  EspionageScenario scenario = MakeEspionageScenario();
  EntailOptions dense;
  dense.semantics = OrderSemantics::kRational;
  PreparedQuery plan = MustPrepare(scenario.vocab, scenario.twice_either,
                                   dense);
  for (auto _ : state) {
    Result<EntailResult> result = plan.Evaluate(scenario.db);
    IODB_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().entailed);
  }
}
BENCHMARK(BM_EspionagePrepared);

// --- Scheduling: constant-free monadic disjunct ----------------------------
// The forbidden-pattern check against a partially ordered plan; the
// prepared side reduces to the bounded-width engine run alone.

void BM_SchedulingUnprepared(benchmark::State& state) {
  Rng rng(7);
  SchedulingScenario scenario =
      MakeSchedulingScenario(static_cast<int>(state.range(0)), 4, rng);
  for (auto _ : state) {
    Result<EntailResult> result = Entails(scenario.db, scenario.forbidden);
    IODB_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().entailed);
  }
}
BENCHMARK(BM_SchedulingUnprepared)->Arg(2)->Arg(4);

void BM_SchedulingPrepared(benchmark::State& state) {
  Rng rng(7);
  SchedulingScenario scenario =
      MakeSchedulingScenario(static_cast<int>(state.range(0)), 4, rng);
  PreparedQuery plan = PrepareForbiddenPlan(scenario);
  for (auto _ : state) {
    Result<EntailResult> result = plan.Evaluate(scenario.db);
    IODB_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value().entailed);
  }
}
BENCHMARK(BM_SchedulingPrepared)->Arg(2)->Arg(4);

// --- Batch: one plan, many databases ---------------------------------------
// A fleet of plan variants checked against the same compiled forbidden
// pattern: the EvaluateBatch seam.

std::vector<SchedulingScenario> MakeFleet(int n) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<SchedulingScenario> fleet;
  fleet.reserve(n);
  for (int i = 0; i < n; ++i) {
    Rng rng(100 + i);
    fleet.push_back(MakeSchedulingScenario(2, 4, rng, vocab));
  }
  return fleet;
}

void BM_BatchUnprepared(benchmark::State& state) {
  std::vector<SchedulingScenario> fleet =
      MakeFleet(static_cast<int>(state.range(0)));
  // All fleet members share the forbidden pattern; take it from the first.
  const Query& forbidden = fleet[0].forbidden;
  for (auto _ : state) {
    for (const SchedulingScenario& scenario : fleet) {
      Result<EntailResult> result = Entails(scenario.db, forbidden);
      IODB_CHECK(result.ok());
      benchmark::DoNotOptimize(result.value().entailed);
    }
  }
}
BENCHMARK(BM_BatchUnprepared)->Arg(16);

void BM_BatchPrepared(benchmark::State& state) {
  std::vector<SchedulingScenario> fleet =
      MakeFleet(static_cast<int>(state.range(0)));
  PreparedQuery plan = PrepareForbiddenPlan(fleet[0]);
  std::vector<const Database*> dbs;
  dbs.reserve(fleet.size());
  for (const SchedulingScenario& scenario : fleet) {
    dbs.push_back(&scenario.db);
  }
  for (auto _ : state) {
    std::vector<Result<EntailResult>> results = plan.EvaluateBatch(dbs);
    for (const Result<EntailResult>& result : results) {
      IODB_CHECK(result.ok());
      benchmark::DoNotOptimize(result.value().entailed);
    }
  }
}
BENCHMARK(BM_BatchPrepared)->Arg(16);

// --- Parallel batch: the scheduling fleet sharded across workers -----------
// Same workload as BM_BatchPrepared with a larger fleet of heavier plan
// variants, evaluated through ParallelEvaluateBatch. Args: (fleet size,
// workers). Workers=1 is the serial baseline through the same code path;
// scaling tops out at the machine's core count (this is a per-database
// sharding, so a 16-db fleet feeds at most 16 workers).

void BM_BatchParallel(benchmark::State& state) {
  auto vocab = std::make_shared<Vocabulary>();
  std::vector<SchedulingScenario> fleet;
  const int fleet_size = static_cast<int>(state.range(0));
  fleet.reserve(fleet_size);
  for (int i = 0; i < fleet_size; ++i) {
    Rng rng(100 + i);
    fleet.push_back(MakeSchedulingScenario(3, 5, rng, vocab));
  }
  PreparedQuery plan = PrepareForbiddenPlan(fleet[0]);
  std::vector<const Database*> dbs;
  dbs.reserve(fleet.size());
  for (const SchedulingScenario& scenario : fleet) {
    dbs.push_back(&scenario.db);
  }
  const int workers = static_cast<int>(state.range(1));
  for (auto _ : state) {
    std::vector<Result<EntailResult>> results =
        plan.ParallelEvaluateBatch(dbs, workers);
    for (const Result<EntailResult>& result : results) {
      IODB_CHECK(result.ok());
      benchmark::DoNotOptimize(result.value().entailed);
    }
  }
}
BENCHMARK(BM_BatchParallel)
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4})
    ->UseRealTime();

// --- Order-free route: the discrete model vs the Theorem 5.3 search -------
// Disjunctions of one-variable disjuncts with 2-3 labels each (no order
// atom) over a width-4 database of 4 chains x 6 points and 16 predicates.
// Arg 0 lets kAuto take the order-free route; arg 1 forces the
// disjunctive search on the same plans. One iteration evaluates 16
// prepared queries, entailed and not.

void BM_OrderFreeRoute(benchmark::State& state) {
  auto vocab = std::make_shared<Vocabulary>();
  Rng rng(2026);
  MonadicDbParams params;
  params.num_chains = 4;
  params.chain_length = 6;
  params.num_predicates = 16;
  params.label_probability = 0.12;
  const Database db = RandomMonadicDb(params, vocab, rng);

  EntailOptions options;
  const bool forced = state.range(0) == 1;
  if (forced) options.engine = EngineKind::kDisjunctiveSearch;
  state.SetLabel(forced ? "disjunctive-search" : "auto");
  std::vector<PreparedQuery> plans;
  for (int q = 0; q < 16; ++q) {
    Query query(vocab);
    for (int d = rng.UniformInt(2, 3); d > 0; --d) {
      QueryConjunct& conjunct = query.AddDisjunct().Exists("t");
      for (int l = rng.UniformInt(2, 3); l > 0; --l) {
        conjunct.Atom("P" + std::to_string(rng.UniformInt(0, 15)), {"t"});
      }
    }
    plans.push_back(MustPrepare(vocab, query, options));
  }
  for (auto _ : state) {
    for (const PreparedQuery& plan : plans) {
      Result<EntailResult> result = plan.Evaluate(db);
      IODB_CHECK(result.ok());
      benchmark::DoNotOptimize(result.value().entailed);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(plans.size()));
}
BENCHMARK(BM_OrderFreeRoute)->Arg(0)->Arg(1);

// --- Fresh compilation: Prepare alone over engine_mix-shaped texts --------
// The expression-complexity regime: every request brings a new query, so
// Prepare runs once per request. A pool of 4096 pre-parsed queries over
// 16 labels is compiled in turn with the planner of a width-4 database
// (4 chains x 6 points), as the service does on a plan-cache miss.
// Arg 0: disjunctions of 2-3 one-variable disjuncts with 2-3 labels each
// (order-free). Arg 1: conjuncts of 2-4 variables with 1-3 labels each,
// linked into a chain-shaped order pattern. Arg 2: the arg-1 pool forced
// to the path-decomposition engine.

// A 2-4 variable conjunct: each t_i (i > 0) follows t_{i-1}, or now and
// then an earlier variable, by "<" or "<=".
void AddChainConjunct(Query& query, Rng& rng) {
  QueryConjunct& conjunct = query.AddDisjunct();
  const int vars = rng.UniformInt(2, 4);
  for (int i = 0; i < vars; ++i) {
    const std::string var = "t" + std::to_string(i);
    conjunct.Exists(var);
    for (int l = rng.UniformInt(1, 3); l > 0; --l) {
      conjunct.Atom("P" + std::to_string(rng.UniformInt(0, 15)), {var});
    }
    if (i > 0) {
      const int parent = rng.Bernoulli(0.75) ? i - 1 : rng.UniformInt(0, i - 1);
      conjunct.Order("t" + std::to_string(parent),
                     rng.Bernoulli(0.6) ? OrderRel::kLt : OrderRel::kLe, var);
    }
  }
}

void BM_PrepareFresh(benchmark::State& state) {
  auto vocab = std::make_shared<Vocabulary>();
  Rng rng(2026);
  MonadicDbParams params;
  params.num_chains = 4;
  params.chain_length = 6;
  params.num_predicates = 16;
  params.label_probability = 0.25;
  const Database db = RandomMonadicDb(params, vocab, rng);

  const int shape = static_cast<int>(state.range(0));
  EntailOptions options;
  options.planner = stats::PlannerFor(db);
  if (shape == 2) options.engine = EngineKind::kPathDecomposition;
  state.SetLabel(shape == 0 ? "order-free" : shape == 1 ? "chain" : "paths");
  constexpr size_t kPool = 4096;
  std::vector<Query> pool;
  pool.reserve(kPool);
  for (size_t q = 0; q < kPool; ++q) {
    Query query(vocab);
    if (shape == 0) {
      for (int d = rng.UniformInt(2, 3); d > 0; --d) {
        QueryConjunct& conjunct = query.AddDisjunct().Exists("t");
        for (int l = rng.UniformInt(2, 3); l > 0; --l) {
          conjunct.Atom("P" + std::to_string(rng.UniformInt(0, 15)), {"t"});
        }
      }
    } else {
      AddChainConjunct(query, rng);
    }
    pool.push_back(std::move(query));
  }
  size_t next = 0;
  for (auto _ : state) {
    Result<PreparedQuery> plan = Prepare(vocab, pool[next], options);
    IODB_CHECK(plan.ok());
    benchmark::DoNotOptimize(plan.value().planned_engine());
    next = (next + 1) % kPool;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrepareFresh)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
}  // namespace iodb
