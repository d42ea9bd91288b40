// Randomized cross-engine conformance fuzzer: the safety net under the
// serving layer.
//
// Each seeded instance draws a k-observer database (RandomMonadicDb) and
// a query from one of the families (conjunctive monadic / sequential /
// disjunctive sequential / order-free), then decides entailment through
// every applicable path:
//
//   * Entails() with engine=auto (the facade),
//   * the brute-force engine,
//   * the bounded-width and path-decomposition engines (conjunctive
//     monadic instances),
//   * the disjunctive-search engine,
//   * the order-free engine (order-free instances; on the others it must
//     either refuse with kUnsupported or agree),
//   * the EvaluationService single-request path (which also round-trips
//     the query through Print -> Parse and the plan cache),
//   * the EvaluationService batch path (requests chunked through
//     EvalBatch onto the worker pool),
//   * the cost-based planner sweep: costing off (the engine runs above),
//     costing on over the database's real statistics, and costing on
//     over randomly perturbed statistics — the planner is advisory by
//     contract, so even garbage estimates may only change schedules,
//     never verdicts, and
//   * the reference decider of tests/oracle/oracle.h, under the
//     instance's semantics: it reads only the surface database and query
//     and shares no code with the engines, the Z sentinels and the Q
//     closure included.
//
// A second corpus, the object-sorted family, adds object constants and
// object-sorted facts (ObjectSortedInstancesAgreeWithTheOracle): it
// checks the object/order split and the per-database filter of carved-off
// object components against the oracle under all three semantics.
//
// All verdicts must be identical. A mismatch aborts the suite and prints
// a self-contained repro: the seed plus the database and query rendered
// by the printer (both parse back with tools/iodb_eval).
//
// Knobs (environment):
//   IODB_FUZZ_ITERATIONS  instance count (default 2000; nightly CI
//                         raises it — see .github/workflows/ci.yml)
//   IODB_FUZZ_SEED        run exactly one instance with this seed (the
//                         repro knob: take the seed from a failure log)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/parser.h"
#include "core/printer.h"
#include "oracle/oracle.h"
#include "service/service.h"
#include "stats/cost_model.h"
#include "stats/stats.h"
#include "util/random.h"
#include "workload/generators.h"

namespace iodb {
namespace {

int FuzzIterations() {
  const char* env = std::getenv("IODB_FUZZ_ITERATIONS");
  if (env != nullptr) {
    int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 2000;  // ~1 s; the nightly CI profile runs far more
}

std::optional<uint64_t> FuzzSingleSeed() {
  const char* env = std::getenv("IODB_FUZZ_SEED");
  if (env == nullptr) return std::nullopt;
  return std::strtoull(env, nullptr, 10);
}

// Seeds are absolute (not derived from the iteration index at run time),
// so any failing instance reruns alone via IODB_FUZZ_SEED.
constexpr uint64_t kSeedBase = 20260730000ULL;

// One named verdict source.
struct Verdict {
  std::string source;
  bool entailed = false;
};

// The drawn instance. All queries are monadic-order, so the disjunctive
// engine always applies. Families 0-2 are constant-free over databases
// without "!=", and the conjunctive engines apply to families 0 and 1.
// The order-free family may name a database constant (constant
// elimination turns it into a marker label) over a database that may
// carry one "!=" (the Section 7 sorting modification).
struct Instance {
  Database db;
  Query query;
  OrderSemantics semantics = OrderSemantics::kFinite;
  // 0 = conjunctive, 1 = sequential, 2 = disjunctive, 3 = order-free
  int family = 0;
};

// The order-free family: 1-3 disjuncts of 1-3 variables with 1-3 labels
// each and no order atom; sometimes one disjunct also asserts a label of
// a database constant.
Query RandomOrderFreeQuery(const Database& db, int num_predicates,
                           const VocabularyPtr& vocab, Rng& rng) {
  std::vector<QueryConjunct> disjuncts(rng.UniformInt(1, 3));
  const int max_labels = std::min(3, num_predicates);
  for (QueryConjunct& conjunct : disjuncts) {
    const int vars = rng.UniformInt(1, 3);
    for (int v = 0; v < vars; ++v) {
      const std::string var = "t" + std::to_string(v);
      conjunct.Exists(var);
      std::vector<int> labels;
      const int count = rng.UniformInt(1, max_labels);
      while (static_cast<int>(labels.size()) < count) {
        const int p = rng.UniformInt(0, num_predicates - 1);
        if (std::find(labels.begin(), labels.end(), p) == labels.end()) {
          labels.push_back(p);
          conjunct.Atom("P" + std::to_string(p), {var});
        }
      }
    }
  }
  if (rng.Bernoulli(0.25)) {
    const int c = rng.UniformInt(0, db.num_order_constants() - 1);
    const int p = rng.UniformInt(0, num_predicates - 1);
    disjuncts[rng.Uniform(disjuncts.size())].Atom("P" + std::to_string(p),
                                                  {db.order_name(c)});
  }
  Query query(vocab);
  for (QueryConjunct& conjunct : disjuncts) {
    query.AddDisjunct(std::move(conjunct));
  }
  return query;
}

Instance DrawInstance(uint64_t seed, const VocabularyPtr& vocab) {
  Rng rng(seed);
  MonadicDbParams params;
  params.num_chains = rng.UniformInt(1, 3);
  // Keep the brute-force search spaces small: 3 mutually unordered
  // chains blow up the interleaving count, so they stay short.
  params.chain_length =
      params.num_chains == 3 ? rng.UniformInt(2, 3) : rng.UniformInt(2, 5);
  params.num_predicates = rng.UniformInt(2, 3);
  params.label_probability = rng.UniformInt(30, 70) / 100.0;
  params.le_probability = rng.UniformInt(0, 40) / 100.0;
  Database db = RandomMonadicDb(params, vocab, rng);

  const int family = rng.UniformInt(0, 3);
  if (family == 3 && rng.Bernoulli(0.25)) {
    // One database "!=" between two distinct points.
    const int n = db.num_order_constants();
    const int u = rng.UniformInt(0, n - 1);
    const int v = (u + rng.UniformInt(1, n - 1)) % n;
    db.AddInequality(u, v);
  }
  Query query = [&] {
    switch (family) {
      case 0:
        return RandomConjunctiveMonadicQuery(
            rng.UniformInt(2, 4), params.num_predicates,
            /*edge_probability=*/rng.UniformInt(30, 60) / 100.0,
            /*label_probability=*/rng.UniformInt(30, 70) / 100.0,
            /*le_probability=*/0.3, vocab, rng);
      case 1:
        return RandomSequentialQuery(rng.UniformInt(2, 5),
                                     params.num_predicates,
                                     /*label_probability=*/0.4,
                                     /*le_probability=*/0.3, vocab, rng);
      case 2:
        return RandomDisjunctiveSequentialQuery(
            rng.UniformInt(2, 3), rng.UniformInt(2, 4),
            params.num_predicates, /*label_probability=*/0.4,
            /*le_probability=*/0.3, vocab, rng);
      default:
        return RandomOrderFreeQuery(db, params.num_predicates, vocab, rng);
    }
  }();

  // Mostly finite semantics; the Z and Q reductions get a steady trickle.
  OrderSemantics semantics = OrderSemantics::kFinite;
  const int roll = rng.UniformInt(0, 9);
  if (roll == 8) semantics = OrderSemantics::kInteger;
  if (roll == 9) semantics = OrderSemantics::kRational;

  return Instance{std::move(db), std::move(query), semantics, family};
}

// The self-contained repro block printed on any mismatch. Both payloads
// are in the parser's format:
//   iodb_eval <(echo "$db") "$query" --semantics=...
std::string Repro(uint64_t seed, const Instance& instance) {
  std::string out;
  out += "=== conformance repro (seed " + std::to_string(seed) + ") ===\n";
  out += "rerun: IODB_FUZZ_SEED=" + std::to_string(seed) +
         " ./conformance_fuzz_test\n";
  out += std::string("semantics: ") + OrderSemanticsName(instance.semantics) +
         "\n";
  out += "--- database ---\n" + ToString(instance.db);
  out += "--- query ---\n" + ToString(instance.query) + "\n";
  return out;
}

// Random statistics perturbation for the costing sweep: counts are
// zeroed, shrunk or inflated across magnitude classes and the validity
// bit may flip. Structurally a legal DatabaseStats, numerically lies —
// the cost model must stay crash-free and verdict-neutral on it.
stats::DatabaseStats PerturbStats(stats::DatabaseStats s, Rng& rng) {
  auto scale = [&rng](long long value) -> long long {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        return 0;
      case 1:
        return value / 2;
      case 2:
        return value * 16 + 1;
      default:
        return value;
    }
  };
  for (stats::PredicateStats& ps : s.predicates) {
    ps.tuples = scale(ps.tuples);
    for (long long& d : ps.distinct_args) d = scale(d);
  }
  for (auto& [pred, count] : s.label_points) count = scale(count);
  for (stats::LabelPairStats& pair : s.label_pairs) {
    pair.points = scale(pair.points);
  }
  s.points = static_cast<int>(scale(s.points));
  s.edges = static_cast<int>(scale(s.edges));
  s.strict_edges = static_cast<int>(scale(s.strict_edges));
  s.dag_depth = static_cast<int>(scale(s.dag_depth));
  s.level_width = static_cast<int>(scale(s.level_width));
  s.components = static_cast<int>(scale(s.components));
  if (rng.Bernoulli(0.2)) s.order_stats_valid = !s.order_stats_valid;
  return s;
}

// Collects every applicable engine verdict for the instance. Returns
// nullopt (with a recorded failure) if any path errors out.
std::optional<std::vector<Verdict>> EngineVerdicts(const Instance& instance,
                                                   uint64_t seed) {
  std::vector<Verdict> verdicts;
  EntailOptions options;
  options.semantics = instance.semantics;

  auto run = [&](const char* source, EngineKind engine) -> bool {
    EntailOptions forced = options;
    forced.engine = engine;
    Result<EntailResult> result = Entails(instance.db, instance.query,
                                          forced);
    if (!result.ok()) {
      ADD_FAILURE() << source << " failed: " << result.status().ToString();
      return false;
    }
    verdicts.push_back({source, result.value().entailed});
    return true;
  };

  if (!run("entails-auto", EngineKind::kAuto)) return std::nullopt;

  // Costing sweep. "entails-auto" above is the costing-off baseline
  // (options.planner defaults to null); the same instance is re-decided
  // with the real statistics-backed planner and with a planner fed
  // perturbed statistics.
  {
    EntailOptions costed = options;
    costed.planner = stats::PlannerFor(instance.db);
    Result<EntailResult> result =
        Entails(instance.db, instance.query, costed);
    if (!result.ok()) {
      ADD_FAILURE() << "costed-auto failed: " << result.status().ToString();
      return std::nullopt;
    }
    verdicts.push_back({"costed-auto", result.value().entailed});

    Rng perturb_rng(seed ^ 0xC057ED57A7511CA1ULL);
    EntailOptions perturbed = options;
    perturbed.planner = std::make_shared<const stats::CostModel>(
        std::make_shared<const stats::DatabaseStats>(
            PerturbStats(*stats::StatsFor(instance.db), perturb_rng)));
    result = Entails(instance.db, instance.query, perturbed);
    if (!result.ok()) {
      ADD_FAILURE() << "costed-perturbed failed: "
                    << result.status().ToString();
      return std::nullopt;
    }
    verdicts.push_back({"costed-perturbed", result.value().entailed});
  }

  if (!run("brute-force", EngineKind::kBruteForce)) return std::nullopt;
  if (!run("disjunctive-search", EngineKind::kDisjunctiveSearch)) {
    return std::nullopt;
  }
  if (instance.family == 3) {
    if (!run("order-free", EngineKind::kOrderFree)) return std::nullopt;
  } else {
    // The random families may draw an order-free query too; otherwise
    // the forced route must refuse the instance.
    EntailOptions forced = options;
    forced.engine = EngineKind::kOrderFree;
    Result<EntailResult> result =
        Entails(instance.db, instance.query, forced);
    if (result.ok()) {
      verdicts.push_back({"order-free", result.value().entailed});
    } else if (result.status().code() != StatusCode::kUnsupported) {
      ADD_FAILURE() << "order-free failed: " << result.status().ToString();
      return std::nullopt;
    }
  }
  if (instance.family <= 1) {  // conjunctive instance
    if (!run("bounded-width", EngineKind::kBoundedWidth)) return std::nullopt;
    if (!run("path-decomposition", EngineKind::kPathDecomposition)) {
      return std::nullopt;
    }
  }

  // The reference decider (tests/oracle/oracle.h): built from the
  // definitions on the surface pair, sharing no code with the engines or
  // with the semantics reductions they all read.
  Result<oracle::Verdict> verdict =
      oracle::Decide(instance.db, instance.query, instance.semantics);
  if (!verdict.ok() || verdict.value() == oracle::Verdict::kInconsistent) {
    ADD_FAILURE() << "oracle failed: "
                  << (verdict.ok() ? "inconsistent database"
                                   : verdict.status().ToString());
    return std::nullopt;
  }
  verdicts.push_back(
      {"oracle", verdict.value() == oracle::Verdict::kEntailed});
  return verdicts;
}

TEST(ConformanceFuzzTest, AllEnginesAndServiceAgree) {
  // One service shared by the whole corpus: its vocabulary hosts every
  // generated instance, its plan cache churns through the random query
  // stream (hits, misses and evictions included), and the fuzz loop
  // doubles as a soak test of the serving layer.
  EvaluationService service;

  const std::optional<uint64_t> single = FuzzSingleSeed();
  const int iterations = single.has_value() ? 1 : FuzzIterations();

  // Batch accumulator: every chunk is re-served through EvalBatch and
  // compared against the verdicts the single-request path produced.
  constexpr int kBatchChunk = 32;
  std::vector<EvalRequest> pending_requests;
  std::vector<bool> pending_expected;
  std::vector<uint64_t> pending_seeds;
  auto flush_batch = [&] {
    if (pending_requests.empty()) return;
    std::vector<Result<EvalResponse>> responses =
        service.EvalBatch(pending_requests);
    ASSERT_EQ(responses.size(), pending_requests.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].ok())
          << "service-batch failed (seed " << pending_seeds[i]
          << "): " << responses[i].status().ToString();
      ASSERT_EQ(responses[i].value().entailed, pending_expected[i])
          << "service-batch disagrees with the single-request path for "
             "seed "
          << pending_seeds[i];
    }
    pending_requests.clear();
    pending_expected.clear();
    pending_seeds.clear();
  };

  for (int i = 0; i < iterations; ++i) {
    const uint64_t seed =
        single.has_value() ? *single : kSeedBase + static_cast<uint64_t>(i);
    Instance instance = DrawInstance(seed, service.vocab());

    std::optional<std::vector<Verdict>> verdicts =
        EngineVerdicts(instance, seed);
    ASSERT_TRUE(verdicts.has_value()) << Repro(seed, instance);

    // The service path: registers the database and round-trips the query
    // through the printer, the parser, the plan cache and Evaluate.
    const std::string db_name = "fuzz" + std::to_string(i);
    ASSERT_TRUE(
        service.Register(db_name, Database(instance.db)).ok())
        << Repro(seed, instance);
    EvalRequest request;
    request.db = db_name;
    request.query = ToString(instance.query);
    request.options.semantics = instance.semantics;
    Result<EvalResponse> response = service.Eval(request);
    ASSERT_TRUE(response.ok()) << "service-eval failed: "
                               << response.status().ToString() << "\n"
                               << Repro(seed, instance);
    verdicts->push_back({"service-eval", response.value().entailed});

    const bool expected = verdicts->front().entailed;
    for (const Verdict& verdict : *verdicts) {
      if (verdict.entailed != expected) {
        std::string table;
        for (const Verdict& v : *verdicts) {
          table += "  " + v.source + ": " +
                   (v.entailed ? "ENTAILED" : "NOT ENTAILED") + "\n";
        }
        FAIL() << "engines disagree:\n" << table << Repro(seed, instance);
      }
    }

    // Governance conformance, small budget: a tiny random step budget
    // must never corrupt a verdict. Either the run completes and matches
    // the agreed verdict, or it fails with the typed exhaustion status — a
    // definite yes/no from an exhausted run would be a soundness bug.
    if (i % 4 == 0) {
      Rng gov_rng(seed ^ 0x9E3779B97F4A7C15ULL);
      ExecBudget small;
      small.SetStepLimit(gov_rng.UniformInt(1, 50));
      EntailOptions gov_options;
      gov_options.semantics = instance.semantics;
      Result<EntailResult> governed =
          Entails(instance.db, instance.query, gov_options, &small);
      if (governed.ok()) {
        ASSERT_EQ(governed.value().entailed, expected)
            << "governed non-exhausted run disagrees with the verdict\n"
            << Repro(seed, instance);
      } else {
        ASSERT_TRUE(governed.status().code() ==
                        StatusCode::kDeadlineExceeded ||
                    governed.status().code() == StatusCode::kCancelled)
            << "governed run failed with a non-exhaustion status: "
            << governed.status().ToString() << "\n"
            << Repro(seed, instance);
      }
    }

    // Governance conformance, huge budget: a budget that never trips is
    // observationally passive — verdict AND every work counter must be
    // bit-identical to the ungoverned run.
    if (i % 8 == 0) {
      EntailOptions gov_options;
      gov_options.semantics = instance.semantics;
      Result<EntailResult> plain =
          Entails(instance.db, instance.query, gov_options);
      ExecBudget huge;
      huge.SetStepLimit(1LL << 60);
      Result<EntailResult> governed =
          Entails(instance.db, instance.query, gov_options, &huge);
      ASSERT_TRUE(plain.ok()) << Repro(seed, instance);
      ASSERT_TRUE(governed.ok()) << Repro(seed, instance);
      EXPECT_EQ(governed.value().entailed, plain.value().entailed)
          << Repro(seed, instance);
      EXPECT_EQ(governed.value().states_visited, plain.value().states_visited)
          << Repro(seed, instance);
      EXPECT_EQ(governed.value().models_enumerated,
                plain.value().models_enumerated)
          << Repro(seed, instance);
      EXPECT_EQ(governed.value().groups_pushed, plain.value().groups_pushed)
          << Repro(seed, instance);
      EXPECT_EQ(governed.value().groups_popped, plain.value().groups_popped)
          << Repro(seed, instance);
    }

    pending_requests.push_back(std::move(request));
    pending_expected.push_back(expected);
    pending_seeds.push_back(seed);
    if (static_cast<int>(pending_requests.size()) >= kBatchChunk) {
      flush_batch();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  flush_batch();

  // The corpus must have actually exercised both verdicts and the cache.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests,
            static_cast<long long>(iterations) * 2);  // eval + batch replay
  if (!single.has_value()) {
    EXPECT_GT(stats.plan_cache.hits, 0);
    EXPECT_GT(stats.plan_cache.misses, 0);
  }
}

// Hand-picked instances the random corpus never or rarely draws: a
// database with no order constant, and nontight queries whose dropped
// variable carries the only order constraint, under every semantics.
// Under Z and Q the order is never empty, so "exists t: t <= t" holds even
// over a database without order constants; the reductions must say so.
TEST(ConformanceFuzzTest, EdgeInstancesAgreeWithTheOracle) {
  auto vocab = std::make_shared<Vocabulary>();
  DeclareMonadicPredicates(*vocab, 2);
  const char* databases[] = {"", "P0(u)", "P0(u)\nP1(v)\nu < v"};
  const char* queries[] = {
      "exists t: t <= t",
      "exists t1 t2: t1 < t2",
      "exists t: P0(t)",
      "exists t1 t2: t1 < t2 & P0(t2)",
      "exists t1 t2 t3: P0(t1) & t1 < t2 & t2 < t3 & P1(t3)",
      // Under Q, t2 forces two distinct P0 points: the closure must keep
      // t1 < t3 when t2 is dropped.
      "exists t1 t2 t3: P0(t1) & t1 < t2 & t2 < t3 & P0(t3)",
  };
  for (const char* db_text : databases) {
    Result<Database> db = ParseDatabase(db_text, vocab);
    ASSERT_TRUE(db.ok()) << db_text;
    for (const char* query_text : queries) {
      Result<Query> query = ParseQuery(query_text, vocab);
      ASSERT_TRUE(query.ok()) << query_text;
      for (OrderSemantics semantics :
           {OrderSemantics::kFinite, OrderSemantics::kInteger,
            OrderSemantics::kRational}) {
        const std::string repro =
            std::string("semantics: ") + OrderSemanticsName(semantics) +
            "\n--- database ---\n" + ToString(db.value()) +
            "--- query ---\n" + query_text + "\n";
        Result<oracle::Verdict> expected =
            oracle::Decide(db.value(), query.value(), semantics);
        ASSERT_TRUE(expected.ok()) << repro;
        ASSERT_NE(expected.value(), oracle::Verdict::kInconsistent) << repro;
        for (EngineKind engine :
             {EngineKind::kAuto, EngineKind::kBruteForce,
              EngineKind::kDisjunctiveSearch}) {
          EntailOptions options;
          options.semantics = semantics;
          options.engine = engine;
          Result<EntailResult> result =
              Entails(db.value(), query.value(), options);
          ASSERT_TRUE(result.ok()) << EngineKindName(engine) << "\n" << repro;
          EXPECT_EQ(result.value().entailed,
                    expected.value() == oracle::Verdict::kEntailed)
              << EngineKindName(engine) << " disagrees with the oracle\n"
              << repro;
        }
      }
    }
  }
}

// The object-sorted family. Every other instance is monadic order, so
// the object/order split (a disjunct's components touching no order
// variable are carved off at Prepare and checked against the database's
// ground object facts at evaluation) never fires on them. Here the
// database adds 1-3 object constants with unary facts O0/O1 and
// object-order facts R(a, u); each disjunct of the query has a monadic
// order part and, at random, an object-only component (O0(x), O0(x) &
// O1(x), or a guard on a database object constant) that holds on some
// databases and fails on others, and/or an R atom tying an object
// variable to an order variable (which keeps it off the carve-off and
// off the monadic engines).
struct ObjectInstance {
  Database db;
  Query query;
  std::string query_text;
};

ObjectInstance DrawObjectInstance(uint64_t seed, const VocabularyPtr& vocab) {
  Rng rng(seed);
  MonadicDbParams params;
  params.num_chains = rng.UniformInt(1, 2);
  params.chain_length = rng.UniformInt(2, 3);
  params.num_predicates = 2;
  params.label_probability = rng.UniformInt(30, 70) / 100.0;
  params.le_probability = rng.UniformInt(0, 40) / 100.0;
  Database db = RandomMonadicDb(params, vocab, rng);
  const int o0 = vocab->MustAddPredicate("O0", {Sort::kObject});
  const int o1 = vocab->MustAddPredicate("O1", {Sort::kObject});
  const int r = vocab->MustAddPredicate("R", {Sort::kObject, Sort::kOrder});
  const int num_objects = rng.UniformInt(1, 3);
  for (int i = 0; i < num_objects; ++i) {
    const int a = db.GetOrAddConstant("a" + std::to_string(i), Sort::kObject);
    for (int pred : {o0, o1}) {
      if (rng.Bernoulli(0.5)) db.AddProperAtom(pred, {{Sort::kObject, a}});
    }
    for (int u = 0; u < db.num_order_constants(); ++u) {
      if (rng.Bernoulli(0.25)) {
        db.AddProperAtom(r, {{Sort::kObject, a}, {Sort::kOrder, u}});
      }
    }
  }

  std::string text;
  const int num_disjuncts = rng.UniformInt(1, 3);
  for (int d = 0; d < num_disjuncts; ++d) {
    std::vector<std::string> vars;
    std::vector<std::string> atoms;
    // The order part: a labelled chain, its edges drawn at random (none
    // leaves the disjunct order-free).
    const int order_vars = rng.Bernoulli(0.15) ? 0 : rng.UniformInt(1, 3);
    for (int v = 0; v < order_vars; ++v) {
      const std::string t = "t" + std::to_string(v);
      vars.push_back(t);
      atoms.push_back("P" + std::to_string(rng.UniformInt(0, 1)) + "(" + t +
                      ")");
      if (v > 0 && rng.Bernoulli(0.5)) {
        atoms.push_back("t" + std::to_string(v - 1) +
                        (rng.Bernoulli(0.3) ? " <= " : " < ") + t);
      }
    }
    // The object-only component, carved off at Prepare.
    switch (order_vars == 0 ? rng.UniformInt(1, 3) : rng.UniformInt(0, 3)) {
      case 1:
        vars.push_back("x");
        atoms.push_back("O" + std::to_string(rng.UniformInt(0, 1)) + "(x)");
        break;
      case 2:
        vars.push_back("x");
        atoms.push_back("O0(x)");
        atoms.push_back("O1(x)");
        break;
      case 3:
        atoms.push_back("O" + std::to_string(rng.UniformInt(0, 1)) + "(a" +
                        std::to_string(rng.UniformInt(0, num_objects - 1)) +
                        ")");
        break;
      default:
        break;
    }
    // An object variable tied to the order part.
    if (order_vars > 0 && rng.Bernoulli(0.3)) {
      vars.push_back("y");
      atoms.push_back("R(y, t" +
                      std::to_string(rng.UniformInt(0, order_vars - 1)) + ")");
      if (rng.Bernoulli(0.5)) atoms.push_back("O0(y)");
    }
    if (d > 0) text += " | ";
    if (!vars.empty()) {
      text += "exists";
      for (const std::string& var : vars) text += " " + var;
      text += ": ";
    }
    for (size_t i = 0; i < atoms.size(); ++i) {
      text += (i > 0 ? " & " : "") + atoms[i];
    }
  }
  Result<Query> query = ParseQuery(text, vocab);
  IODB_CHECK(query.ok());
  return ObjectInstance{std::move(db), std::move(query.value()), text};
}

TEST(ConformanceFuzzTest, ObjectSortedInstancesAgreeWithTheOracle) {
  const std::optional<uint64_t> single = FuzzSingleSeed();
  const int iterations =
      single.has_value() ? 1 : std::max(1, FuzzIterations() / 4);
  constexpr uint64_t kObjectSeedBase = 20261019000ULL;
  // Forced engines that refuse an instance (kUnsupported) do not apply to
  // it; each must still run on part of the corpus.
  std::map<EngineKind, int> ran;
  for (int i = 0; i < iterations; ++i) {
    const uint64_t seed = single.has_value()
                              ? *single
                              : kObjectSeedBase + static_cast<uint64_t>(i);
    auto vocab = std::make_shared<Vocabulary>();
    const ObjectInstance instance = DrawObjectInstance(seed, vocab);
    for (OrderSemantics semantics :
         {OrderSemantics::kFinite, OrderSemantics::kInteger,
          OrderSemantics::kRational}) {
      const std::string repro =
          "=== object-family repro (seed " + std::to_string(seed) +
          ") ===\nrerun: IODB_FUZZ_SEED=" + std::to_string(seed) +
          " ./conformance_fuzz_test "
          "--gtest_filter=*ObjectSortedInstances*\nsemantics: " +
          OrderSemanticsName(semantics) +
          "\n--- database ---\npred O0(object)\npred O1(object)\n"
          "pred R(object, order)\n" +
          ToString(instance.db) + "--- query ---\n" + instance.query_text +
          "\n";
      Result<oracle::Verdict> expected =
          oracle::Decide(instance.db, instance.query, semantics);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString() << "\n"
                                 << repro;
      ASSERT_NE(expected.value(), oracle::Verdict::kInconsistent) << repro;
      const bool entailed = expected.value() == oracle::Verdict::kEntailed;
      for (const bool costed : {false, true}) {
        for (EngineKind engine :
             {EngineKind::kAuto, EngineKind::kBruteForce,
              EngineKind::kDisjunctiveSearch, EngineKind::kBoundedWidth,
              EngineKind::kPathDecomposition, EngineKind::kOrderFree}) {
          EntailOptions options;
          options.semantics = semantics;
          options.engine = engine;
          if (costed) options.planner = stats::PlannerFor(instance.db);
          Result<EntailResult> result =
              Entails(instance.db, instance.query, options);
          if (!result.ok() && engine != EngineKind::kAuto &&
              engine != EngineKind::kBruteForce &&
              result.status().code() == StatusCode::kUnsupported) {
            continue;
          }
          ASSERT_TRUE(result.ok())
              << EngineKindName(engine) << (costed ? " (costed)" : "")
              << " failed: " << result.status().ToString() << "\n"
              << repro;
          ASSERT_EQ(result.value().entailed, entailed)
              << EngineKindName(engine) << (costed ? " (costed)" : "")
              << " disagrees with the oracle ("
              << (entailed ? "ENTAILED" : "NOT ENTAILED") << ")\n"
              << repro;
          ++ran[engine];
        }
      }
    }
  }
  if (!single.has_value()) {
    for (EngineKind engine :
         {EngineKind::kDisjunctiveSearch, EngineKind::kBoundedWidth,
          EngineKind::kPathDecomposition, EngineKind::kOrderFree}) {
      EXPECT_GT(ran[engine], 0) << EngineKindName(engine);
    }
  }
}

}  // namespace
}  // namespace iodb
