// Cross-engine agreement: the brute-force minimal-model engine is the
// semantic reference; the SEQ/path engine (Lemma 4.1), the bounded-width
// engine (Theorem 4.7), the disjunctive engine (Theorem 5.3), the
// order-free engine (Proposition 2.8) and the compiled basis (Section 6)
// must agree with it on random instances, and countermodels must
// actually falsify the query. The
// automata engines are also checked against the reference decider
// (tests/oracle/oracle.h), which shares no code with any engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/entail_bounded_width.h"
#include "core/entail_bruteforce.h"
#include "core/entail_disjunctive.h"
#include "core/entail_order_free.h"
#include "core/entail_paths.h"
#include "core/minimal_models.h"
#include "core/model_check.h"
#include "core/wqo.h"
#include "graph/topo.h"
#include "oracle/oracle.h"
#include "workload/generators.h"

namespace iodb {
namespace {

struct Instance {
  NormDb db;
  NormQuery query;
  Database surface_db;
  Query surface_query;
};

// The reference decider's verdict on the instance's surface pair.
bool OracleEntails(const Instance& inst) {
  Result<oracle::Verdict> verdict =
      oracle::Decide(inst.surface_db, inst.surface_query);
  IODB_CHECK(verdict.ok());
  IODB_CHECK(verdict.value() != oracle::Verdict::kInconsistent);
  return verdict.value() == oracle::Verdict::kEntailed;
}

Instance RandomConjunctiveInstance(uint64_t seed) {
  Rng rng(seed);
  auto vocab = std::make_shared<Vocabulary>();
  MonadicDbParams params;
  params.num_chains = rng.UniformInt(1, 3);
  params.chain_length = rng.UniformInt(1, 4);
  params.num_predicates = 3;
  params.label_probability = 0.5;
  params.le_probability = 0.3;
  Database db = RandomMonadicDb(params, vocab, rng);
  Query query = RandomConjunctiveMonadicQuery(
      rng.UniformInt(1, 4), 3, 0.4, 0.4, 0.3, vocab, rng);
  Result<NormDb> ndb = Normalize(db);
  Result<NormQuery> nq = NormalizeQuery(query);
  IODB_CHECK(ndb.ok());
  IODB_CHECK(nq.ok());
  return {std::move(ndb.value()), std::move(nq.value()), std::move(db),
          std::move(query)};
}

Instance RandomDisjunctiveInstance(uint64_t seed) {
  Rng rng(seed + 5000);
  auto vocab = std::make_shared<Vocabulary>();
  MonadicDbParams params;
  params.num_chains = rng.UniformInt(1, 2);
  params.chain_length = rng.UniformInt(1, 4);
  params.num_predicates = 3;
  params.label_probability = 0.6;
  params.le_probability = 0.3;
  Database db = RandomMonadicDb(params, vocab, rng);
  Query query = RandomDisjunctiveSequentialQuery(
      rng.UniformInt(1, 3), rng.UniformInt(1, 3), 3, 0.3, 0.3, vocab, rng);
  Result<NormDb> ndb = Normalize(db);
  Result<NormQuery> nq = NormalizeQuery(query);
  IODB_CHECK(ndb.ok());
  IODB_CHECK(nq.ok());
  return {std::move(ndb.value()), std::move(nq.value()), std::move(db),
          std::move(query)};
}

class ConjunctiveEnginesTest : public ::testing::TestWithParam<int> {};

TEST_P(ConjunctiveEnginesTest, AllEnginesAgree) {
  Instance inst = RandomConjunctiveInstance(GetParam());
  ASSERT_EQ(inst.query.disjuncts.size(), 1u);
  const NormConjunct& conjunct = inst.query.disjuncts[0];

  bool brute = EntailBruteForce(inst.db, inst.query).entailed;
  bool paths = EntailByPaths(inst.db, conjunct).entailed;
  bool bounded = EntailBoundedWidth(inst.db, conjunct).entailed;
  bool disjunctive = EntailDisjunctive(inst.db, inst.query).entailed;
  bool basis =
      CompiledQuery::CompileConjunctive(conjunct).Entails(inst.db);

  EXPECT_EQ(paths, brute) << "seed " << GetParam();
  EXPECT_EQ(bounded, brute) << "seed " << GetParam();
  EXPECT_EQ(disjunctive, brute) << "seed " << GetParam();
  EXPECT_EQ(basis, brute) << "seed " << GetParam();
  if (IsOrderFree(conjunct)) {
    EXPECT_EQ(EntailOrderFree(inst.db, inst.query).entailed, brute)
        << "seed " << GetParam();
  }
}

TEST_P(ConjunctiveEnginesTest, BoundedWidthCountermodelFalsifies) {
  Instance inst = RandomConjunctiveInstance(GetParam());
  const NormConjunct& conjunct = inst.query.disjuncts[0];
  BoundedWidthOutcome outcome = EntailBoundedWidth(inst.db, conjunct, true);
  if (!outcome.entailed) {
    ASSERT_TRUE(outcome.countermodel.has_value());
    EXPECT_FALSE(Satisfies(*outcome.countermodel, inst.query));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConjunctiveEnginesTest,
                         ::testing::Range(0, 80));

class DisjunctiveEngineTest : public ::testing::TestWithParam<int> {};

TEST_P(DisjunctiveEngineTest, AgreesWithBruteForce) {
  Instance inst = RandomDisjunctiveInstance(GetParam());
  bool brute = EntailBruteForce(inst.db, inst.query).entailed;
  DisjunctiveOutcome outcome = EntailDisjunctive(inst.db, inst.query);
  EXPECT_EQ(outcome.entailed, brute) << "seed " << GetParam();
  if (!outcome.entailed) {
    ASSERT_TRUE(outcome.countermodel.has_value());
    EXPECT_FALSE(Satisfies(*outcome.countermodel, inst.query));
  }
  if (std::all_of(inst.query.disjuncts.begin(), inst.query.disjuncts.end(),
                  IsOrderFree)) {
    EXPECT_EQ(EntailOrderFree(inst.db, inst.query).entailed, brute)
        << "seed " << GetParam();
  }
}

TEST_P(DisjunctiveEngineTest, EnumerationMatchesBruteForceCountermodels) {
  Instance inst = RandomDisjunctiveInstance(GetParam());
  // Reference: all minimal models falsifying the query.
  std::set<std::string> expected;
  ModelVisitor visitor;
  visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
    FiniteModel model = BuildMinimalModel(inst.db, groups);
    if (!Satisfies(model, inst.query)) expected.insert(model.ToString());
    return true;
  };
  ForEachMinimalModel(inst.db, visitor);

  // Engine enumeration (may report duplicates; compare as sets).
  std::set<std::string> actual;
  DisjunctiveOptions options;
  options.on_countermodel = [&](const FiniteModel& model) {
    EXPECT_FALSE(Satisfies(model, inst.query));
    actual.insert(model.ToString());
    return true;
  };
  EntailDisjunctive(inst.db, inst.query, options);
  EXPECT_EQ(actual, expected) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisjunctiveEngineTest,
                         ::testing::Range(0, 60));

// Order-free instances: monadic labels plus binary R facts, some of
// them over points no order atom relates, and queries of 1-3 disjuncts
// with no order atom, some with R atoms (the model-checked half of the
// engine).
Instance RandomOrderFreeInstance(uint64_t seed) {
  Rng rng(seed + 9000);
  auto vocab = std::make_shared<Vocabulary>();
  MonadicDbParams params;
  params.num_chains = rng.UniformInt(1, 3);
  params.chain_length = rng.UniformInt(1, 3);
  params.num_predicates = 3;
  params.label_probability = 0.5;
  params.le_probability = 0.3;
  Database db = RandomMonadicDb(params, vocab, rng);
  const int r = vocab->MustAddPredicate("R", {Sort::kOrder, Sort::kOrder});
  const int n = db.num_order_constants();
  for (int k = rng.UniformInt(0, 3); k > 0; --k) {
    db.AddProperAtom(r, {{Sort::kOrder, rng.UniformInt(0, n - 1)},
                         {Sort::kOrder, rng.UniformInt(0, n - 1)}});
  }
  Query query(vocab);
  for (int d = rng.UniformInt(1, 3); d > 0; --d) {
    QueryConjunct& conjunct = query.AddDisjunct();
    const int vars = rng.UniformInt(1, 3);
    for (int v = 0; v < vars; ++v) {
      const std::string var = "t" + std::to_string(v);
      conjunct.Exists(var);
      for (int p = 0; p < 3; ++p) {
        if (rng.Bernoulli(0.4)) conjunct.Atom("P" + std::to_string(p), {var});
      }
    }
    if (rng.Bernoulli(0.4)) {
      conjunct.Atom("R", {"t" + std::to_string(rng.UniformInt(0, vars - 1)),
                          "t" + std::to_string(rng.UniformInt(0, vars - 1))});
    }
  }
  Result<NormDb> ndb = Normalize(db);
  Result<NormQuery> nq = NormalizeQuery(query);
  IODB_CHECK(ndb.ok());
  IODB_CHECK(nq.ok());
  return {std::move(ndb.value()), std::move(nq.value()), std::move(db),
          std::move(query)};
}

class OrderFreeEngineTest : public ::testing::TestWithParam<int> {};

TEST_P(OrderFreeEngineTest, AgreesWithBruteForceAndOracle) {
  Instance inst = RandomOrderFreeInstance(GetParam());
  const bool brute = EntailBruteForce(inst.db, inst.query).entailed;
  OrderFreeOutcome outcome =
      EntailOrderFree(inst.db, inst.query, /*want_countermodel=*/true);
  EXPECT_EQ(outcome.entailed, brute) << "seed " << GetParam();
  EXPECT_EQ(outcome.entailed, OracleEntails(inst)) << "seed " << GetParam();
  // The countermodel is the discrete minimal model.
  EXPECT_EQ(outcome.countermodel.has_value(), !outcome.entailed);
  if (!outcome.entailed) {
    EXPECT_FALSE(Satisfies(*outcome.countermodel, inst.query));
    EXPECT_EQ(outcome.countermodel->num_points, inst.db.num_points());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderFreeEngineTest, ::testing::Range(0, 60));

TEST(MonotonicityTest, AddingFactsPreservesEntailment) {
  // D ⊆ D' (atomwise) and D |= Φ imply D' |= Φ.
  for (int seed = 0; seed < 25; ++seed) {
    Rng rng(seed + 900);
    auto vocab = std::make_shared<Vocabulary>();
    MonadicDbParams params;
    params.num_chains = 2;
    params.chain_length = 3;
    params.num_predicates = 3;
    Database db = RandomMonadicDb(params, vocab, rng);
    Query query = RandomConjunctiveMonadicQuery(3, 3, 0.4, 0.4, 0.3, vocab,
                                                rng);
    Result<NormQuery> nq = NormalizeQuery(query);
    ASSERT_TRUE(nq.ok());
    Result<NormDb> before = Normalize(db);
    ASSERT_TRUE(before.ok());
    bool entailed_before =
        EntailBruteForce(before.value(), nq.value()).entailed;

    // Extend with extra facts and order atoms.
    Database extended = db;
    extended.AddOrder("c0_0", OrderRel::kLe, "extra");
    ASSERT_TRUE(extended.AddFact("P0", {"extra"}).ok());
    ASSERT_TRUE(extended.AddFact("P1", {"c0_0"}).ok());
    Result<NormDb> after = Normalize(extended);
    ASSERT_TRUE(after.ok());
    bool entailed_after =
        EntailBruteForce(after.value(), nq.value()).entailed;
    if (entailed_before) {
      EXPECT_TRUE(entailed_after) << "seed " << seed;
    }
  }
}

TEST(BruteForceTest, PruningDoesNotChangeVerdict) {
  for (int seed = 0; seed < 25; ++seed) {
    Instance inst = RandomDisjunctiveInstance(seed + 4242);
    BruteForceOptions no_prune;
    no_prune.prune_satisfied_prefix = false;
    EXPECT_EQ(EntailBruteForce(inst.db, inst.query).entailed,
              EntailBruteForce(inst.db, inst.query, no_prune).entailed)
        << "seed " << seed;
  }
}

TEST(BruteForceTest, TrivialQueryShortCircuits) {
  Instance inst = RandomConjunctiveInstance(1);
  NormQuery trivial;
  trivial.vocab = inst.query.vocab;
  trivial.trivially_true = true;
  BruteForceOutcome outcome = EntailBruteForce(inst.db, trivial);
  EXPECT_TRUE(outcome.entailed);
  EXPECT_EQ(outcome.models_enumerated, 0);
}

TEST(BruteForceTest, FalseQueryYieldsCountermodel) {
  Instance inst = RandomConjunctiveInstance(2);
  NormQuery false_query;
  false_query.vocab = inst.query.vocab;  // zero disjuncts
  BruteForceOutcome outcome = EntailBruteForce(inst.db, false_query);
  EXPECT_FALSE(outcome.entailed);
  EXPECT_TRUE(outcome.countermodel.has_value());
}

TEST(BoundedWidthTest, EmptyDatabase) {
  auto vocab = std::make_shared<Vocabulary>();
  DeclareMonadicPredicates(*vocab, 2);
  Database db(vocab);
  Result<NormDb> norm = Normalize(db);
  ASSERT_TRUE(norm.ok());
  PredSet label;
  label.Add(0);
  FlexiWord pattern;
  pattern.symbols.push_back(label);
  NormConjunct conjunct = ConjunctOfFlexiWord(pattern, 2);
  BoundedWidthOutcome outcome =
      EntailBoundedWidth(norm.value(), conjunct, true);
  EXPECT_FALSE(outcome.entailed);
  ASSERT_TRUE(outcome.countermodel.has_value());
  EXPECT_EQ(outcome.countermodel->num_points, 0);
}

// ---------------------------------------------------------------------------
// The reachability paths of the automata engines: verdicts against the
// reference decider where it fits, against SEQ (Lemma 4.2, which shares no
// search or reachability code with them) past its size bound.
// ---------------------------------------------------------------------------

// Width-2 instances with > 64 points: exercises the interval-probe and
// push/pop-counter paths that the word-mask fast path cannot serve.
Instance LargeConjunctiveInstance(uint64_t seed) {
  Rng rng(seed + 77000);
  auto vocab = std::make_shared<Vocabulary>();
  MonadicDbParams params;
  params.num_chains = 2;
  params.chain_length = 40;
  params.num_predicates = 3;
  params.label_probability = 0.5;
  params.le_probability = 0.3;
  Database db = RandomMonadicDb(params, vocab, rng);
  Query query = RandomConjunctiveMonadicQuery(
      rng.UniformInt(2, 5), 3, 0.4, 0.4, 0.3, vocab, rng);
  Result<NormDb> ndb = Normalize(db);
  Result<NormQuery> nq = NormalizeQuery(query);
  IODB_CHECK(ndb.ok());
  IODB_CHECK(nq.ok());
  return {std::move(ndb.value()), std::move(nq.value()), std::move(db),
          std::move(query)};
}

TEST_P(ConjunctiveEnginesTest, BoundedWidthIncrementalMatchesOracle) {
  Instance inst = RandomConjunctiveInstance(GetParam());
  BoundedWidthOutcome outcome = EntailBoundedWidth(
      inst.db, inst.query.disjuncts[0], /*want_countermodel=*/true);
  EXPECT_EQ(outcome.entailed, OracleEntails(inst)) << "seed " << GetParam();
  if (!outcome.entailed) {
    EXPECT_GT(outcome.check_stats.reach_probes, 0) << "seed " << GetParam();
  }
}

TEST_P(DisjunctiveEngineTest, IncrementalMatchesOraclePath) {
  Instance inst = RandomDisjunctiveInstance(GetParam());
  EXPECT_EQ(EntailDisjunctive(inst.db, inst.query).entailed,
            OracleEntails(inst))
      << "seed " << GetParam();
}

class LargeInstanceTest : public ::testing::TestWithParam<int> {};

TEST_P(LargeInstanceTest, BoundedWidthCounterPathMatchesOracle) {
  Instance inst = LargeConjunctiveInstance(GetParam());
  ASSERT_GT(inst.db.num_points(), 64);
  const NormConjunct& conjunct = inst.query.disjuncts[0];
  BoundedWidthOutcome outcome =
      EntailBoundedWidth(inst.db, conjunct, /*want_countermodel=*/true);
  EXPECT_EQ(outcome.entailed, EntailByPaths(inst.db, conjunct).entailed)
      << "seed " << GetParam();
  if (!outcome.entailed) {
    ASSERT_TRUE(outcome.countermodel.has_value());
    EXPECT_FALSE(Satisfies(*outcome.countermodel, inst.query))
        << "seed " << GetParam();
  }
}

TEST_P(LargeInstanceTest, DisjunctiveIntervalPathMatchesOracle) {
  Instance inst = LargeConjunctiveInstance(GetParam() + 500);
  ASSERT_GT(inst.db.num_points(), 64);
  DisjunctiveOutcome outcome = EntailDisjunctive(inst.db, inst.query);
  EXPECT_EQ(outcome.entailed,
            EntailByPaths(inst.db, inst.query.disjuncts[0]).entailed)
      << "seed " << GetParam();
  if (!outcome.entailed) {
    ASSERT_TRUE(outcome.countermodel.has_value());
    EXPECT_FALSE(Satisfies(*outcome.countermodel, inst.query))
        << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LargeInstanceTest, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Cross-revision context reuse: an append that extends the dag at its
// tail grows the previous revision's index (no rebuild); a divergent
// re-normalization falls back to a fresh build. Either way the answers
// match the dag's transitive closure.
// ---------------------------------------------------------------------------

void ExpectContextMatchesClosure(const NormDb& db,
                                 const EnumerationContext& ctx) {
  Reachability closure = ComputeReachability(db.dag);
  for (int u = 0; u < db.num_points(); ++u) {
    for (int v = 0; v < db.num_points(); ++v) {
      EXPECT_EQ(ctx.Reaches(u, v), closure.reach.Get(u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

TEST(SharedContextReuseTest, SmallDagDerivesMasksFromClosure) {
  // At mask width (<= 64 points) the context skips the index entirely:
  // the dense closure is the cheaper build and the word masks answer
  // every probe. One build is still reported through index_rebuilds().
  auto vocab = std::make_shared<Vocabulary>();
  Database db(vocab);
  for (int i = 0; i + 1 < 6; ++i) {
    db.AddOrder("a" + std::to_string(i),
                i % 2 == 0 ? OrderRel::kLt : OrderRel::kLe,
                "a" + std::to_string(i + 1));
  }
  Result<const NormDb*> view = db.NormView();
  ASSERT_TRUE(view.ok());
  auto ctx = SharedEnumerationContext(*view.value());
  EXPECT_EQ(ctx->index, nullptr);
  EXPECT_TRUE(ctx->has_masks);
  EXPECT_EQ(ctx->index_rebuilds(), 1);
  ExpectContextMatchesClosure(*view.value(), *ctx);
}

// A 66-point chain a0 < a1 <= a2 < ... — just past mask width, so the
// context runs on the interval-list index and the cross-revision reuse
// machinery engages.
Database LongChainDb(std::shared_ptr<Vocabulary> vocab, int n) {
  Database db(std::move(vocab));
  for (int i = 0; i + 1 < n; ++i) {
    db.AddOrder("a" + std::to_string(i),
                i % 2 == 0 ? OrderRel::kLt : OrderRel::kLe,
                "a" + std::to_string(i + 1));
  }
  return db;
}

TEST(SharedContextReuseTest, TailAppendGrowsPreviousIndex) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = LongChainDb(vocab, 66);
  Result<const NormDb*> view1 = db.NormView();
  ASSERT_TRUE(view1.ok());
  auto ctx1 = SharedEnumerationContext(*view1.value());
  ASSERT_NE(ctx1->index, nullptr);
  EXPECT_EQ(ctx1->index->rebuilds(), 1);

  // Tail append: new points, edges lexicographically after the old ones.
  db.AddOrder("a65", OrderRel::kLt, "b0");
  db.AddOrder("b0", OrderRel::kLe, "b1");
  Result<const NormDb*> view2 = db.NormView();
  ASSERT_TRUE(view2.ok());
  auto ctx2 = SharedEnumerationContext(*view2.value());
  ASSERT_NE(ctx2->index, nullptr);
  EXPECT_EQ(ctx2->index->rebuilds(), 1) << "append should not rebuild";
  EXPECT_EQ(ctx2->index->delta_edges(), 2u);
  ExpectContextMatchesClosure(*view2.value(), *ctx2);
  // The memoized slot now holds the grown context.
  EXPECT_EQ(SharedEnumerationContext(*view2.value()).get(), ctx2.get());
}

TEST(SharedContextReuseTest, DivergentRenormalizationRebuilds) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db = LongChainDb(vocab, 66);
  db.AddOrder("m1", OrderRel::kLt, "a0");
  db.AddOrder("m2", OrderRel::kLt, "a0");
  Result<const NormDb*> view1 = db.NormView();
  ASSERT_TRUE(view1.ok());
  auto ctx1 = SharedEnumerationContext(*view1.value());
  ASSERT_NE(ctx1->index, nullptr);
  const int points1 = view1.value()->num_points();

  // Merging m1 and m2 (m1 <= m2 <= m1) renumbers points: the old edge
  // log is no longer a prefix, so the context is rebuilt from scratch.
  db.AddOrder("m1", OrderRel::kLe, "m2");
  db.AddOrder("m2", OrderRel::kLe, "m1");
  Result<const NormDb*> view2 = db.NormView();
  ASSERT_TRUE(view2.ok());
  auto ctx2 = SharedEnumerationContext(*view2.value());
  ASSERT_NE(ctx2->index, nullptr);
  EXPECT_EQ(ctx2->index->rebuilds(), 1);
  EXPECT_EQ(ctx2->index->delta_edges(), 0u);
  EXPECT_EQ(view2.value()->num_points(), points1 - 1);
  ExpectContextMatchesClosure(*view2.value(), *ctx2);
}

}  // namespace
}  // namespace iodb
