#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/model_check.h"
#include "core/parser.h"
#include "workload/generators.h"

namespace iodb {
namespace {

TEST(EngineTest, EngineNamesRoundTrip) {
  for (EngineKind kind :
       {EngineKind::kAuto, EngineKind::kBruteForce,
        EngineKind::kPathDecomposition, EngineKind::kBoundedWidth,
        EngineKind::kDisjunctiveSearch, EngineKind::kOrderFree}) {
    EXPECT_EQ(ParseEngineKind(EngineKindName(kind)), std::optional(kind));
  }
  // Historical CLI shorthands stay accepted.
  EXPECT_EQ(ParseEngineKind("paths"),
            std::optional(EngineKind::kPathDecomposition));
  EXPECT_EQ(ParseEngineKind("disjunctive"),
            std::optional(EngineKind::kDisjunctiveSearch));
  EXPECT_EQ(ParseEngineKind("warp-drive"), std::nullopt);
  EXPECT_EQ(ParseEngineKind(""), std::nullopt);
}

TEST(EngineTest, AutoPicksBoundedWidthForConjunctiveMonadic) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db = ParseDatabase("P(u)\nQ(v)\nu < v", vocab);
  ASSERT_TRUE(db.ok());
  Result<Query> query =
      ParseQuery("exists t1 t2: P(t1) & t1 < t2 & Q(t2)", vocab);
  ASSERT_TRUE(query.ok());
  Result<EntailResult> result = Entails(db.value(), query.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().entailed);
  EXPECT_EQ(result.value().engine_used, EngineKind::kBoundedWidth);
}

TEST(EngineTest, AutoPicksDisjunctiveForDisjunctions) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db =
      ParseDatabase("pred P(order)\npred Q(order)\nP(u)\nQ(v)", vocab);
  ASSERT_TRUE(db.ok());
  // The order atom keeps the query off the order-free route.
  Result<Query> query =
      ParseQuery("exists t r: P(t) & t < r | exists s: Q(s)", vocab);
  ASSERT_TRUE(query.ok());
  Result<EntailResult> result = Entails(db.value(), query.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().entailed);
  EXPECT_EQ(result.value().engine_used, EngineKind::kDisjunctiveSearch);
}

TEST(EngineTest, AutoPicksOrderFreeForOrderFreeDisjunctions) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db =
      ParseDatabase("pred P(order)\npred Q(order)\nP(u)\nQ(v)", vocab);
  ASSERT_TRUE(db.ok());
  Result<Query> query =
      ParseQuery("exists t: P(t) | exists s: Q(s)", vocab);
  ASSERT_TRUE(query.ok());
  Result<EntailResult> result = Entails(db.value(), query.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().entailed);
  EXPECT_EQ(result.value().engine_used, EngineKind::kOrderFree);
}

TEST(EngineTest, ForcedOrderFreeRefusesOrderedQueries) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db =
      ParseDatabase("pred P(order)\npred Q(order)\nP(u)\nQ(v)", vocab);
  ASSERT_TRUE(db.ok());
  EntailOptions options;
  options.engine = EngineKind::kOrderFree;
  for (const char* text : {"exists t s: P(t) & t < s",
                           "exists t s: P(t) & Q(s) & t != s"}) {
    Result<Query> query = ParseQuery(text, vocab);
    ASSERT_TRUE(query.ok());
    Result<EntailResult> result = Entails(db.value(), query.value(), options);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.status().code(), StatusCode::kUnsupported) << text;
  }
}

TEST(EngineTest, OrderFreeCountermodelIsTheDiscreteModel) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db = ParseDatabase(
      "pred P(order)\npred Q(order)\nP(u)\nQ(v)\nu <= v", vocab);
  ASSERT_TRUE(db.ok());
  // P and Q may share a point, but in the discrete model they do not.
  Result<Query> query = ParseQuery("exists t: P(t) & Q(t)", vocab);
  ASSERT_TRUE(query.ok());
  EntailOptions options;
  options.want_countermodel = true;
  Result<EntailResult> result = Entails(db.value(), query.value(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().entailed);
  EXPECT_EQ(result.value().engine_used, EngineKind::kOrderFree);
  ASSERT_TRUE(result.value().countermodel.has_value());
  EXPECT_EQ(result.value().countermodel->num_points, 2);
  // The forced searches agree and find a countermodel of their own.
  options.engine = EngineKind::kBruteForce;
  Result<EntailResult> brute = Entails(db.value(), query.value(), options);
  ASSERT_TRUE(brute.ok());
  EXPECT_FALSE(brute.value().entailed);
}

TEST(EngineTest, AutoPicksBruteForceForNaryPredicates) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db =
      ParseDatabase("pred B(object, order)\nB(a, t1)\nt1 < t2", vocab);
  ASSERT_TRUE(db.ok());
  // The order atom keeps the query off the order-free route.
  Result<Query> query =
      ParseQuery("exists x s r: B(x, s) & s < r", vocab);
  ASSERT_TRUE(query.ok());
  Result<EntailResult> result = Entails(db.value(), query.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().entailed);
  EXPECT_EQ(result.value().engine_used, EngineKind::kBruteForce);
}

TEST(EngineTest, AutoPicksOrderFreeForOrderFreeNaryPredicates) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db =
      ParseDatabase("pred B(object, order)\nB(a, t1)\nt1 < t2", vocab);
  ASSERT_TRUE(db.ok());
  Result<Query> query = ParseQuery("exists x s: B(x, s)", vocab);
  ASSERT_TRUE(query.ok());
  Result<EntailResult> result = Entails(db.value(), query.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().entailed);
  EXPECT_EQ(result.value().engine_used, EngineKind::kOrderFree);
}

TEST(EngineTest, ForcedEngineUnsupportedMismatch) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db =
      ParseDatabase("pred B(object, order)\nB(a, t1)", vocab);
  ASSERT_TRUE(db.ok());
  Result<Query> query = ParseQuery("exists x s: B(x, s)", vocab);
  ASSERT_TRUE(query.ok());
  EntailOptions options;
  options.engine = EngineKind::kBoundedWidth;
  Result<EntailResult> result = Entails(db.value(), query.value(), options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST(EngineTest, InconsistentDatabaseReported) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db = ParseDatabase("u < v\nv < u", vocab);
  ASSERT_TRUE(db.ok());
  Result<Query> query = ParseQuery("exists t1 t2: t1 < t2", vocab);
  ASSERT_TRUE(query.ok());
  Result<EntailResult> result = Entails(db.value(), query.value());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInconsistent);
}

TEST(EngineTest, ObjectPartSplitEvaluatesGroundFacts) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db = ParseDatabase(R"(
    pred Person(object)
    pred P(order)
    Person(alice)
    P(u)
    u < v
  )",
                                      vocab);
  ASSERT_TRUE(db.ok());
  // Object component true + order component true.
  Result<Query> yes =
      ParseQuery("exists x t r: Person(x) & P(t) & t < r", vocab);
  ASSERT_TRUE(yes.ok());
  Result<EntailResult> r1 = Entails(db.value(), yes.value());
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1.value().entailed);
  // The order part runs on a monadic engine despite the object atom.
  EXPECT_EQ(r1.value().engine_used, EngineKind::kBoundedWidth);

  // Without the order atom, the order part left after the split is
  // order-free.
  Result<Query> free = ParseQuery("exists x t: Person(x) & P(t)", vocab);
  ASSERT_TRUE(free.ok());
  Result<EntailResult> r0 = Entails(db.value(), free.value());
  ASSERT_TRUE(r0.ok());
  EXPECT_TRUE(r0.value().entailed);
  EXPECT_EQ(r0.value().engine_used, EngineKind::kOrderFree);

  // Unknown predicates surface as errors during normalization.
  Result<Query> unknown = ParseQuery("exists x t: Dog(x) & P(t)", vocab);
  ASSERT_TRUE(unknown.ok());  // parsing is syntactic
  Result<EntailResult> bad = Entails(db.value(), unknown.value());
  EXPECT_FALSE(bad.ok());

  // Object component false: the disjunct dies.
  vocab->MustAddPredicate("Dog", {Sort::kObject});
  Result<Query> no2 = ParseQuery("exists x t: Dog(x) & P(t)", vocab);
  ASSERT_TRUE(no2.ok());
  Result<EntailResult> r2 = Entails(db.value(), no2.value());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().entailed);
}

TEST(EngineTest, ConstantsInQueries) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db = ParseDatabase("P(u)\nQ(v)\nu < v", vocab);
  ASSERT_TRUE(db.ok());
  // ∃t: u < t ∧ Q(t) — u is the database constant.
  Result<Query> query = ParseQuery("exists t: u < t & Q(t)", vocab);
  ASSERT_TRUE(query.ok());
  Result<EntailResult> r = Entails(db.value(), query.value());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().entailed);

  // ∃t: v < t — nothing is known to be after v.
  Result<Query> query2 = ParseQuery("exists t: v < t & P(t)", vocab);
  ASSERT_TRUE(query2.ok());
  Result<EntailResult> r2 = Entails(db.value(), query2.value());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().entailed);
}

TEST(EngineTest, QueryInequalitiesRewrittenForMonadicEngines) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db = ParseDatabase("P(u)\nP(v)\nu < v", vocab);
  ASSERT_TRUE(db.ok());
  Result<Query> query =
      ParseQuery("exists t1 t2: P(t1) & P(t2) & t1 != t2", vocab);
  ASSERT_TRUE(query.ok());
  Result<EntailResult> r = Entails(db.value(), query.value());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().entailed);
  EXPECT_EQ(r.value().engine_used, EngineKind::kDisjunctiveSearch);

  // Without the strict edge the two P-points may merge: not entailed.
  auto vocab2 = std::make_shared<Vocabulary>();
  Result<Database> db2 = ParseDatabase("P(u)\nP(v)\nu <= v", vocab2);
  ASSERT_TRUE(db2.ok());
  Result<Query> query2 =
      ParseQuery("exists t1 t2: P(t1) & P(t2) & t1 != t2", vocab2);
  ASSERT_TRUE(query2.ok());
  Result<EntailResult> r2 = Entails(db2.value(), query2.value());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().entailed);
}

TEST(EngineTest, DatabaseInequalitiesUseSection7Engine) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db = ParseDatabase("P(u)\nP(v)\nu != v", vocab);
  ASSERT_TRUE(db.ok());
  Result<Query> query =
      ParseQuery("exists t1 t2: P(t1) & P(t2) & t1 < t2", vocab);
  ASSERT_TRUE(query.ok());
  Result<EntailResult> r = Entails(db.value(), query.value());
  ASSERT_TRUE(r.ok());
  // u != v forces two distinct points; one of them is before the other in
  // every model, so the query is entailed. The monadic query over a
  // "!="-database routes to the Section 7 variant of Theorem 5.3.
  EXPECT_TRUE(r.value().entailed);
  EXPECT_EQ(r.value().engine_used, EngineKind::kDisjunctiveSearch);
}

TEST(EngineTest, Section7EngineAgreesWithBruteForceOnNeqDatabases) {
  for (int seed = 0; seed < 30; ++seed) {
    Rng rng(seed + 77000);
    auto vocab = std::make_shared<Vocabulary>();
    MonadicDbParams params;
    params.num_chains = 2;
    params.chain_length = 3;
    params.num_predicates = 2;
    Database db = RandomMonadicDb(params, vocab, rng);
    // Random cross-chain inequalities.
    for (int i = 0; i < 3; ++i) {
      if (rng.Bernoulli(0.6)) {
        db.AddNotEqual("c0_" + std::to_string(rng.UniformInt(0, 2)),
                       "c1_" + std::to_string(rng.UniformInt(0, 2)));
      }
    }
    Query query = RandomDisjunctiveSequentialQuery(
        rng.UniformInt(1, 2), rng.UniformInt(1, 3), 2, 0.3, 0.3, vocab, rng);
    EntailOptions brute;
    brute.engine = EngineKind::kBruteForce;
    Result<EntailResult> reference = Entails(db, query, brute);
    ASSERT_TRUE(reference.ok());
    EntailOptions fast;
    fast.engine = EngineKind::kDisjunctiveSearch;
    Result<EntailResult> result = Entails(db, query, fast);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().entailed, reference.value().entailed)
        << "seed " << seed;
  }
}

TEST(EngineTest, CountermodelRequested) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db =
      ParseDatabase("pred P(order)\npred Q(order)\nP(u)\nQ(v)", vocab);
  ASSERT_TRUE(db.ok());
  Result<Query> query =
      ParseQuery("exists t1 t2: P(t1) & t1 < t2 & Q(t2)", vocab);
  ASSERT_TRUE(query.ok());
  EntailOptions options;
  options.want_countermodel = true;
  Result<EntailResult> r = Entails(db.value(), query.value(), options);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().entailed);
  ASSERT_TRUE(r.value().countermodel.has_value());
  Result<NormQuery> nq = NormalizeQuery(query.value());
  ASSERT_TRUE(nq.ok());
  EXPECT_FALSE(Satisfies(*r.value().countermodel, nq.value()));
}

TEST(EngineTest, TrivialQueryAlwaysEntailed) {
  auto vocab = std::make_shared<Vocabulary>();
  Database db(vocab);
  Query query(vocab);
  query.AddDisjunct();  // empty conjunction = TRUE
  Result<EntailResult> r = Entails(db, query);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().entailed);
}

TEST(EngineTest, ForcedEnginesAgreeOnRandomInstances) {
  for (int seed = 0; seed < 25; ++seed) {
    Rng rng(seed + 31000);
    auto vocab = std::make_shared<Vocabulary>();
    MonadicDbParams params;
    params.num_chains = 2;
    params.chain_length = 3;
    params.num_predicates = 3;
    Database db = RandomMonadicDb(params, vocab, rng);
    Query query =
        RandomConjunctiveMonadicQuery(3, 3, 0.4, 0.4, 0.3, vocab, rng);
    std::optional<bool> reference;
    for (EngineKind kind :
         {EngineKind::kBruteForce, EngineKind::kPathDecomposition,
          EngineKind::kBoundedWidth, EngineKind::kDisjunctiveSearch,
          EngineKind::kAuto}) {
      EntailOptions options;
      options.engine = kind;
      Result<EntailResult> r = Entails(db, query, options);
      ASSERT_TRUE(r.ok());
      if (!reference.has_value()) {
        reference = r.value().entailed;
      } else {
        EXPECT_EQ(r.value().entailed, *reference)
            << "seed " << seed << " engine " << EngineKindName(kind);
      }
    }
  }
}

}  // namespace
}  // namespace iodb
// --- Countermodel enumeration through the facade ----------------------------

#include <set>
#include <string>

#include "core/minimal_models.h"

namespace iodb {
namespace {

TEST(EnumerateCountermodelsTest, MonadicSchedulesMatchBruteForce) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db = ParseDatabase(R"(
    pred A(order)
    pred R(order)
    A(w0a); R(w0r); w0a < w0r
    A(w1a); R(w1r); w1a < w1r
  )",
                                      vocab);
  ASSERT_TRUE(db.ok());
  Result<Query> forbidden =
      ParseQuery("exists t1 t2: R(t1) & t1 < t2 & A(t2)", vocab);
  ASSERT_TRUE(forbidden.ok());

  // Facade enumeration (distinct models).
  std::set<std::string> via_facade;
  Result<long long> reported = EnumerateCountermodels(
      db.value(), forbidden.value(), [&](const FiniteModel& model) {
        via_facade.insert(model.ToString());
        return true;
      });
  ASSERT_TRUE(reported.ok());
  EXPECT_GE(reported.value(), static_cast<long long>(via_facade.size()));

  // Reference: all minimal models falsifying the query.
  Result<NormDb> ndb = Normalize(db.value());
  Result<NormQuery> nq = NormalizeQuery(forbidden.value());
  ASSERT_TRUE(ndb.ok());
  ASSERT_TRUE(nq.ok());
  std::set<std::string> expected;
  ModelVisitor visitor;
  visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
    FiniteModel model = BuildMinimalModel(ndb.value(), groups);
    if (!Satisfies(model, nq.value())) expected.insert(model.ToString());
    return true;
  };
  ForEachMinimalModel(ndb.value(), visitor);
  EXPECT_EQ(via_facade, expected);
  EXPECT_FALSE(expected.empty());  // some valid schedule exists
}

TEST(EnumerateCountermodelsTest, NaryFallback) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db = ParseDatabase(R"(
    pred B(object, order)
    B(a, t1)
    B(b, t2)
  )",
                                      vocab);
  ASSERT_TRUE(db.ok());
  // "a occurs strictly before b": countermodels are the orders where it
  // does not (b <= a): two of the three minimal models.
  Result<Query> query =
      ParseQuery("exists s1 s2: B(a, s1) & s1 < s2 & B(b, s2)", vocab);
  ASSERT_TRUE(query.ok());
  long long distinct = 0;
  Result<long long> reported = EnumerateCountermodels(
      db.value(), query.value(), [&](const FiniteModel&) {
        ++distinct;
        return true;
      });
  ASSERT_TRUE(reported.ok());
  EXPECT_EQ(distinct, 2);
}

TEST(EnumerateCountermodelsTest, EntailedQueryHasNone) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db = ParseDatabase("pred P(order)\nP(u)", vocab);
  ASSERT_TRUE(db.ok());
  Result<Query> query = ParseQuery("exists t: P(t)", vocab);
  ASSERT_TRUE(query.ok());
  Result<long long> reported = EnumerateCountermodels(
      db.value(), query.value(), [](const FiniteModel&) { return true; });
  ASSERT_TRUE(reported.ok());
  EXPECT_EQ(reported.value(), 0);
}

TEST(EnumerateCountermodelsTest, EarlyStopRespected) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db =
      ParseDatabase("pred P(order)\nP(u)\nP(v)\nP(w)", vocab);
  ASSERT_TRUE(db.ok());
  Result<Query> query =
      ParseQuery("exists t1 t2 t3 t4: P(t1) & t1<t2 & P(t2) & t2<t3 & "
                 "P(t3) & t3<t4 & P(t4)",
                 vocab);
  ASSERT_TRUE(query.ok());
  long long seen = 0;
  Result<long long> reported = EnumerateCountermodels(
      db.value(), query.value(), [&](const FiniteModel&) {
        return ++seen < 2;
      });
  ASSERT_TRUE(reported.ok());
  EXPECT_EQ(seen, 2);
}

}  // namespace
}  // namespace iodb
