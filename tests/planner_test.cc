// Cost-plan pass tests: the QueryPlanner seam of Prepare() (core/planner.h)
// and the statistics-backed CostModel behind it (src/stats/cost_model.h).
//
// The pass contract under test: planner proposals are strictly advisory —
// Prepare() applies only valid schedules (permutations that are linear
// extensions of the disjunct dag), only genuine disjunct permutations,
// and engine suggestions only under kAuto — and whatever the planner
// says, verdicts never change.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/planner.h"
#include "core/prepare.h"
#include "stats/cost_model.h"
#include "stats/stats.h"

namespace iodb {
namespace {

// A planner that returns a canned choice, for exercising the validation
// paths of the cost-plan pass in isolation.
class StubPlanner : public QueryPlanner {
 public:
  QueryPlanChoice choice;
  uint64_t fp = 0x5EED;

  QueryPlanChoice PlanQuery(
      const std::vector<NormConjunct>&) const override {
    return choice;
  }
  uint64_t fingerprint() const override { return fp; }
};

VocabularyPtr MonadicVocab() {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("P", {Sort::kOrder});
  vocab->MustAddPredicate("Q", {Sort::kOrder});
  vocab->MustAddPredicate("R", {Sort::kOrder});
  return vocab;
}

// exists t1 t2: P(t1) & Q(t2) — two independent order variables, so
// every permutation of the schedule is a valid linear extension.
Query FreeVarsQuery(const VocabularyPtr& vocab) {
  Query query(vocab);
  query.AddDisjunct().Exists("t1").Exists("t2").Atom("P", {"t1"}).Atom(
      "Q", {"t2"});
  return query;
}

// exists t1 t2: P(t1) & t1 < t2 & Q(t2) — a chain, so the only linear
// extension is the default one.
Query ChainQuery(const VocabularyPtr& vocab) {
  Query query(vocab);
  query.AddDisjunct()
      .Exists("t1")
      .Exists("t2")
      .Atom("P", {"t1"})
      .Order("t1", OrderRel::kLt, "t2")
      .Atom("Q", {"t2"});
  return query;
}

// The default (planner-free) order-variable schedule of disjunct d.
std::vector<int> DefaultSequence(const PreparedQuery& plan, size_t d) {
  std::vector<int> seq;
  for (const auto& [sort, id] : plan.disjuncts()[d].compiled.var_order) {
    if (sort == Sort::kOrder) seq.push_back(id);
  }
  return seq;
}

TEST(CostPlanPass, ValidNonDefaultScheduleIsApplied) {
  VocabularyPtr vocab = MonadicVocab();
  Query query = FreeVarsQuery(vocab);
  PreparedQuery base = MustPrepare(vocab, query);
  std::vector<int> swapped = DefaultSequence(base, 0);
  ASSERT_EQ(swapped.size(), 2u);
  std::swap(swapped[0], swapped[1]);

  auto stub = std::make_shared<StubPlanner>();
  stub->choice.disjuncts = {DisjunctCost{swapped, 42.0}};
  EntailOptions options;
  options.planner = stub;
  PreparedQuery plan = MustPrepare(vocab, query, options);

  EXPECT_TRUE(plan.disjuncts()[0].costed_schedule);
  EXPECT_EQ(DefaultSequence(plan, 0), swapped);
  EXPECT_DOUBLE_EQ(plan.disjuncts()[0].est_cost, 42.0);
  EXPECT_EQ(plan.PlanChoiceSummary(), "costed(sched=1/1,reorder=no)");
  const PassRecord& record = plan.passes().back();
  EXPECT_EQ(record.id, QueryPassId::kCostPlan);
  EXPECT_TRUE(record.applied);
}

TEST(CostPlanPass, IdentityScheduleIsNotCountedAsCosted) {
  VocabularyPtr vocab = MonadicVocab();
  Query query = FreeVarsQuery(vocab);
  PreparedQuery base = MustPrepare(vocab, query);

  auto stub = std::make_shared<StubPlanner>();
  stub->choice.disjuncts = {DisjunctCost{DefaultSequence(base, 0), 7.0}};
  EntailOptions options;
  options.planner = stub;
  PreparedQuery plan = MustPrepare(vocab, query, options);

  EXPECT_FALSE(plan.disjuncts()[0].costed_schedule);
  EXPECT_EQ(plan.PlanChoiceSummary(), "default");
  // The estimate is still recorded for explain output.
  EXPECT_DOUBLE_EQ(plan.disjuncts()[0].est_cost, 7.0);
}

TEST(CostPlanPass, InvalidSchedulesAreIgnored) {
  VocabularyPtr vocab = MonadicVocab();
  Query query = ChainQuery(vocab);
  PreparedQuery base = MustPrepare(vocab, query);
  std::vector<int> reversed = DefaultSequence(base, 0);
  ASSERT_EQ(reversed.size(), 2u);
  std::reverse(reversed.begin(), reversed.end());

  const std::vector<std::vector<int>> bad_sequences = {
      {0},            // wrong length
      {0, 0},         // not a permutation
      {0, 7},         // out of range
      reversed,       // a permutation but not a linear extension
  };
  for (const std::vector<int>& seq : bad_sequences) {
    auto stub = std::make_shared<StubPlanner>();
    stub->choice.disjuncts = {DisjunctCost{seq, 1.0}};
    EntailOptions options;
    options.planner = stub;
    PreparedQuery plan = MustPrepare(vocab, query, options);
    EXPECT_FALSE(plan.disjuncts()[0].costed_schedule);
    EXPECT_EQ(DefaultSequence(plan, 0), DefaultSequence(base, 0));
    EXPECT_EQ(plan.PlanChoiceSummary(), "default");
  }

  // A per-disjunct size mismatch discards the whole proposal.
  auto stub = std::make_shared<StubPlanner>();
  stub->choice.disjuncts = {};
  EntailOptions options;
  options.planner = stub;
  PreparedQuery plan = MustPrepare(vocab, query, options);
  EXPECT_EQ(plan.PlanChoiceSummary(), "default");
  EXPECT_LT(plan.disjuncts()[0].est_cost, 0);  // nothing recorded
}

TEST(CostPlanPass, DisjunctReorderAppliedAndValidated) {
  VocabularyPtr vocab = MonadicVocab();
  Query query(vocab);
  query.AddDisjunct().Exists("t").Atom("P", {"t"});
  query.AddDisjunct().Exists("t").Atom("Q", {"t"});

  auto stub = std::make_shared<StubPlanner>();
  stub->choice.disjuncts = {DisjunctCost{{}, 9.0}, DisjunctCost{{}, 2.0}};
  stub->choice.disjunct_order = {1, 0};
  EntailOptions options;
  options.planner = stub;
  PreparedQuery plan = MustPrepare(vocab, query, options);

  // The cheap disjunct (the Q one) moved to the front, carrying its
  // recorded estimate with it.
  ASSERT_EQ(plan.disjuncts().size(), 2u);
  EXPECT_DOUBLE_EQ(plan.disjuncts()[0].est_cost, 2.0);
  EXPECT_DOUBLE_EQ(plan.disjuncts()[1].est_cost, 9.0);
  EXPECT_EQ(plan.PlanChoiceSummary(), "costed(sched=0/2,reorder=yes)");

  // A non-permutation order is ignored.
  for (const std::vector<int>& bad : {std::vector<int>{0, 0},
                                      std::vector<int>{1, 2},
                                      std::vector<int>{0}}) {
    auto bad_stub = std::make_shared<StubPlanner>();
    bad_stub->choice.disjuncts = {DisjunctCost{{}, 9.0},
                                  DisjunctCost{{}, 2.0}};
    bad_stub->choice.disjunct_order = bad;
    EntailOptions bad_options;
    bad_options.planner = bad_stub;
    PreparedQuery unchanged = MustPrepare(vocab, query, bad_options);
    EXPECT_DOUBLE_EQ(unchanged.disjuncts()[0].est_cost, 9.0);
    EXPECT_EQ(unchanged.PlanChoiceSummary(), "default");
  }
}

TEST(CostPlanPass, EngineSuggestionHonoredOnlyUnderAuto) {
  VocabularyPtr vocab = MonadicVocab();
  Query query = ChainQuery(vocab);

  auto stub = std::make_shared<StubPlanner>();
  stub->choice.engine = EngineKind::kBruteForce;

  EntailOptions auto_options;
  auto_options.planner = stub;
  PreparedQuery routed = MustPrepare(vocab, query, auto_options);
  EXPECT_EQ(routed.PlanChoiceSummary(),
            "costed(sched=0/1,reorder=no,engine=brute-force)");

  // A forced engine wins over any suggestion.
  EntailOptions forced_options;
  forced_options.planner = stub;
  forced_options.engine = EngineKind::kBoundedWidth;
  PreparedQuery forced = MustPrepare(vocab, query, forced_options);
  EXPECT_EQ(forced.PlanChoiceSummary(), "default");
}

TEST(CostPlanPass, ExplainShowsCostPlanProvenance) {
  VocabularyPtr vocab = MonadicVocab();
  Query query = ChainQuery(vocab);
  auto stub = std::make_shared<StubPlanner>();
  stub->choice.engine = EngineKind::kBruteForce;
  stub->choice.detail = "stub oracle";
  EntailOptions options;
  options.planner = stub;
  PreparedQuery plan = MustPrepare(vocab, query, options);

  const std::string text = plan.Explain();
  EXPECT_NE(text.find("cost-plan"), std::string::npos);
  EXPECT_NE(text.find("stub oracle"), std::string::npos);
  EXPECT_NE(text.find("plan-choice: costed("), std::string::npos);
  EXPECT_NE(text.find("(costed route, where applicable)"),
            std::string::npos);
}

// The order-free route outranks an engine suggestion: the outcome keeps
// the suggestion, but the plan runs, explains and summarizes the route.
TEST(CostPlanPass, OrderFreeRouteOutranksEngineSuggestion) {
  VocabularyPtr vocab = MonadicVocab();
  Query query = FreeVarsQuery(vocab);
  auto stub = std::make_shared<StubPlanner>();
  stub->choice.engine = EngineKind::kBruteForce;
  EntailOptions options;
  options.planner = stub;
  PreparedQuery plan = MustPrepare(vocab, query, options);

  EXPECT_EQ(plan.cost_outcome().engine, EngineKind::kBruteForce);
  EXPECT_EQ(plan.planned_engine(), EngineKind::kOrderFree);
  EXPECT_EQ(plan.ExpectedEngine(), EngineKind::kOrderFree);
  EXPECT_EQ(plan.PlanChoiceSummary(),
            "costed(sched=0/1,reorder=no,engine=order-free)");
  EXPECT_NE(plan.Explain().find(
                "dispatch: order-free (outranks the costed route "
                "brute-force)"),
            std::string::npos)
      << plan.Explain();

  Database db(vocab);
  ASSERT_TRUE(db.AddFact("P", {"u"}).ok());
  ASSERT_TRUE(db.AddFact("Q", {"v"}).ok());
  db.AddOrder("v", OrderRel::kLt, "u");
  Result<EntailResult> result = plan.Evaluate(db);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().entailed);
  EXPECT_EQ(result.value().engine_used, EngineKind::kOrderFree);

  // The chain query keeps the costed route.
  PreparedQuery chain = MustPrepare(vocab, ChainQuery(vocab), options);
  EXPECT_EQ(chain.ExpectedEngine(), EngineKind::kBruteForce);
}

// FingerprintPlanInputs, a digest for tools, covers the planner too.
// Plan caches do not key on it; see CostPlanOutcomeTest below.
TEST(CostPlanPass, PlannerFingerprintRekeysThePlan) {
  VocabularyPtr vocab = MonadicVocab();
  Query query = ChainQuery(vocab);

  EntailOptions off;
  auto a = std::make_shared<StubPlanner>();
  a->fp = 1;
  auto b = std::make_shared<StubPlanner>();
  b->fp = 2;
  auto b_again = std::make_shared<StubPlanner>();
  b_again->fp = 2;
  EntailOptions with_a = off;
  with_a.planner = a;
  EntailOptions with_b = off;
  with_b.planner = b;
  EntailOptions with_b_again = off;
  with_b_again.planner = b_again;

  const uint64_t fp_off = FingerprintPlanInputs(query, off);
  const uint64_t fp_a = FingerprintPlanInputs(query, with_a);
  const uint64_t fp_b = FingerprintPlanInputs(query, with_b);
  EXPECT_NE(fp_off, fp_a);
  EXPECT_NE(fp_a, fp_b);
  // The planner object's identity does not matter, its fingerprint does.
  EXPECT_EQ(fp_b, FingerprintPlanInputs(query, with_b_again));
}

// Plan identity is what the cost-plan pass accepted, not which planner
// proposed it: caches share a plan between planners whose outcomes match.
TEST(CostPlanOutcomeTest, EqualAcceptedChoicesGiveEqualOutcomes) {
  VocabularyPtr vocab = MonadicVocab();
  Query query = FreeVarsQuery(vocab);
  const PreparedQuery off = MustPrepare(vocab, query);
  std::vector<int> swapped = DefaultSequence(off, 0);
  ASSERT_EQ(swapped.size(), 2u);
  std::swap(swapped[0], swapped[1]);
  auto plan_with = [&](uint64_t fp, const std::vector<int>& seq, double est) {
    auto stub = std::make_shared<StubPlanner>();
    stub->fp = fp;
    stub->choice.disjuncts = {DisjunctCost{seq, est}};
    stub->choice.detail = "stub " + std::to_string(fp);
    EntailOptions options;
    options.planner = stub;
    return MustPrepare(vocab, query, options);
  };
  const PreparedQuery a = plan_with(1, swapped, 5.0);
  const PreparedQuery b = plan_with(2, swapped, 99.0);
  const PreparedQuery c = plan_with(3, DefaultSequence(off, 0), 5.0);
  const PreparedQuery d = plan_with(4, {}, -1.0);

  EXPECT_EQ(a.cost_outcome(), b.cost_outcome());  // estimates differ
  EXPECT_EQ(a.cost_outcome().schedules,
            (std::vector<std::vector<int>>{swapped}));
  EXPECT_NE(a.cost_outcome(), c.cost_outcome());
  // Proposing the default schedule and proposing nothing accept the same.
  EXPECT_EQ(c.cost_outcome(), d.cost_outcome());
  // Costing on never equals costing off, even when nothing was accepted.
  EXPECT_TRUE(c.cost_outcome().planned);
  EXPECT_FALSE(off.cost_outcome().planned);
  EXPECT_NE(c.cost_outcome(), off.cost_outcome());
}

TEST(CostPlanOutcomeTest, ReorderAndEngineRouteArePartOfTheOutcome) {
  VocabularyPtr vocab = MonadicVocab();
  Query query(vocab);
  query.AddDisjunct().Exists("t").Atom("P", {"t"});
  query.AddDisjunct().Exists("t").Atom("Q", {"t"});
  auto plan_with = [&](std::vector<int> order, EngineKind engine) {
    auto stub = std::make_shared<StubPlanner>();
    stub->choice.disjuncts = {DisjunctCost{{}, 1.0}, DisjunctCost{{}, 2.0}};
    stub->choice.disjunct_order = std::move(order);
    stub->choice.engine = engine;
    EntailOptions options;
    options.planner = stub;
    return MustPrepare(vocab, query, options);
  };
  const PreparedQuery plain = plan_with({}, EngineKind::kAuto);
  const PreparedQuery reordered = plan_with({1, 0}, EngineKind::kAuto);
  const PreparedQuery routed = plan_with({}, EngineKind::kBruteForce);
  EXPECT_EQ(reordered.cost_outcome().disjunct_order,
            (std::vector<int>{1, 0}));
  EXPECT_EQ(routed.cost_outcome().engine, EngineKind::kBruteForce);
  EXPECT_NE(plain.cost_outcome(), reordered.cost_outcome());
  EXPECT_NE(plain.cost_outcome(), routed.cost_outcome());
  EXPECT_NE(reordered.cost_outcome(), routed.cost_outcome());
  // The identity permutation is not a reorder.
  EXPECT_EQ(plan_with({0, 1}, EngineKind::kAuto).cost_outcome(),
            plain.cost_outcome());
}

// A plan shared between planners explains with the estimates and
// provenance of the planner it is explained for.
TEST(CostPlanOutcomeTest, ExplainRecostsWithTheGivenPlanner) {
  VocabularyPtr vocab = MonadicVocab();
  Query query = ChainQuery(vocab);
  auto first = std::make_shared<StubPlanner>();
  first->choice.disjuncts = {DisjunctCost{{}, 5.0}};
  first->choice.detail = "first oracle";
  auto second = std::make_shared<StubPlanner>();
  second->choice.disjuncts = {DisjunctCost{{}, 99.0}};
  second->choice.detail = "second oracle";
  EntailOptions options;
  options.planner = first;
  const PreparedQuery plan = MustPrepare(vocab, query, options);
  const EntailResult result;

  const std::string own = plan.Explain(result, nullptr);
  EXPECT_EQ(own, plan.Explain(result));
  EXPECT_NE(own.find("first oracle"), std::string::npos);
  EXPECT_NE(own.find("est-cost=5"), std::string::npos);

  const std::string recost = plan.Explain(result, second.get());
  EXPECT_EQ(recost.find("first oracle"), std::string::npos) << recost;
  EXPECT_NE(recost.find("second oracle"), std::string::npos) << recost;
  EXPECT_NE(recost.find("est-cost=99"), std::string::npos) << recost;
  EXPECT_NE(recost.find("est-assignments       99"), std::string::npos)
      << recost;

  // A costing-off plan has no estimates to recompute.
  const PreparedQuery off = MustPrepare(vocab, query);
  EXPECT_EQ(off.Explain(result, second.get()), off.Explain(result));
}

// --- the real cost model ---------------------------------------------------

// points order points in one strict chain c0 < c1 < ... ; Rare labels
// only c0, Common labels every point.
Database SkewedChain(VocabularyPtr vocab, int points) {
  Database db(vocab);
  for (int i = 0; i + 1 < points; ++i) {
    db.AddOrder("c" + std::to_string(i), OrderRel::kLt,
                "c" + std::to_string(i + 1));
  }
  EXPECT_TRUE(db.AddFact("Rare", {"c0"}).ok());
  for (int i = 0; i < points; ++i) {
    EXPECT_TRUE(db.AddFact("Common", {"c" + std::to_string(i)}).ok());
  }
  return db;
}

VocabularyPtr SkewedVocab() {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("Rare", {Sort::kOrder});
  vocab->MustAddPredicate("Common", {Sort::kOrder});
  return vocab;
}

TEST(CostModelTest, SchedulesSelectiveLabelFirst) {
  VocabularyPtr vocab = SkewedVocab();
  Database db = SkewedChain(vocab, 12);
  stats::CostModel model(stats::StatsFor(db));

  // exists t1 t2: Common(t1) & Rare(t2) — independent variables, so the
  // greedy schedule is free to pick the selective one first.
  Query query(vocab);
  query.AddDisjunct().Exists("t1").Exists("t2").Atom("Common", {"t1"}).Atom(
      "Rare", {"t2"});
  PreparedQuery prepared = MustPrepare(vocab, query);
  const NormConjunct& conjunct = prepared.reduced(0);
  ASSERT_EQ(conjunct.num_order_vars(), 2);

  std::vector<int> sequence;
  const double cost = model.EstimateConjunct(conjunct, &sequence);
  ASSERT_EQ(sequence.size(), 2u);
  // The first scheduled variable is the one labeled Rare (1 candidate
  // point out of 12).
  int rare_pred = -1;
  for (int p = 0; p < vocab->num_predicates(); ++p) {
    if (vocab->predicate(p).name == "Rare") rare_pred = p;
  }
  ASSERT_GE(rare_pred, 0);
  const std::vector<int> first_labels =
      conjunct.labels[sequence[0]].Elements();
  ASSERT_EQ(first_labels.size(), 1u);
  EXPECT_EQ(first_labels[0], rare_pred);
  // Scheduling rare-first keeps the left-deep products small: 1 + 1*12,
  // versus 12 + 12*1 the other way.
  EXPECT_GT(cost, 0.0);
  EXPECT_LT(cost, 12.0 + 12.0);
}

TEST(CostModelTest, OrdersDisjunctsCheapestFirst) {
  VocabularyPtr vocab = SkewedVocab();
  Database db = SkewedChain(vocab, 12);
  stats::CostModel model(stats::StatsFor(db));

  Query query(vocab);
  query.AddDisjunct().Exists("t").Atom("Common", {"t"});  // est 12
  query.AddDisjunct().Exists("t").Atom("Rare", {"t"});    // est 1
  PreparedQuery base = MustPrepare(vocab, query);
  std::vector<NormConjunct> disjuncts;
  for (size_t d = 0; d < base.disjuncts().size(); ++d) {
    disjuncts.push_back(base.reduced(d));
  }

  QueryPlanChoice choice = model.PlanQuery(disjuncts);
  ASSERT_EQ(choice.disjuncts.size(), 2u);
  EXPECT_GT(choice.disjuncts[0].est_cost, choice.disjuncts[1].est_cost);
  EXPECT_EQ(choice.disjunct_order, (std::vector<int>{1, 0}));
  EXPECT_NE(choice.detail.find("cost-model over stats"), std::string::npos);
}

TEST(CostModelTest, ChainDatabaseRoutesMultiDisjunctToBruteForce) {
  VocabularyPtr vocab = SkewedVocab();
  Database chain = SkewedChain(vocab, 8);
  stats::CostModel chain_model(stats::StatsFor(chain));

  Query query(vocab);
  query.AddDisjunct().Exists("t").Atom("Rare", {"t"});
  query.AddDisjunct().Exists("t").Atom("Common", {"t"});
  PreparedQuery prepared = MustPrepare(vocab, query);
  std::vector<NormConjunct> disjuncts;
  for (size_t d = 0; d < prepared.disjuncts().size(); ++d) {
    disjuncts.push_back(prepared.reduced(d));
  }

  // An all-strict total chain has exactly one minimal model: route the
  // disjunctive query to a single brute-force check.
  EXPECT_EQ(chain_model.PlanQuery(disjuncts).engine,
            EngineKind::kBruteForce);

  // One weak edge breaks the rule (points may merge), as does a second
  // component (points may interleave): no opinion.
  Database weak(vocab);
  weak.AddOrder("a", OrderRel::kLt, "b");
  weak.AddOrder("b", OrderRel::kLe, "c");
  EXPECT_TRUE(weak.AddFact("Rare", {"a"}).ok());
  stats::CostModel weak_model(stats::StatsFor(weak));
  EXPECT_EQ(weak_model.PlanQuery(disjuncts).engine, EngineKind::kAuto);

  Database split(vocab);
  split.AddOrder("a", OrderRel::kLt, "b");
  split.AddOrder("c", OrderRel::kLt, "d");
  EXPECT_TRUE(split.AddFact("Rare", {"a"}).ok());
  stats::CostModel split_model(stats::StatsFor(split));
  EXPECT_EQ(split_model.PlanQuery(disjuncts).engine, EngineKind::kAuto);

  // A single-disjunct query keeps the static route even on a chain.
  disjuncts.resize(1);
  EXPECT_EQ(chain_model.PlanQuery(disjuncts).engine, EngineKind::kAuto);
}

TEST(CostModelTest, CostingNeverChangesVerdicts) {
  VocabularyPtr vocab = SkewedVocab();
  Database db = SkewedChain(vocab, 10);

  std::vector<Query> queries;
  {
    Query q(vocab);  // entailed: every completion has a Common point
    q.AddDisjunct().Exists("t").Atom("Common", {"t"});
    queries.push_back(std::move(q));
  }
  {
    Query q(vocab);  // entailed via the Rare disjunct
    q.AddDisjunct().Exists("t").Atom("Rare", {"t"});
    q.AddDisjunct()
        .Exists("t1")
        .Exists("t2")
        .Atom("Common", {"t1"})
        .Order("t2", OrderRel::kLt, "t1")
        .Atom("Rare", {"t1"});
    queries.push_back(std::move(q));
  }
  {
    Query q(vocab);  // not entailed: nothing below the chain's bottom
    q.AddDisjunct()
        .Exists("t1")
        .Exists("t2")
        .Atom("Rare", {"t1"})
        .Order("t2", OrderRel::kLt, "t1");
    queries.push_back(std::move(q));
  }

  for (const Query& query : queries) {
    EntailOptions plain;
    Result<EntailResult> expect =
        MustPrepare(vocab, query, plain).Evaluate(db);
    ASSERT_TRUE(expect.ok());

    EntailOptions costed;
    costed.planner = stats::PlannerFor(db);
    Result<EntailResult> got =
        MustPrepare(vocab, query, costed).Evaluate(db);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().entailed, expect.value().entailed);
  }
}

}  // namespace
}  // namespace iodb
