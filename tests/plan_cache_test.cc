// Plan cache tests: LRU mechanics over distinct plans, exact keys (no
// two request options ever share a plan), plan sharing across a fleet by
// cost-plan outcome, admission to a full cache, revision-based
// invalidation through the service (a mutated database must never be
// served from a stale derived structure), and multi-threaded hammers that
// run under the TSan CI job.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/parser.h"
#include "core/prepare.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "stats/stats.h"
#include "util/check.h"
#include "util/random.h"

namespace iodb {
namespace {

// Distinct query texts over one monadic vocabulary, each with its
// costing-off plan, to populate cache slots with.
class PlanSource {
 public:
  PlanSource() : vocab_(std::make_shared<Vocabulary>()) {
    vocab_->MustAddPredicate("P", {Sort::kOrder});
  }

  // "exists t1 ... tn: P(t1) & ... & P(tn)": n names the text.
  static std::string Text(int n) {
    std::string vars;
    std::string atoms;
    for (int i = 1; i <= n; ++i) {
      vars += " t" + std::to_string(i);
      atoms += (i > 1 ? " & P(t" : "P(t") + std::to_string(i) + ")";
    }
    return "exists" + vars + ": " + atoms;
  }

  std::shared_ptr<const PreparedQuery> Plan(
      int n, const EntailOptions& options = {}) const {
    Result<Query> query = ParseQuery(Text(n), vocab_);
    EXPECT_TRUE(query.ok());
    return std::make_shared<const PreparedQuery>(
        MustPrepare(vocab_, query.value(), options));
  }

  uint64_t uid() const { return vocab_->uid(); }

 private:
  VocabularyPtr vocab_;
};

std::vector<std::string> Texts(std::initializer_list<int> ns) {
  std::vector<std::string> texts;
  for (int n : ns) texts.push_back(PlanSource::Text(n));
  return texts;
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedInOrder) {
  PlanSource source;
  PlanCache cache(3);
  const EntailOptions options;
  for (int n : {1, 2, 3}) {
    cache.Put(source.uid(), PlanSource::Text(n), options, source.Plan(n));
  }
  EXPECT_EQ(cache.TextsByRecency(), Texts({3, 2, 1}));

  // A hit refreshes recency, so text 2 becomes the LRU victim.
  EXPECT_NE(cache.Get(source.uid(), PlanSource::Text(1), options), nullptr);
  cache.Put(source.uid(), PlanSource::Text(4), options, source.Plan(4));
  EXPECT_EQ(cache.TextsByRecency(), Texts({4, 1, 3}));
  EXPECT_EQ(cache.Get(source.uid(), PlanSource::Text(2), options), nullptr);

  // Overflowing further evicts in LRU order: 3, then 1.
  cache.Put(source.uid(), PlanSource::Text(5), options, source.Plan(5));
  EXPECT_EQ(cache.Get(source.uid(), PlanSource::Text(3), options), nullptr);
  cache.Put(source.uid(), PlanSource::Text(6), options, source.Plan(6));
  EXPECT_EQ(cache.Get(source.uid(), PlanSource::Text(1), options), nullptr);

  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 3);
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.capacity, 3);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 3);
}

TEST(PlanCacheTest, ReplacingAKeyIsNotAnEviction) {
  PlanSource source;
  PlanCache cache(2);
  const EntailOptions options;
  bool added = false;
  cache.Put(source.uid(), PlanSource::Text(1), options, source.Plan(1),
            &added);
  EXPECT_TRUE(added);
  cache.Put(source.uid(), PlanSource::Text(2), options, source.Plan(2));
  // Filing an equal plan again shares the held one and refreshes it.
  std::shared_ptr<const PreparedQuery> held =
      cache.Get(source.uid(), PlanSource::Text(1), options);
  std::shared_ptr<const PreparedQuery> again = cache.Put(
      source.uid(), PlanSource::Text(1), options, source.Plan(1), &added);
  EXPECT_FALSE(added);
  EXPECT_EQ(again, held);
  cache.Put(source.uid(), PlanSource::Text(2), options, source.Plan(2));
  cache.Put(source.uid(), PlanSource::Text(1), options, source.Plan(1));
  EXPECT_EQ(cache.TextsByRecency(), Texts({1, 2}));
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(PlanCacheTest, EvictedPlansStayAliveForHolders) {
  PlanSource source;
  PlanCache cache(1);
  const EntailOptions options;
  cache.Put(source.uid(), PlanSource::Text(1), options, source.Plan(1));
  std::shared_ptr<const PreparedQuery> held =
      cache.Get(source.uid(), PlanSource::Text(1), options);
  ASSERT_NE(held, nullptr);
  cache.Put(source.uid(), PlanSource::Text(2), options, source.Plan(2));
  EXPECT_EQ(cache.Get(source.uid(), PlanSource::Text(1), options), nullptr);
  // The holder's pointer is unaffected by the eviction.
  EXPECT_EQ(held->disjuncts().size(), 1u);
}

// Every option Prepare() reads is compared exactly: a plan filed under
// one value is never served for another, and neither is a plan of
// another vocabulary.
TEST(PlanCacheTest, EveryKeyFieldKeepsPlansApart) {
  PlanSource source;
  PlanCache cache(16);
  const std::string text = PlanSource::Text(2);
  const EntailOptions base;
  cache.Put(source.uid(), text, base, source.Plan(2, base));

  std::vector<EntailOptions> variants(4, base);
  variants[0].semantics = OrderSemantics::kInteger;
  variants[1].engine = EngineKind::kPathDecomposition;
  variants[2].want_countermodel = true;
  variants[3].max_rewritten_disjuncts = 7;
  for (const EntailOptions& variant : variants) {
    EXPECT_EQ(cache.Get(source.uid(), text, variant), nullptr);
  }
  EXPECT_EQ(cache.Get(source.uid() + 1, text, base), nullptr);
  EXPECT_EQ(cache.Get(source.uid(), text + " ", base), nullptr);
  EXPECT_NE(cache.Get(source.uid(), text, base), nullptr);
}

// --- sharing through the service -------------------------------------------

// A database of `points` (>= 6) labeled points. `total` orders them in one
// strict chain (the cost model routes multi-disjunct monadic queries on
// it to brute force); otherwise they spread over three incomparable
// chains. Every point occurs in an order atom, which gives it the order
// sort.
std::string FleetDb(int points, bool total) {
  IODB_CHECK_GE(points, 6);
  std::string text;
  for (int i = 0; i < points; ++i) {
    const std::string p = "p" + std::to_string(i);
    text += (i % 2 == 0 ? "P(" : "Q(") + p + ")\n";
    const int prev = total ? i - 1 : i - 3;
    if (prev >= 0) text += "p" + std::to_string(prev) + " < " + p + "\n";
  }
  return text;
}

EvalRequest Request(const std::string& db, const std::string& query) {
  EvalRequest request;
  request.db = db;
  request.query = query;
  return request;
}

// The planners of the fleet below differ in fingerprint, but on a
// one-variable query they all accept nothing, so one plan serves them.
TEST(PlanSharingTest, FleetWithEqualOutcomesCompilesOnePlanThenHits) {
  EvaluationService service;
  constexpr int kDbs = 5;
  std::set<uint64_t> fingerprints;
  for (int i = 0; i < kDbs; ++i) {
    const std::string name = "db" + std::to_string(i);
    ASSERT_TRUE(service.Load(name, FleetDb(6 << i, false)).ok());
    fingerprints.insert(
        stats::PlannerFor(*service.Snapshot(name))->fingerprint());
  }
  ASSERT_EQ(fingerprints.size(), static_cast<size_t>(kDbs));

  const std::string query = "exists t: P(t)";
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kDbs; ++i) {
      Result<EvalResponse> response =
          service.Eval(Request("db" + std::to_string(i), query));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_TRUE(response.value().entailed);
      // Round 0 meets each planner fingerprint for the first time.
      EXPECT_EQ(response.value().plan_cache_hit, round == 1);
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plans_compiled, 1);
  EXPECT_EQ(stats.plan_cache.entries, 1);
  EXPECT_EQ(stats.plan_cache.misses, kDbs);
  EXPECT_EQ(stats.plan_cache.hits, kDbs);
}

// A total chain and a width-3 database lead the cost model to different
// engine routes: two distinct plans under one key, and every response
// reports the plan a fresh Prepare with its own database's planner builds.
TEST(PlanSharingTest, DifferentCostRoutesGetDistinctPlans) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("chain", FleetDb(6, true)).ok());
  ASSERT_TRUE(service.Load("chain2", FleetDb(7, true)).ok());
  ASSERT_TRUE(service.Load("wide", FleetDb(6, false)).ok());
  ASSERT_TRUE(service.Load("wide2", FleetDb(7, false)).ok());
  const std::string query = "exists t: P(t) & Q(t) | exists t1 t2: "
                            "Q(t1) & t1 < t2 & P(t2)";
  std::set<std::string> summaries;
  for (int round = 0; round < 2; ++round) {
    for (const char* name : {"chain", "wide", "chain2", "wide2"}) {
      Result<EvalResponse> response = service.Eval(Request(name, query));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EntailOptions options;
      options.planner = stats::PlannerFor(*service.Snapshot(name));
      Result<Query> parsed = ParseQuery(query, service.vocab());
      ASSERT_TRUE(parsed.ok());
      const PreparedQuery fresh =
          MustPrepare(service.vocab(), parsed.value(), options);
      EXPECT_EQ(response.value().plan_summary, fresh.PlanChoiceSummary())
          << name;
      summaries.insert(response.value().plan_summary);
    }
  }
  EXPECT_EQ(summaries.size(), 2u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plans_compiled, 2);
  EXPECT_EQ(stats.plan_cache.entries, 2);
  EXPECT_EQ(stats.plan_cache.misses, 4);
  EXPECT_EQ(stats.plan_cache.hits, 4);
}

TEST(PlanSharingTest, CostingOnAndOffNeverSharePlans) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("db", FleetDb(6, false)).ok());
  EvalRequest on = Request("db", "exists t: P(t)");
  on.costing = 1;
  EvalRequest off = on;
  off.costing = 0;
  for (int round = 0; round < 2; ++round) {
    for (const EvalRequest& request : {on, off}) {
      Result<EvalResponse> response = service.Eval(request);
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response.value().plan_cache_hit, round == 1);
    }
  }
  EXPECT_EQ(service.stats().plans_compiled, 2);
  EXPECT_EQ(service.stats().plan_cache.entries, 2);
}

// The capacity bounds distinct plans: a plan shared by a whole fleet
// takes one slot, and two plans under one key take two.
TEST(PlanSharingTest, CapacityAndEvictionCountDistinctPlans) {
  ServiceOptions options;
  options.plan_cache_capacity = 2;
  EvaluationService service(options);
  ASSERT_TRUE(service.Load("chain", FleetDb(6, true)).ok());
  ASSERT_TRUE(service.Load("wide", FleetDb(6, false)).ok());
  ASSERT_TRUE(service.Load("wide2", FleetDb(9, false)).ok());

  // One plan for three databases.
  for (const char* name : {"chain", "wide", "wide2"}) {
    ASSERT_TRUE(service.Eval(Request(name, "exists t: P(t)")).ok());
  }
  EXPECT_EQ(service.stats().plan_cache.entries, 1);

  // Two plans under the second key push the first key's plan out.
  const std::string split = "exists t: P(t) & Q(t) | exists t: R(t)";
  ASSERT_TRUE(service.Load("r", "R(x)").ok());
  ASSERT_TRUE(service.Eval(Request("chain", split)).ok());
  ASSERT_TRUE(service.Eval(Request("wide", split)).ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plans_compiled, 3);
  EXPECT_EQ(stats.plan_cache.entries, 2);
  EXPECT_EQ(stats.plan_cache.evictions, 1);

  // The evicted plan's routes went with it.
  Result<EvalResponse> again = service.Eval(Request("wide", "exists t: P(t)"));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().plan_cache_hit);
  EXPECT_EQ(service.stats().plan_cache.evictions, 2);
}

// EVAL --explain on a shared plan renders the estimate of the request's
// own database, never the one the plan was first costed against.
TEST(PlanSharingTest, ExplainOnASharedPlanNamesTheRequestDatabase) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("small", FleetDb(6, false)).ok());
  ASSERT_TRUE(service.Load("large", FleetDb(48, false)).ok());
  EvalRequest request = Request("small", "exists t: P(t)");
  ASSERT_TRUE(service.Eval(request).ok());

  request.db = "large";
  request.explain = true;
  request.report_identity = true;
  Result<EvalResponse> response = service.Eval(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(service.stats().plans_compiled, 1);  // the plan was shared
  const std::string own = std::to_string(response.value().db_uid) + "@" +
                          std::to_string(response.value().db_revision);
  const EvaluationService::DatabasePtr small = service.Snapshot("small");
  const std::string other = std::to_string(small->uid()) + "@" +
                            std::to_string(small->revision());
  EXPECT_NE(response.value().explain.find("stats " + own),
            std::string::npos)
      << response.value().explain;
  EXPECT_EQ(response.value().explain.find("stats " + other),
            std::string::npos)
      << response.value().explain;
  // 24 P-points of 48: the large database's estimate, not the small one's.
  EXPECT_NE(response.value().explain.find("est-cost=24"), std::string::npos)
      << response.value().explain;
}

// Shared plans make batch groups of a few databases. With 8 workers, the
// 4-database group on a polynomial route runs on the calling thread, and
// the 2-database groups routed to brute force and the disjunctive search
// fan out; either way every member answers as its own EVAL does.
TEST(PlanSharingTest, SmallBatchGroupsAnswerAsSingleEvals) {
  ServiceOptions options;
  options.num_workers = 8;
  EvaluationService service(options);
  for (const char* name : {"chain", "chain2"}) {
    ASSERT_TRUE(service.Load(name, FleetDb(6, true)).ok());
  }
  for (const char* name : {"wide", "wide2"}) {
    ASSERT_TRUE(service.Load(name, FleetDb(9, false)).ok());
  }
  const std::string conjunctive = "exists t1 t2: P(t1) & t1 < t2 & Q(t2)";
  const std::string disjunctive = "exists t: P(t) & Q(t) | exists t1 t2: "
                                  "Q(t1) & t1 < t2 & P(t2)";
  std::vector<EvalRequest> requests;
  for (const std::string& query : {conjunctive, disjunctive}) {
    for (const char* name : {"chain", "wide", "chain2", "wide2"}) {
      requests.push_back(Request(name, query));
      requests.back().options.want_countermodel = true;
    }
  }
  std::vector<Result<EvalResponse>> batch = service.EvalBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  // One conjunctive plan, and one disjunctive plan per cost route.
  EXPECT_EQ(service.stats().plans_compiled, 3);
  std::set<EngineKind> engines;
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<EvalResponse> single = service.Eval(requests[i]);
    ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    EXPECT_EQ(batch[i].value().entailed, single.value().entailed) << i;
    EXPECT_EQ(batch[i].value().engine_used, single.value().engine_used) << i;
    ASSERT_EQ(batch[i].value().countermodel.has_value(),
              single.value().countermodel.has_value())
        << i;
    if (single.value().countermodel.has_value()) {
      EXPECT_EQ(batch[i].value().countermodel->ToString(),
                single.value().countermodel->ToString())
          << i;
    }
    engines.insert(batch[i].value().engine_used);
  }
  // Both kinds of route ran.
  EXPECT_TRUE(engines.count(EngineKind::kBoundedWidth));
  EXPECT_TRUE(engines.count(EngineKind::kBruteForce));
  EXPECT_TRUE(engines.count(EngineKind::kDisjunctiveSearch));
}

// --- admission -------------------------------------------------------------

// "exists v<i>: P(v<i>)": a distinct text for every i, all one plan shape.
std::string FreshText(int i) {
  const std::string v = "v" + std::to_string(i);
  return "exists " + v + ": P(" + v + ")";
}

// While the cache has room every miss is filed; once it is full, a key
// is admitted only when its previous miss is still recorded.
TEST(PlanAdmissionTest, AdmitFilesWhileRoomThenOnlyRepeatMisses) {
  PlanSource source;
  PlanCache cache(2);
  const EntailOptions options;
  for (int n : {1, 2}) {
    EXPECT_TRUE(cache.Admit(source.uid(), PlanSource::Text(n), options));
    cache.Put(source.uid(), PlanSource::Text(n), options, source.Plan(n));
  }
  EXPECT_FALSE(cache.Admit(source.uid(), PlanSource::Text(3), options));
  EXPECT_FALSE(cache.Admit(source.uid(), PlanSource::Text(4), options));
  EXPECT_TRUE(cache.Admit(source.uid(), PlanSource::Text(4), options));
  EXPECT_EQ(cache.stats().declined, 2);
  // Clear() makes room again.
  cache.Clear();
  EXPECT_TRUE(cache.Admit(source.uid(), PlanSource::Text(5), options));
  EXPECT_EQ(cache.stats().declined, 2);
}

TEST(PlanAdmissionTest, FullCacheFilesAKeyOnlyOnItsSecondMiss) {
  ServiceOptions options;
  options.plan_cache_capacity = 2;
  EvaluationService service(options);
  ASSERT_TRUE(service.Load("db", FleetDb(6, false)).ok());

  // With room, a first miss files as before.
  for (int i : {0, 1}) {
    Result<EvalResponse> response = service.Eval(Request("db", FreshText(i)));
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response.value().plan_cache_hit);
  }
  const std::vector<std::string> full = {FreshText(1), FreshText(0)};
  EXPECT_EQ(service.plan_cache().TextsByRecency(), full);
  EXPECT_EQ(service.stats().plan_cache.declined, 0);

  // Full: the first miss is served unfiled.
  Result<EvalResponse> first = service.Eval(Request("db", FreshText(2)));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().entailed);
  EXPECT_FALSE(first.value().plan_cache_hit);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plan_cache.entries, 2);
  EXPECT_EQ(stats.plan_cache.evictions, 0);
  EXPECT_EQ(stats.plan_cache.declined, 1);
  EXPECT_EQ(stats.plans_compiled, 3);
  EXPECT_EQ(service.plan_cache().TextsByRecency(), full);

  // The second miss files it and evicts the least recently used plan.
  Result<EvalResponse> second = service.Eval(Request("db", FreshText(2)));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().plan_cache_hit);
  stats = service.stats();
  EXPECT_EQ(stats.plan_cache.entries, 2);
  EXPECT_EQ(stats.plan_cache.evictions, 1);
  EXPECT_EQ(stats.plan_cache.declined, 1);
  EXPECT_EQ(stats.plans_compiled, 4);
  EXPECT_EQ(service.plan_cache().TextsByRecency(),
            (std::vector<std::string>{FreshText(2), FreshText(1)}));

  Result<EvalResponse> third = service.Eval(Request("db", FreshText(2)));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third.value().plan_cache_hit);
}

// A scan of one-shot texts through a full cache evicts nothing.
TEST(PlanAdmissionTest, ScanOfFreshTextsKeepsTheHotPlans) {
  ServiceOptions options;
  options.plan_cache_capacity = 2;
  EvaluationService service(options);
  ASSERT_TRUE(service.Load("db", FleetDb(6, false)).ok());
  const std::vector<std::string> hot = {"exists t: P(t)", "exists t: Q(t)"};
  for (const std::string& text : hot) {
    ASSERT_TRUE(service.Eval(Request("db", text)).ok());
  }
  constexpr int kFresh = 200;
  for (int i = 0; i < kFresh; ++i) {
    Result<EvalResponse> response = service.Eval(Request("db", FreshText(i)));
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response.value().entailed);
  }
  for (const std::string& text : hot) {
    Result<EvalResponse> response = service.Eval(Request("db", text));
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response.value().plan_cache_hit) << text;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plan_cache.evictions, 0);
  EXPECT_EQ(stats.plan_cache.declined, kFresh);
  EXPECT_EQ(stats.plans_compiled, 2 + kFresh);
}

// --- invalidation ----------------------------------------------------------

// Mutating a registered database must not serve a stale derived view.
// The constant query compiles to a plan that transforms the database
// (marker-fact injection) and caches the transformed view keyed by
// (uid, revision) — the mutation bumps the revision, so the next request
// recomputes even though the plan itself is a cache hit.
TEST(PlanCacheInvalidationTest, MutationInvalidatesTransformedPlanView) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("db", "P(u)\nu < v").ok());

  EvalRequest request;
  request.db = "db";
  request.query = "exists t: P(t) & t < c";  // c is a constant
  // Costing off: this test asserts EXACT plan reuse across a mutation,
  // and with costing the mutation below changes statistics magnitudes
  // (a new constant and edge), which gives the plan a new route.
  request.costing = 0;
  Result<EvalResponse> before = service.Eval(request);
  ASSERT_TRUE(before.ok());
  // Nothing orders any P-point below c, so some minimal completion
  // places c first: not entailed.
  EXPECT_FALSE(before.value().entailed);
  EXPECT_FALSE(before.value().plan_cache_hit);

  // Same request again: plan hit, same verdict.
  Result<EvalResponse> again = service.Eval(request);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().entailed);
  EXPECT_TRUE(again.value().plan_cache_hit);

  // Mutate the registered database: now u < c is asserted, so P(u) sits
  // below c in every completion.
  ASSERT_TRUE(service
                  .Mutate("db",
                          [](Database* db) {
                            db->AddOrder("u", OrderRel::kLt, "c");
                            return Status::Ok();
                          })
                  .ok());
  Result<EvalResponse> after = service.Eval(request);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().plan_cache_hit);  // the plan itself is reused
  EXPECT_TRUE(after.value().entailed);        // ... but not its stale view
}

// Same property for plain (transform-free) plans, which evaluate through
// the database's memoized NormView.
TEST(PlanCacheInvalidationTest, MutationInvalidatesNormView) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("db", "P(u)\nQ(v)\nu < v").ok());

  EvalRequest request;
  request.db = "db";
  request.query = "exists t1 t2: Q(t1) & t1 < t2";
  request.costing = 0;  // exact plan reuse across the mutation (as above)
  Result<EvalResponse> before = service.Eval(request);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before.value().entailed);  // nothing above the Q-point

  ASSERT_TRUE(service
                  .Mutate("db",
                          [](Database* db) {
                            db->AddOrder("v", OrderRel::kLt, "w");
                            return Status::Ok();
                          })
                  .ok());
  Result<EvalResponse> after = service.Eval(request);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().plan_cache_hit);
  EXPECT_TRUE(after.value().entailed);
}

// --- concurrency (TSan CI job) ---------------------------------------------

// Concurrent Get/Put over a key space larger than the capacity, with
// several planner routes per key and stats and recency snapshots mixed
// in, so hits, misses, sharing, evictions and refreshes all race.
TEST(PlanCacheTest, ConcurrentHammer) {
  PlanSource source;
  PlanCache cache(8);
  std::vector<std::shared_ptr<const PreparedQuery>> plans;
  for (int n = 1; n <= 12; ++n) plans.push_back(source.Plan(n));
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &plans, &source, t] {
      Rng rng(static_cast<uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        const int n = static_cast<int>(rng.Uniform(plans.size())) + 1;
        const uint64_t uid = source.uid() + rng.Uniform(2);
        EntailOptions options;
        options.want_countermodel = rng.Bernoulli(0.5);
        const std::string text = PlanSource::Text(n);
        if (rng.Bernoulli(0.4)) {
          std::shared_ptr<const PreparedQuery> served =
              cache.Put(uid, text, options, plans[n - 1]);
          EXPECT_EQ(served->disjuncts().size(), 1u);
        } else if (std::shared_ptr<const PreparedQuery> got =
                       cache.Get(uid, text, options)) {
          // Use the plan through the shared pointer.
          EXPECT_EQ(got->disjuncts()[0].order_vars, n);
        }
        if (i % 512 == 0) {
          (void)cache.stats();
          (void)cache.TextsByRecency();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  PlanCacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, 8);
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.misses, 0);
  EXPECT_GT(stats.evictions, 0);
}

// Concurrent single-request serving on distinct databases: the supported
// multi-threaded use of the service (the plan cache and the plans' own
// evaluation caches are shared across the threads). Constant-free
// queries only — compiling a constant query registers marker predicates
// into the shared vocabulary, which is a single-writer operation.
TEST(PlanCacheTest, ConcurrentServiceEvalOnDistinctDatabases) {
  EvaluationService service;
  constexpr int kThreads = 4;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(service
                    .Load("db" + std::to_string(t),
                          "P(u)\nQ(v)\nu < v\nv < w\nQ(w)")
                    .ok());
  }
  const std::vector<std::string> queries = {
      "exists t1 t2: P(t1) & t1 < t2 & Q(t2)",
      "exists t1 t2: Q(t1) & t1 < t2 & P(t2)",
      "exists t1 t2 t3: P(t1) & t1 < t2 & Q(t2) & t2 < t3 & Q(t3)",
      "exists t: P(t) & Q(t)",
  };
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &queries, t] {
      for (int i = 0; i < 200; ++i) {
        EvalRequest request;
        request.db = "db" + std::to_string(t);
        request.query = queries[static_cast<size_t>(i) % queries.size()];
        Result<EvalResponse> response = service.Eval(request);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, kThreads * 200);
  EXPECT_EQ(stats.plan_cache.hits + stats.plan_cache.misses,
            kThreads * 200);
  EXPECT_GT(stats.plan_cache.hits, 0);
}

// Many threads evaluate a few query texts over a fleet while a writer
// publishes new revisions (each a new statistics magnitude, hence a new
// planner route). Every verdict must equal a serial, cache-free
// evaluation of the very version the request pinned.
TEST(PlanCacheTest, FleetHammerWithPublishesMatchesSerialVerdicts) {
  EvaluationService service;
  constexpr int kDbs = 8;
  constexpr int kReaders = 4;
  constexpr int kRequests = 300;
  constexpr int kPublishes = 24;
  // Version history, so the serial run can re-evaluate any pinned one.
  std::map<std::pair<std::string, uint64_t>, EvaluationService::DatabasePtr>
      versions;
  auto remember = [&](const std::string& name) {
    EvaluationService::DatabasePtr db = service.Snapshot(name);
    versions[{name, db->revision()}] = db;
  };
  for (int i = 0; i < kDbs; ++i) {
    const std::string name = "db" + std::to_string(i);
    ASSERT_TRUE(service.Load(name, FleetDb(6 + i, i % 4 == 3)).ok());
    remember(name);
  }
  const std::vector<std::string> queries = {
      "exists t1 t2: P(t1) & t1 < t2 & Q(t2)",
      "exists t: P(t) & Q(t) | exists t1 t2: Q(t1) & t1 < t2 & P(t2)",
      "exists t1 t2 t3: P(t1) & t1 < t2 & P(t2) & t2 < t3 & P(t3)",
  };

  struct Seen {
    std::string db;
    uint64_t revision;
    size_t query;
    bool countermodel;
    bool entailed;
  };
  std::vector<std::vector<Seen>> seen(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(r) + 7);
      for (int i = 0; i < kRequests; ++i) {
        const size_t q = rng.Uniform(queries.size());
        EvalRequest request = Request(
            "db" + std::to_string(rng.Uniform(kDbs)), queries[q]);
        request.options.want_countermodel = rng.Bernoulli(0.25);
        request.costing = rng.Bernoulli(0.9) ? 1 : 0;
        Result<EvalResponse> response = service.Eval(request);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        if (request.options.want_countermodel) {
          EXPECT_EQ(response.value().countermodel.has_value(),
                    !response.value().entailed);
        }
        seen[r].push_back({request.db, response.value().db_revision, q,
                           request.options.want_countermodel,
                           response.value().entailed});
      }
    });
  }
  for (int p = 0; p < kPublishes; ++p) {
    const std::string name = "db" + std::to_string(p % kDbs);
    ASSERT_TRUE(service
                    .Mutate(name,
                            [p](Database* db) {
                              const std::string x = "x" + std::to_string(p);
                              (void)db->AddFact(p % 2 == 0 ? "P" : "Q", {x});
                              db->AddOrder("p0", OrderRel::kLt, x);
                              return Status::Ok();
                            })
                    .ok());
    remember(name);
  }
  for (std::thread& reader : readers) reader.join();

  std::map<std::tuple<std::string, uint64_t, size_t>, bool> serial;
  for (const std::vector<Seen>& list : seen) {
    for (const Seen& s : list) {
      auto [it, fresh] = serial.try_emplace({s.db, s.revision, s.query});
      if (fresh) {
        const EvaluationService::DatabasePtr& db =
            versions.at({s.db, s.revision});
        Result<Query> query = ParseQuery(queries[s.query], service.vocab());
        ASSERT_TRUE(query.ok());
        Result<EntailResult> result = Entails(*db, query.value());
        ASSERT_TRUE(result.ok());
        it->second = result.value().entailed;
      }
      EXPECT_EQ(s.entailed, it->second)
          << s.db << "@" << s.revision << " query " << s.query
          << (s.countermodel ? " --countermodel" : "");
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plan_cache.hits + stats.plan_cache.misses,
            kReaders * kRequests);
  EXPECT_GT(stats.plan_cache.hits, 0);
}

// Four threads send fresh and hot texts, single and batched, through a
// full cache, so declined and filed plans of one text race. Every
// verdict must equal a serial, cache-free evaluation.
TEST(PlanAdmissionTest, FullCacheHammerMatchesSerialVerdicts) {
  ServiceOptions options;
  options.plan_cache_capacity = 4;
  EvaluationService service(options);
  constexpr int kDbs = 4;
  constexpr int kThreads = 4;
  constexpr int kRequests = 200;
  for (int i = 0; i < kDbs; ++i) {
    ASSERT_TRUE(
        service.Load("db" + std::to_string(i), FleetDb(6 + i, i == 3)).ok());
  }
  const std::vector<std::string> hot = {
      "exists t1 t2: P(t1) & t1 < t2 & Q(t2)",
      "exists t: P(t) & Q(t) | exists t1 t2: Q(t1) & t1 < t2 & P(t2)",
  };
  // Fill the cache.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.Eval(Request("db0", FreshText(1000 + i))).ok());
  }
  ASSERT_EQ(service.stats().plan_cache.entries, 4);
  // Fresh texts in three shapes; `tag` makes the variable names unique.
  auto fresh = [](const std::string& tag, int shape) {
    const std::string a = "a" + tag;
    const std::string b = "b" + tag;
    switch (shape) {
      case 0:
        return "exists " + a + ": P(" + a + ") & Q(" + a + ")";
      case 1:
        return "exists " + a + " " + b + ": Q(" + a + ") & " + a + " < " + b +
               " & P(" + b + ")";
      default:
        return "exists " + a + ": Q(" + a + ") | exists " + b + ": P(" + b +
               ") & Q(" + b + ")";
    }
  };

  struct Seen {
    std::string db;
    std::string text;
    bool entailed;
  };
  std::vector<std::vector<Seen>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 11);
      for (int i = 0; i < kRequests; ++i) {
        const std::string db = "db" + std::to_string(rng.Uniform(kDbs));
        const std::string text =
            rng.Bernoulli(0.3)
                ? hot[rng.Uniform(hot.size())]
                : fresh(std::to_string(t) + "_" + std::to_string(i),
                        static_cast<int>(rng.Uniform(3)));
        if (i % 8 == 0) {
          // The same text twice in one batch: a declined plan and the
          // plan its second miss files may serve one batch.
          const std::vector<EvalRequest> batch = {Request(db, text),
                                                  Request(db, text)};
          for (const Result<EvalResponse>& response :
               service.EvalBatch(batch)) {
            ASSERT_TRUE(response.ok()) << response.status().ToString();
            seen[t].push_back({db, text, response.value().entailed});
          }
        } else {
          Result<EvalResponse> response = service.Eval(Request(db, text));
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          seen[t].push_back({db, text, response.value().entailed});
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (const std::vector<Seen>& list : seen) {
    for (const Seen& s : list) {
      Result<Query> query = ParseQuery(s.text, service.vocab());
      ASSERT_TRUE(query.ok());
      Result<EntailResult> serial =
          Entails(*service.Snapshot(s.db), query.value());
      ASSERT_TRUE(serial.ok());
      EXPECT_EQ(s.entailed, serial.value().entailed) << s.db << ": " << s.text;
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_LE(stats.plan_cache.entries, 4);
  EXPECT_GT(stats.plan_cache.declined, 0);
  EXPECT_GT(stats.plan_cache.hits, 0);
}

}  // namespace
}  // namespace iodb
