// Differential tests for the incremental evaluation core.
//
// The count-maintaining enumerator must visit groups and models in the
// order of a literal transcription of the pre-incremental algorithm; the
// in-place ModelBuilder must reproduce the rebuilt prefix models; the
// compiled matchers must agree with the generic checker on every minimal
// model. Brute-force verdicts are checked against the reference decider
// (tests/oracle/oracle.h), and its countermodels and work counters
// against what the enumeration order and the generic checker imply.

#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/entail_bruteforce.h"
#include "core/minimal_models.h"
#include "core/model.h"
#include "core/model_builder.h"
#include "core/model_check.h"
#include "core/model_matcher.h"
#include "graph/topo.h"
#include "oracle/oracle.h"
#include "util/random.h"
#include "workload/generators.h"

namespace iodb {
namespace {

// ---------------------------------------------------------------------------
// Reference enumerator: a literal transcription of the pre-incremental
// algorithm (recompute minor vertices per node via MinorVertices). Used to
// pin the new enumerator's visit order exactly.

struct ReferenceEnumerator {
  const NormDb& db;
  const ModelVisitor& visitor;
  Reachability reach;
  std::vector<bool> alive;
  int alive_count;
  std::vector<std::vector<int>> groups;

  ReferenceEnumerator(const NormDb& d, const ModelVisitor& v)
      : db(d),
        visitor(v),
        reach(ComputeReachability(d.dag)),
        alive(d.num_points(), true),
        alive_count(d.num_points()) {}

  bool Comparable(int u, int v) const {
    return reach.reach.Get(u, v) || reach.reach.Get(v, u);
  }

  bool Recurse() {
    if (alive_count == 0) {
      return visitor.on_model == nullptr || visitor.on_model(groups);
    }
    std::vector<bool> minor = MinorVertices(db.dag, alive);
    std::vector<int> candidates;
    for (int v = 0; v < db.num_points(); ++v) {
      if (alive[v] && minor[v]) candidates.push_back(v);
    }
    std::vector<int> chosen;
    return EnumerateAntichains(candidates, 0, chosen);
  }

  bool EnumerateAntichains(const std::vector<int>& candidates, size_t next,
                           std::vector<int>& chosen) {
    for (size_t i = next; i < candidates.size(); ++i) {
      int v = candidates[i];
      bool independent = true;
      for (int u : chosen) {
        if (Comparable(u, v)) {
          independent = false;
          break;
        }
      }
      if (!independent) continue;
      chosen.push_back(v);
      std::vector<int> group;
      for (int m : candidates) {
        for (int a : chosen) {
          if (reach.reach.Get(m, a)) {
            group.push_back(m);
            break;
          }
        }
      }
      bool group_ok = true;
      for (const auto& [u, w] : db.inequalities) {
        bool has_u = false, has_w = false;
        for (int g : group) {
          has_u = has_u || g == u;
          has_w = has_w || g == w;
        }
        if (has_u && has_w) {
          group_ok = false;
          break;
        }
      }
      if (group_ok &&
          (visitor.on_group == nullptr ||
           visitor.on_group(static_cast<int>(groups.size()), group))) {
        for (int g : group) alive[g] = false;
        alive_count -= static_cast<int>(group.size());
        groups.push_back(group);
        bool keep_going = Recurse();
        groups.pop_back();
        for (int g : group) alive[g] = true;
        alive_count += static_cast<int>(group.size());
        if (!keep_going) return false;
      }
      if (!EnumerateAntichains(candidates, i + 1, chosen)) return false;
      chosen.pop_back();
    }
    return true;
  }
};

std::vector<std::string> EnumerationTrace(
    const NormDb& db, bool reference,
    const std::vector<std::vector<int>>* prefix = nullptr) {
  std::vector<std::string> trace;
  ModelVisitor visitor;
  visitor.on_group = [&](int depth, const std::vector<int>& group) {
    std::string line = "g" + std::to_string(depth) + ":";
    for (int g : group) line += " " + std::to_string(g);
    trace.push_back(line);
    return true;
  };
  visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
    trace.push_back("model: " + BuildMinimalModel(db, groups).ToString());
    return true;
  };
  if (reference) {
    EXPECT_EQ(prefix, nullptr);
    ReferenceEnumerator e(db, visitor);
    e.Recurse();
  } else if (prefix != nullptr) {
    ForEachMinimalModelFrom(db, *prefix, visitor);
  } else {
    ForEachMinimalModel(db, visitor);
  }
  return trace;
}

NormDb MustNormalize(const Database& db) {
  Result<NormDb> norm = Normalize(db);
  IODB_CHECK(norm.ok());
  return std::move(norm.value());
}

// A corpus entry: a random monadic database, optionally decorated with
// inequalities and n-ary facts so every engine feature is exercised.
Database RandomCorpusDb(uint64_t seed, VocabularyPtr vocab) {
  Rng rng(seed);
  MonadicDbParams params;
  params.num_chains = rng.UniformInt(1, 3);
  params.chain_length = rng.UniformInt(1, 3);
  params.num_predicates = rng.UniformInt(1, 3);
  params.label_probability = 0.6;
  params.le_probability = 0.4;
  Database db = RandomMonadicDb(params, vocab, rng);
  // Sprinkle inequalities between random order constants.
  const int points = db.num_order_constants();
  if (points >= 2 && rng.Bernoulli(0.5)) {
    for (int k = 0; k < 2; ++k) {
      int u = rng.UniformInt(0, points - 1);
      int v = rng.UniformInt(0, points - 1);
      if (u != v) db.AddInequality(u, v);
    }
  }
  // A binary predicate mixing order and object sorts, plus ground object
  // facts, so the fact index and the object/order machinery engage
  // ("c0_0" is the first chain point RandomMonadicDb interned).
  if (rng.Bernoulli(0.6)) {
    IODB_CHECK(db.AddFact("Owns", {"alice", "c0_0"}).ok());
    if (rng.Bernoulli(0.5)) {
      IODB_CHECK(db.AddFact("Knows", {"alice", "bob"}).ok());
    }
  }
  return db;
}

Query RandomCorpusQuery(uint64_t seed, VocabularyPtr vocab) {
  Rng rng(seed);
  const int num_preds = 2;
  if (rng.Bernoulli(0.5)) {
    return RandomDisjunctiveSequentialQuery(rng.UniformInt(1, 2),
                                            rng.UniformInt(1, 3), num_preds,
                                            0.5, 0.4, vocab, rng);
  }
  Query query = RandomConjunctiveMonadicQuery(rng.UniformInt(1, 3), num_preds,
                                              0.4, 0.5, 0.4, vocab, rng);
  if (rng.Bernoulli(0.4)) {
    // Add an object atom to one disjunct so the query leaves the monadic
    // fragment and the matcher's object/fact machinery runs.
    Query mixed(vocab);
    QueryConjunct conjunct = query.disjuncts()[0];
    conjunct.Exists("x").Atom("Owns", {"x", conjunct.variables[0]});
    mixed.AddDisjunct(conjunct);
    return mixed;
  }
  return query;
}

TEST(IncrementalEnumeratorTest, TraceMatchesReferenceOnRandomCorpus) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    Database db = RandomCorpusDb(seed, vocab);
    NormDb norm = MustNormalize(db);
    EXPECT_EQ(EnumerationTrace(norm, /*reference=*/true),
              EnumerationTrace(norm, /*reference=*/false))
        << "seed " << seed;
  }
}

TEST(IncrementalEnumeratorTest, PrefixSeededSubtreesPartitionTheForest) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    Database db = RandomCorpusDb(seed, vocab);
    NormDb norm = MustNormalize(db);
    if (norm.num_points() == 0) continue;

    // Roots = the first-level group choices.
    std::vector<std::vector<int>> roots;
    ModelVisitor collect;
    collect.on_group = [&](int, const std::vector<int>& group) {
      roots.push_back(group);
      return false;
    };
    ForEachMinimalModel(norm, collect);

    // Concatenating the per-root subtree model sequences in root order
    // reproduces the full enumeration's model sequence.
    std::vector<std::string> full;
    ModelVisitor models_only;
    models_only.on_model = [&](const std::vector<std::vector<int>>& groups) {
      full.push_back(BuildMinimalModel(norm, groups).ToString());
      return true;
    };
    ForEachMinimalModel(norm, models_only);

    std::vector<std::string> sharded;
    for (const std::vector<int>& root : roots) {
      std::vector<std::vector<int>> prefix{root};
      ModelVisitor sub;
      sub.on_model = [&](const std::vector<std::vector<int>>& groups) {
        sharded.push_back(BuildMinimalModel(norm, groups).ToString());
        return true;
      };
      ForEachMinimalModelFrom(norm, prefix, sub);
    }
    EXPECT_EQ(full, sharded) << "seed " << seed;
  }
}

TEST(ModelBuilderTest, SnapshotMatchesBuildPrefixModelAtEveryNode) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    Database db = RandomCorpusDb(seed, vocab);
    NormDb norm = MustNormalize(db);
    ModelBuilder builder(norm);
    std::vector<std::vector<int>> prefix;
    long long checked = 0;
    ModelVisitor visitor;
    visitor.on_group = [&](int depth, const std::vector<int>& group) {
      prefix.resize(depth);
      prefix.push_back(group);
      builder.PushGroup(depth, group);
      EXPECT_EQ(builder.Snapshot().ToString(),
                BuildPrefixModel(norm, prefix).ToString());
      return ++checked < 200;  // bound the walk; prefixes vary enough
    };
    visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
      builder.PopToDepth(static_cast<int>(groups.size()));
      EXPECT_EQ(builder.Snapshot().ToString(),
                BuildMinimalModel(norm, groups).ToString());
      return true;
    };
    ForEachMinimalModel(norm, visitor);
  }
}

TEST(CompiledMatcherTest, AgreesWithGenericSatisfiesOnEveryMinimalModel) {
  long long models_checked = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    Database db = RandomCorpusDb(seed, vocab);
    Query query = RandomCorpusQuery(seed + 1000, vocab);
    Result<NormQuery> norm_query = NormalizeQuery(query);
    if (!norm_query.ok()) continue;  // query may use unseen predicates
    NormDb norm = MustNormalize(db);
    QueryMatcher matcher(norm_query.value());
    ModelVisitor visitor;
    visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
      FiniteModel model = BuildMinimalModel(norm, groups);
      FactIndex index = FactIndex::FromModel(model);
      const bool reference = Satisfies(model, norm_query.value());
      EXPECT_EQ(matcher.Matches(model, &index), reference)
          << "seed " << seed << " model " << model.ToString();
      EXPECT_EQ(matcher.Matches(model, nullptr), reference)
          << "seed " << seed << " (no index) model " << model.ToString();
      ++models_checked;
      return true;
    };
    ForEachMinimalModel(norm, visitor);
  }
  EXPECT_GT(models_checked, 100);  // the corpus actually exercised us
}

// What the unpruned brute-force search must report, read off the
// enumeration order with the generic checker: the number of models it
// visits, whether a `max_models` budget (-1 = none) stops it first, and
// the first minimal model falsifying the query.
struct ExpectedSearch {
  long long models = 0;
  bool limit_hit = false;
  std::optional<std::string> countermodel;
};

ExpectedSearch ExpectedFromEnumeration(const NormDb& db,
                                       const NormQuery& query,
                                       long long max_models) {
  ExpectedSearch expected;
  ModelVisitor visitor;
  visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
    ++expected.models;
    FiniteModel model = BuildMinimalModel(db, groups);
    if (!Satisfies(model, query)) {
      expected.countermodel = model.ToString();
      return false;
    }
    if (max_models >= 0 && expected.models >= max_models) {
      expected.limit_hit = true;
      return false;
    }
    return true;
  };
  ForEachMinimalModel(db, visitor);
  return expected;
}

std::optional<std::string> Render(const BruteForceOutcome& outcome) {
  if (!outcome.countermodel.has_value()) return std::nullopt;
  return outcome.countermodel->ToString();
}

bool OracleEntails(const Database& db, const Query& query) {
  Result<oracle::Verdict> verdict = oracle::Decide(db, query);
  IODB_CHECK(verdict.ok());
  IODB_CHECK(verdict.value() != oracle::Verdict::kInconsistent);
  return verdict.value() == oracle::Verdict::kEntailed;
}

TEST(IncrementalBruteForceTest, MatchesRebuildPathOnRandomCorpus) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    Database db = RandomCorpusDb(seed, vocab);
    Query query = RandomCorpusQuery(seed + 500, vocab);
    Result<NormQuery> norm_query = NormalizeQuery(query);
    if (!norm_query.ok()) continue;
    NormDb norm = MustNormalize(db);

    BruteForceOptions unpruned;
    unpruned.prune_satisfied_prefix = false;
    const BruteForceOutcome pruned_outcome =
        EntailBruteForce(norm, norm_query.value());
    const BruteForceOutcome unpruned_outcome =
        EntailBruteForce(norm, norm_query.value(), unpruned);

    // Pruning changes neither the verdict nor the countermodel: a pruned
    // subtree holds only models that satisfy the query.
    EXPECT_EQ(pruned_outcome.entailed, OracleEntails(db, query))
        << "seed " << seed;
    EXPECT_EQ(unpruned_outcome.entailed, pruned_outcome.entailed)
        << "seed " << seed;
    EXPECT_EQ(Render(unpruned_outcome), Render(pruned_outcome))
        << "seed " << seed;
    ASSERT_EQ(pruned_outcome.countermodel.has_value(),
              !pruned_outcome.entailed)
        << "seed " << seed;
    if (pruned_outcome.countermodel.has_value()) {
      EXPECT_FALSE(Satisfies(*pruned_outcome.countermodel, norm_query.value()))
          << "seed " << seed;
    }

    const ExpectedSearch expected =
        ExpectedFromEnumeration(norm, norm_query.value(), -1);
    EXPECT_EQ(unpruned_outcome.models_enumerated, expected.models)
        << "seed " << seed;
    EXPECT_FALSE(unpruned_outcome.limit_hit) << "seed " << seed;
    EXPECT_EQ(Render(unpruned_outcome), expected.countermodel)
        << "seed " << seed;
  }
}

TEST(IncrementalBruteForceTest, MatchesRebuildUnderModelBudget) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    auto vocab = std::make_shared<Vocabulary>();
    Database db = RandomCorpusDb(seed, vocab);
    Query query = RandomCorpusQuery(seed + 250, vocab);
    Result<NormQuery> norm_query = NormalizeQuery(query);
    if (!norm_query.ok()) continue;
    NormDb norm = MustNormalize(db);

    BruteForceOptions options;
    options.prune_satisfied_prefix = false;
    options.max_models = 3;
    const BruteForceOutcome outcome =
        EntailBruteForce(norm, norm_query.value(), options);
    const ExpectedSearch expected =
        ExpectedFromEnumeration(norm, norm_query.value(), 3);
    EXPECT_EQ(outcome.models_enumerated, expected.models) << "seed " << seed;
    EXPECT_EQ(outcome.limit_hit, expected.limit_hit) << "seed " << seed;
    EXPECT_EQ(Render(outcome), expected.countermodel) << "seed " << seed;
    // A budget stop is "unknown", reported as entailed; otherwise the
    // search finished and its verdict is definite.
    if (!outcome.limit_hit) {
      EXPECT_EQ(outcome.entailed, OracleEntails(db, query)) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace iodb
