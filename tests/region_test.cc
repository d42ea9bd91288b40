// The two forms of the sort region (core/region.h) and the engines written
// over them. On dags of at most 64 points both forms apply: the word form
// and the counter form must give the same minimal and minor points and
// the same next groups in the same order, and the enumerator, the
// bounded-width engine and the disjunctive engine must give the same
// verdicts, counters and countermodels under either form. Above 64 points
// the counter form runs alone; there the disjunctive engine's
// countermodels are checked against the database and every disjunct.

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "core/entail_bounded_width.h"
#include "core/entail_disjunctive.h"
#include "core/minimal_models.h"
#include "core/model_check.h"
#include "core/parser.h"
#include "core/region.h"
#include "util/random.h"
#include "util/strings.h"
#include "workload/generators.h"

namespace iodb {
namespace {

// A random dag over `n` points p0..p{n-1}: edges only from lower to higher
// index (so no point merges), random "<"/"<=", random labels over P0..P2,
// and `num_neq` random "!=" atoms.
NormDb RandomDag(Rng& rng, int n, double edge_probability, int num_neq) {
  std::string text = "pred P0(order)\npred P1(order)\npred P2(order)\n";
  for (int i = 0; i < n; ++i) {
    const std::string p = "p" + std::to_string(i);
    text += "P0(" + p + ")\n";  // every point occurs in some atom
    if (rng.Bernoulli(0.5)) text += "P1(" + p + ")\n";
    if (rng.Bernoulli(0.3)) text += "P2(" + p + ")\n";
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(edge_probability)) {
        text += p + (rng.Bernoulli(0.3) ? " <= p" : " < p") +
                std::to_string(j) + "\n";
      }
    }
  }
  for (int k = 0; k < num_neq && n > 1; ++k) {
    const int a = rng.UniformInt(0, n - 1);
    const int b = rng.UniformInt(0, n - 1);
    if (a != b) {
      text += "p" + std::to_string(a) + " != p" + std::to_string(b) + "\n";
    }
  }
  Result<Database> db = ParseDatabase(text, std::make_shared<Vocabulary>());
  IODB_CHECK(db.ok());
  Result<NormDb> norm = Normalize(db.value());
  IODB_CHECK(norm.ok());
  return std::move(norm.value());
}

// What one form reports about the current region: minimal points, minor
// points, and the next groups in walk order (capped) with their "!=" test.
struct RegionView {
  std::vector<int> minimals;
  std::vector<int> minors;
  std::vector<std::vector<int>> groups;
  std::vector<bool> respects;

  bool operator==(const RegionView&) const = default;
};

template <class Region>
RegionView View(Region& region, size_t max_groups) {
  RegionView view;
  region.FirstMinimal([&](int v) {
    view.minimals.push_back(v);
    return false;
  });
  typename Region::Level level;
  region.FindMinors(level);
  region.AppendMembers(level.minors, &view.minors);
  region.ForEachGroup(level, [&](const auto& group) {
    region.AppendMembers(group, &view.groups.emplace_back());
    view.respects.push_back(region.Respects(group));
    return view.groups.size() < max_groups;
  });
  return view;
}

TEST(RegionFormsTest, WordAndCounterFormsAgreeAlongRandomSorts) {
  Rng rng(2026);
  int states = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const int n = rng.UniformInt(1, 64);
    const double p = trial % 3 == 0 ? 0.05 : 0.2;
    NormDb db = RandomDag(rng, n, p, trial % 2 == 0 ? 0 : 4);
    auto ctx = SharedEnumerationContext(db);
    ASSERT_TRUE(ctx->has_masks);
    WordRegion word(db, *ctx);
    CounterRegion counter(db, *ctx);
    const WordRegion::Mark word_start = word.mark();
    const CounterRegion::Mark counter_start = counter.mark();
    const RegionView first = View(word, 256);
    while (!word.empty()) {
      ASSERT_FALSE(counter.empty());
      // The counter form's key is the region's minimal points.
      std::vector<int> counter_key = counter.key();
      RegionView w = View(word, 256);
      RegionView c = View(counter, 256);
      ASSERT_EQ(w, c) << "trial " << trial;
      EXPECT_EQ(counter_key, w.minimals);
      ++states;
      // Place a random group that respects the "!=" atoms; there is
      // always one (a minor point with no minor point below it).
      std::vector<int> allowed;
      for (size_t i = 0; i < w.groups.size(); ++i) {
        if (w.respects[i]) allowed.push_back(static_cast<int>(i));
      }
      ASSERT_FALSE(allowed.empty());
      const int pick =
          rng.UniformInt(0, static_cast<int>(allowed.size()) - 1);
      const std::vector<int>& group = w.groups[allowed[pick]];
      for (int v : group) {
        word.Remove(v);
        counter.Remove(v);
      }
    }
    EXPECT_TRUE(counter.empty());
    // Restoring to the start mark gives back the whole region.
    word.RestoreTo(word_start);
    counter.RestoreTo(counter_start);
    EXPECT_EQ(View(word, 256), first);
    EXPECT_EQ(View(counter, 256), first);
  }
  EXPECT_GT(states, 1000);
}

// A width-2..3 monadic database of at most 63 points with a few
// cross-chain edges, and optionally "!=" atoms.
NormDb SmallMonadicDb(Rng& rng, VocabularyPtr vocab, bool with_neq) {
  MonadicDbParams params;
  params.num_chains = rng.UniformInt(1, 3);
  params.chain_length = rng.UniformInt(1, 21);
  params.num_predicates = 3;
  params.label_probability = 0.5;
  params.le_probability = 0.3;
  Database db = RandomMonadicDb(params, vocab, rng);
  auto name = [&](int chain) {
    return "c" + std::to_string(chain) + "_" +
           std::to_string(rng.UniformInt(0, params.chain_length - 1));
  };
  if (params.num_chains > 1) {
    db.AddOrder(name(0), OrderRel::kLt, name(1));
    if (with_neq) {
      db.AddNotEqual(name(0), name(1));
      db.AddNotEqual(name(1), name(0));
    }
  }
  Result<NormDb> norm = Normalize(db);
  IODB_CHECK(norm.ok());
  return std::move(norm.value());
}

NormQuery Reduced(const NormQuery& query) {
  NormQuery reduced;
  reduced.vocab = query.vocab;
  for (const NormConjunct& conjunct : query.disjuncts) {
    reduced.disjuncts.push_back(TransitiveReduceConjunct(conjunct));
  }
  return reduced;
}

struct EnumerationTrace {
  bool completed = false;
  std::vector<std::vector<std::vector<int>>> models;
  std::vector<int> group_depths;
};

template <class Region>
EnumerationTrace Enumerate(const NormDb& db, const EnumerationContext& ctx,
                           const std::vector<std::vector<int>>& prefix) {
  EnumerationTrace trace;
  ModelVisitor visitor;
  visitor.on_group = [&](int depth, const std::vector<int>&) {
    trace.group_depths.push_back(depth);
    return trace.group_depths.size() < 20000;
  };
  visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
    trace.models.push_back(groups);
    return trace.models.size() < 300;
  };
  trace.completed =
      internal::ForEachMinimalModelOn<Region>(db, ctx, prefix, visitor);
  return trace;
}

struct DisjunctiveTrace {
  bool entailed = true;
  long long states = 0;
  long long reported = 0;
  std::vector<std::string> countermodels;
};

template <class Region>
DisjunctiveTrace Disjunctive(const NormDb& db, const NormQuery& query,
                             const EnumerationContext& ctx, bool enumerate) {
  DisjunctiveTrace trace;
  DisjunctiveOptions options;
  options.already_reduced = true;
  if (enumerate) {
    options.on_countermodel = [&](const FiniteModel& model) {
      trace.countermodels.push_back(model.ToString());
      return trace.countermodels.size() < 200;
    };
  }
  DisjunctiveOutcome outcome =
      internal::EntailDisjunctiveOn<Region>(db, query, ctx, options);
  trace.entailed = outcome.entailed;
  trace.states = outcome.states_visited;
  trace.reported = outcome.countermodels_reported;
  if (!enumerate && outcome.countermodel.has_value()) {
    trace.countermodels.push_back(outcome.countermodel->ToString());
  }
  return trace;
}

class RegionEnginesTest : public ::testing::TestWithParam<int> {};

TEST_P(RegionEnginesTest, EnumeratorIsTheSameUnderBothForms) {
  Rng rng(GetParam() + 91000);
  NormDb db = SmallMonadicDb(rng, std::make_shared<Vocabulary>(),
                             GetParam() % 2 == 1);
  auto ctx = SharedEnumerationContext(db);
  ASSERT_TRUE(ctx->has_masks);
  EnumerationTrace word = Enumerate<WordRegion>(db, *ctx, {});
  EnumerationTrace counter = Enumerate<CounterRegion>(db, *ctx, {});
  EXPECT_EQ(word.completed, counter.completed);
  EXPECT_EQ(word.models, counter.models);
  EXPECT_EQ(word.group_depths, counter.group_depths);
  ASSERT_FALSE(word.models.empty());
  // Seeded below the first model's first group (the sharding seam).
  const std::vector<std::vector<int>> prefix{word.models[0][0]};
  EnumerationTrace word_seeded = Enumerate<WordRegion>(db, *ctx, prefix);
  EnumerationTrace counter_seeded = Enumerate<CounterRegion>(db, *ctx, prefix);
  EXPECT_EQ(word_seeded.models, counter_seeded.models);
  EXPECT_EQ(word_seeded.group_depths, counter_seeded.group_depths);
}

TEST_P(RegionEnginesTest, BoundedWidthIsTheSameUnderBothForms) {
  Rng rng(GetParam() + 92000);
  auto vocab = std::make_shared<Vocabulary>();
  NormDb db = SmallMonadicDb(rng, vocab, /*with_neq=*/false);
  Result<NormQuery> query = NormalizeQuery(RandomConjunctiveMonadicQuery(
      rng.UniformInt(1, 5), 3, 0.4, 0.4, 0.3, vocab, rng));
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query.value().disjuncts.size(), 1u);
  const NormConjunct conjunct =
      TransitiveReduceConjunct(query.value().disjuncts[0]);
  if (conjunct.num_order_vars() == 0) GTEST_SKIP() << "empty conjunct";
  auto ctx = SharedEnumerationContext(db);
  BoundedWidthOutcome word = internal::EntailBoundedWidthOn<WordRegion>(
      db, conjunct, *ctx, /*want_countermodel=*/true, nullptr);
  BoundedWidthOutcome counter = internal::EntailBoundedWidthOn<CounterRegion>(
      db, conjunct, *ctx, /*want_countermodel=*/true, nullptr);
  EXPECT_EQ(word.entailed, counter.entailed);
  EXPECT_EQ(word.states_visited, counter.states_visited);
  ASSERT_EQ(word.countermodel.has_value(), counter.countermodel.has_value());
  if (word.countermodel.has_value()) {
    EXPECT_EQ(word.countermodel->ToString(), counter.countermodel->ToString());
  }
}

TEST_P(RegionEnginesTest, DisjunctiveIsTheSameUnderBothForms) {
  Rng rng(GetParam() + 93000);
  auto vocab = std::make_shared<Vocabulary>();
  NormDb db = SmallMonadicDb(rng, vocab, GetParam() % 2 == 1);
  Result<NormQuery> raw = NormalizeQuery(RandomDisjunctiveSequentialQuery(
      rng.UniformInt(1, GetParam() % 5 == 0 ? 7 : 3), rng.UniformInt(1, 4), 3,
      0.4, 0.2, vocab, rng));
  ASSERT_TRUE(raw.ok());
  if (raw.value().trivially_true) GTEST_SKIP() << "trivially true";
  const NormQuery query = Reduced(raw.value());
  auto ctx = SharedEnumerationContext(db);
  for (bool enumerate : {false, true}) {
    DisjunctiveTrace word = Disjunctive<WordRegion>(db, query, *ctx, enumerate);
    DisjunctiveTrace counter =
        Disjunctive<CounterRegion>(db, query, *ctx, enumerate);
    EXPECT_EQ(word.entailed, counter.entailed) << "enumerate " << enumerate;
    EXPECT_EQ(word.states, counter.states) << "enumerate " << enumerate;
    EXPECT_EQ(word.reported, counter.reported) << "enumerate " << enumerate;
    EXPECT_EQ(word.countermodels, counter.countermodels)
        << "enumerate " << enumerate;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionEnginesTest, ::testing::Range(0, 40));

// True iff `model` is a model of `db`: its point names place every point
// of the database, and the placement keeps each order edge, label and
// "!=" atom.
bool IsModelOf(const FiniteModel& model, const NormDb& db) {
  std::unordered_map<std::string, int> placed;
  for (int i = 0; i < model.num_points; ++i) {
    for (const std::string& name : SplitAndTrim(model.point_names[i], '=')) {
      placed[name] = i;
    }
  }
  std::vector<int> at(db.num_points(), -1);
  for (int p = 0; p < db.num_points(); ++p) {
    for (const std::string& name : db.point_members[p]) {
      auto it = placed.find(name);
      if (it == placed.end()) return false;
      if (at[p] != -1 && at[p] != it->second) return false;
      at[p] = it->second;
    }
    if (!db.labels[p].IsSubsetOf(model.point_labels[at[p]])) return false;
  }
  for (const LabeledEdge& e : db.dag.edges()) {
    if (e.rel == OrderRel::kLt ? at[e.from] >= at[e.to]
                               : at[e.from] > at[e.to]) {
      return false;
    }
  }
  for (const auto& [u, v] : db.inequalities) {
    if (at[u] == at[v]) return false;
  }
  return true;
}

TEST(RegionLargeTest, DisjunctiveCountermodelsAboveMaskWidthAreValid) {
  // 2-3 disjuncts over 70-80 points: the counter form only. Every
  // reported countermodel must be a model of D falsifying each disjunct.
  int checked = 0;
  for (int seed = 0; seed < 16; ++seed) {
    Rng rng(seed + 94000);
    auto vocab = std::make_shared<Vocabulary>();
    MonadicDbParams params;
    params.num_chains = 2;
    params.chain_length = rng.UniformInt(35, 40);
    params.num_predicates = 3;
    params.label_probability = 0.4;
    params.le_probability = 0.3;
    Database raw_db = RandomMonadicDb(params, vocab, rng);
    if (seed % 2 == 1) raw_db.AddNotEqual("c0_3", "c1_5");
    Result<NormDb> db = Normalize(raw_db);
    ASSERT_TRUE(db.ok());
    ASSERT_GT(db.value().num_points(), 64);
    Result<NormQuery> query = NormalizeQuery(RandomDisjunctiveSequentialQuery(
        rng.UniformInt(2, 3), rng.UniformInt(4, 6), 3, 0.5, 0.1, vocab, rng));
    ASSERT_TRUE(query.ok());
    if (query.value().trivially_true) continue;
    DisjunctiveOptions options;
    std::vector<FiniteModel> countermodels;
    options.on_countermodel = [&](const FiniteModel& model) {
      countermodels.push_back(model);
      return countermodels.size() < 25;
    };
    DisjunctiveOutcome outcome =
        EntailDisjunctive(db.value(), query.value(), options);
    EXPECT_EQ(outcome.entailed, countermodels.empty()) << "seed " << seed;
    for (const FiniteModel& model : countermodels) {
      EXPECT_TRUE(IsModelOf(model, db.value())) << "seed " << seed;
      for (const NormConjunct& disjunct : query.value().disjuncts) {
        EXPECT_FALSE(Satisfies(model, disjunct)) << "seed " << seed;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace iodb
