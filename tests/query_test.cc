#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/printer.h"
#include "core/query.h"
#include "graph/width.h"
#include "util/random.h"

namespace iodb {
namespace {

VocabularyPtr MonadicVocab() {
  auto vocab = std::make_shared<Vocabulary>();
  for (const char* name : {"P", "Q", "R", "S"}) {
    vocab->MustAddPredicate(name, {Sort::kOrder});
  }
  return vocab;
}

// The Figure 5 query: ∃t1..t4 [P(t1) Q(t1) P(t2) R(t3) S(t4) ∧
// t1<t2<t3 ∧ t2<=t4].
Query Fig5Query(VocabularyPtr vocab) {
  Query query(std::move(vocab));
  QueryConjunct& c = query.AddDisjunct();
  c.Exists("t1").Exists("t2").Exists("t3").Exists("t4");
  c.Atom("P", {"t1"}).Atom("Q", {"t1"}).Atom("P", {"t2"});
  c.Atom("R", {"t3"}).Atom("S", {"t4"});
  c.Order("t1", OrderRel::kLt, "t2");
  c.Order("t2", OrderRel::kLt, "t3");
  c.Order("t2", OrderRel::kLe, "t4");
  return query;
}

TEST(QueryTest, BuilderAndConstants) {
  auto vocab = MonadicVocab();
  Query query(vocab);
  QueryConjunct& c = query.AddDisjunct();
  c.Exists("t");
  c.Atom("P", {"t"});
  EXPECT_FALSE(query.HasConstants());
  QueryConjunct& d = query.AddDisjunct();
  d.Atom("P", {"u0"});  // u0 not declared: a constant
  EXPECT_TRUE(query.HasConstants());
}

TEST(NormalizeQueryTest, Fig5Structure) {
  Result<NormQuery> norm = NormalizeQuery(Fig5Query(MonadicVocab()));
  ASSERT_TRUE(norm.ok());
  ASSERT_EQ(norm.value().disjuncts.size(), 1u);
  const NormConjunct& c = norm.value().disjuncts[0];
  EXPECT_EQ(c.num_order_vars(), 4);
  EXPECT_EQ(c.dag.num_edges(), 3);
  EXPECT_EQ(c.Width(), 2);
  EXPECT_FALSE(c.IsSequential());
  EXPECT_TRUE(c.IsMonadicOrderOnly());
  EXPECT_TRUE(c.IsTight());
  EXPECT_TRUE(norm.value().IsConjunctive());
}

TEST(NormalizeQueryTest, SortInference) {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("B", {Sort::kObject, Sort::kOrder});
  Query query(vocab);
  QueryConjunct& c = query.AddDisjunct();
  c.Exists("x").Exists("t").Exists("s");
  c.Atom("B", {"x", "t"});
  c.Order("t", OrderRel::kLt, "s");
  Result<NormQuery> norm = NormalizeQuery(query);
  ASSERT_TRUE(norm.ok());
  const NormConjunct& nc = norm.value().disjuncts[0];
  EXPECT_EQ(nc.num_object_vars(), 1);
  EXPECT_EQ(nc.num_order_vars(), 2);
  EXPECT_FALSE(nc.IsMonadicOrderOnly());
  EXPECT_FALSE(nc.IsTight());  // s occurs in no proper atom
}

TEST(NormalizeQueryTest, ConflictingSortsRejected) {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("Obj", {Sort::kObject});
  Query query(vocab);
  QueryConjunct& c = query.AddDisjunct();
  c.Exists("x");
  c.Atom("Obj", {"x"});
  c.Order("x", OrderRel::kLt, "x");  // x also used as order-sort
  EXPECT_FALSE(NormalizeQuery(query).ok());
}

TEST(NormalizeQueryTest, UnknownPredicateRejected) {
  Query query(std::make_shared<Vocabulary>());
  query.AddDisjunct().Exists("t").Atom("Nope", {"t"});
  EXPECT_FALSE(NormalizeQuery(query).ok());
}

TEST(NormalizeQueryTest, ConstantsRejected) {
  Query query(MonadicVocab());
  query.AddDisjunct().Atom("P", {"c"});  // c undeclared: a constant
  EXPECT_FALSE(NormalizeQuery(query).ok());
}

TEST(NormalizeQueryTest, InconsistentDisjunctDropped) {
  auto vocab = MonadicVocab();
  Query query(vocab);
  QueryConjunct& bad = query.AddDisjunct();
  bad.Exists("t").Exists("s");
  bad.Order("t", OrderRel::kLt, "s");
  bad.Order("s", OrderRel::kLe, "t");
  QueryConjunct& good = query.AddDisjunct();
  good.Exists("t").Atom("P", {"t"});
  Result<NormQuery> norm = NormalizeQuery(query);
  ASSERT_TRUE(norm.ok());
  EXPECT_EQ(norm.value().disjuncts.size(), 1u);
  EXPECT_FALSE(norm.value().trivially_true);
}

TEST(NormalizeQueryTest, VariableMergingUnionsLabels) {
  auto vocab = MonadicVocab();
  Query query(vocab);
  QueryConjunct& c = query.AddDisjunct();
  c.Exists("t").Exists("s");
  c.Atom("P", {"t"}).Atom("Q", {"s"});
  c.Order("t", OrderRel::kLe, "s");
  c.Order("s", OrderRel::kLe, "t");
  Result<NormQuery> norm = NormalizeQuery(query);
  ASSERT_TRUE(norm.ok());
  const NormConjunct& nc = norm.value().disjuncts[0];
  EXPECT_EQ(nc.num_order_vars(), 1);
  EXPECT_EQ(nc.labels[0].Count(), 2);
  EXPECT_TRUE(nc.IsSequential());
}

TEST(NormalizeQueryTest, SelfInequalityInconsistent) {
  auto vocab = MonadicVocab();
  Query query(vocab);
  QueryConjunct& c = query.AddDisjunct();
  c.Exists("t").Exists("s");
  c.Order("t", OrderRel::kLe, "s");
  c.Order("s", OrderRel::kLe, "t");
  c.NotEqual("t", "s");  // t = s forced: contradiction
  Result<NormQuery> norm = NormalizeQuery(query);
  ASSERT_TRUE(norm.ok());
  EXPECT_TRUE(norm.value().disjuncts.empty());
}

TEST(NormalizeQueryTest, EmptyConjunctTriviallyTrue) {
  Query query(MonadicVocab());
  query.AddDisjunct();  // no atoms, no variables
  Result<NormQuery> norm = NormalizeQuery(query);
  ASSERT_TRUE(norm.ok());
  EXPECT_TRUE(norm.value().trivially_true);
}

TEST(FullClosureTest, AddsDerivedAtoms) {
  // The Section 2 example: u <= v, v <= w, derived u <= w; with v < w the
  // derived edge is u < w.
  auto vocab = MonadicVocab();
  Query query(vocab);
  QueryConjunct& c = query.AddDisjunct();
  c.Exists("u").Exists("v").Exists("w");
  c.Atom("P", {"u"}).Atom("P", {"v"}).Atom("P", {"w"});
  c.Order("u", OrderRel::kLe, "v");
  c.Order("v", OrderRel::kLt, "w");
  Result<NormQuery> norm = NormalizeQuery(query);
  ASSERT_TRUE(norm.ok());
  NormConjunct full = FullClosure(norm.value().disjuncts[0]);
  EXPECT_EQ(full.dag.num_edges(), 3);
  bool found_uw = false;
  for (const LabeledEdge& e : full.dag.edges()) {
    if (full.order_var_names[e.from] == "u" &&
        full.order_var_names[e.to] == "w") {
      found_uw = true;
      EXPECT_EQ(e.rel, OrderRel::kLt);
    }
  }
  EXPECT_TRUE(found_uw);
}

TEST(DropNonProperVarsTest, Lemma25Example) {
  // Section 2's example: ∃u v w [P(u,w)-like monadic variant]:
  // P(u), P(w), u <= v, v <= w, u <= w (full); dropping v leaves
  // ∃u w [P(u) ∧ P(w) ∧ u <= w].
  auto vocab = MonadicVocab();
  Query query(vocab);
  QueryConjunct& c = query.AddDisjunct();
  c.Exists("u").Exists("v").Exists("w");
  c.Atom("P", {"u"}).Atom("P", {"w"});
  c.Order("u", OrderRel::kLe, "v");
  c.Order("v", OrderRel::kLe, "w");
  Result<NormQuery> norm = NormalizeQuery(query);
  ASSERT_TRUE(norm.ok());
  NormConjunct full = FullClosure(norm.value().disjuncts[0]);
  NormConjunct dropped = DropNonProperVars(full);
  EXPECT_EQ(dropped.num_order_vars(), 2);
  ASSERT_EQ(dropped.dag.num_edges(), 1);
  EXPECT_EQ(dropped.dag.edges()[0].rel, OrderRel::kLe);
  EXPECT_TRUE(dropped.IsTight());
}

TEST(EliminateConstantsTest, MarkerConstruction) {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("P", {Sort::kOrder});
  Database db(vocab);
  EXPECT_TRUE(db.AddFact("P", {"u"}).ok());
  Query query(vocab);
  QueryConjunct& c = query.AddDisjunct();
  c.Exists("t");
  c.Atom("P", {"t"});
  c.Order("u", OrderRel::kLt, "t");  // u is a database constant

  Result<ConstantFreePair> pair = EliminateConstants(db, query);
  ASSERT_TRUE(pair.ok());
  EXPECT_FALSE(pair.value().query.HasConstants());
  // The marker fact @is_u(u) was added to the database copy.
  bool found = false;
  for (const ProperAtom& atom : pair.value().db.proper_atoms()) {
    if (pair.value().db.vocab()->predicate(atom.pred).name == "@is_u") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  Result<NormQuery> norm = NormalizeQuery(pair.value().query);
  ASSERT_TRUE(norm.ok());
  EXPECT_EQ(norm.value().disjuncts[0].num_order_vars(), 2);
}

// Regression (run under ASan in CI): a proper atom carrying two constants.
// The copied conjunct's atom vector is full, so the first constant's
// marker atom reallocates it while the rewrite is still on the atom's
// second argument; the rewrite must not write through a stale reference.
TEST(ShiftConstantsTest, MarkerAtomsDoNotInvalidateTheAtomBeingRewritten) {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("R", {Sort::kOrder, Sort::kOrder});
  Query query(vocab);
  query.AddDisjunct().Exists("t").Atom("R", {"a", "t"}).Atom("R",
                                                             {"t", "b"});
  query.AddDisjunct().Atom("R", {"a", "b"});

  Result<ConstantShift> shift = ShiftConstants(query);
  ASSERT_TRUE(shift.ok()) << shift.status().ToString();
  EXPECT_FALSE(shift.value().query.HasConstants());
  ASSERT_EQ(shift.value().markers.size(), 2u);
  EXPECT_EQ(shift.value().markers[0].constant, "a");
  EXPECT_EQ(shift.value().markers[1].constant, "b");

  auto render = [](const QueryProperAtom& atom) {
    std::string out = atom.pred + "(";
    for (size_t i = 0; i < atom.args.size(); ++i) {
      out += (i > 0 ? "," : "") + atom.args[i].name;
    }
    return out + ")";
  };
  auto atoms_of = [&](size_t d) {
    std::vector<std::string> out;
    for (const QueryProperAtom& atom :
         shift.value().query.disjuncts()[d].proper_atoms) {
      out.push_back(render(atom));
    }
    return out;
  };
  EXPECT_EQ(atoms_of(0),
            (std::vector<std::string>{"R(@v_a,t)", "R(t,@v_b)",
                                      "@is_a(@v_a)", "@is_b(@v_b)"}));
  EXPECT_EQ(atoms_of(1),
            (std::vector<std::string>{"R(@v_a,@v_b)", "@is_a(@v_a)",
                                      "@is_b(@v_b)"}));
}

TEST(NormQueryTest, MaxOrderVars) {
  auto vocab = MonadicVocab();
  Query query(vocab);
  query.AddDisjunct().Exists("t").Atom("P", {"t"});
  QueryConjunct& big = query.AddDisjunct();
  big.Exists("a").Exists("b").Exists("c");
  big.Atom("P", {"a"}).Atom("P", {"b"}).Atom("P", {"c"});
  Result<NormQuery> norm = NormalizeQuery(query);
  ASSERT_TRUE(norm.ok());
  EXPECT_EQ(norm.value().MaxOrderVars(), 3);
  EXPECT_FALSE(norm.value().IsConjunctive());
}

TEST(PrinterTest, NormQueryRendering) {
  Result<NormQuery> norm = NormalizeQuery(Fig5Query(MonadicVocab()));
  ASSERT_TRUE(norm.ok());
  std::string text = ToString(norm.value());
  EXPECT_NE(text.find("P(t1)"), std::string::npos);
  EXPECT_NE(text.find("t1<t2"), std::string::npos);
}

// A vocabulary with monadic order labels, an object predicate and a
// mixed binary one, for conjuncts of both sorts.
VocabularyPtr MixedVocab() {
  VocabularyPtr vocab = MonadicVocab();
  vocab->MustAddPredicate("Obj", {Sort::kObject});
  vocab->MustAddPredicate("At", {Sort::kObject, Sort::kOrder});
  return vocab;
}

// A random conjunct over order variables t0..t{order_vars-1} and object
// variables x0..: labels, object facts, "At" links and inequalities, and
// order atoms t_i -> t_j (i < j) with probability `edge_probability`.
// Declaration order is shuffled, so the normalized ids do not follow it.
QueryConjunct RandomConjunct(int order_vars, double edge_probability,
                             Rng& rng) {
  QueryConjunct conjunct;
  std::vector<std::string> names;
  for (int t = 0; t < order_vars; ++t) names.push_back("t" + std::to_string(t));
  const int object_vars = rng.UniformInt(0, 2);
  for (int x = 0; x < object_vars; ++x) names.push_back("x" + std::to_string(x));
  for (size_t i = names.size(); i > 1; --i) {
    std::swap(names[i - 1], names[rng.Uniform(i)]);
  }
  for (const std::string& name : names) conjunct.Exists(name);
  const char* labels[] = {"P", "Q", "R", "S"};
  for (int t = 0; t < order_vars; ++t) {
    const std::string var = "t" + std::to_string(t);
    for (int l = rng.UniformInt(0, 2); l > 0; --l) {
      conjunct.Atom(labels[rng.Uniform(4)], {var});
    }
    for (int u = t + 1; u < order_vars; ++u) {
      if (rng.Bernoulli(edge_probability)) {
        conjunct.Order(var, rng.Bernoulli(0.5) ? OrderRel::kLt : OrderRel::kLe,
                       "t" + std::to_string(u));
      }
      if (rng.Bernoulli(0.15)) conjunct.NotEqual(var, "t" + std::to_string(u));
    }
  }
  for (int x = 0; x < object_vars; ++x) {
    const std::string var = "x" + std::to_string(x);
    if (rng.Bernoulli(0.5)) conjunct.Atom("Obj", {var});
    if (order_vars > 0 && rng.Bernoulli(0.5)) {
      conjunct.Atom("At", {var, "t" + std::to_string(rng.Uniform(order_vars))});
    }
  }
  return conjunct;
}

TEST(NormalizeQueryTest, EdgeFreeConjunctNormalizesLikeTheTarjanPath) {
  // A conjunct with no order atom skips the SCC pass; adding t0 <= t0
  // (dropped by rule N2) forces it. Both must give the same conjunct.
  VocabularyPtr vocab = MixedVocab();
  Rng rng(424242);
  for (int i = 0; i < 200; ++i) {
    const QueryConjunct conjunct =
        RandomConjunct(rng.UniformInt(1, 5), /*edge_probability=*/0, rng);
    QueryConjunct looped = conjunct;
    looped.Order("t0", OrderRel::kLe, "t0");
    Query plain(vocab);
    plain.AddDisjunct(conjunct);
    Query forced(vocab);
    forced.AddDisjunct(std::move(looped));
    Result<NormQuery> a = NormalizeQuery(plain);
    Result<NormQuery> b = NormalizeQuery(forced);
    ASSERT_TRUE(a.ok()) << i;
    ASSERT_TRUE(b.ok()) << i;
    ASSERT_EQ(a.value().disjuncts.size(), 1u) << i;
    ASSERT_EQ(b.value().disjuncts.size(), 1u) << i;
    const NormConjunct& x = a.value().disjuncts[0];
    const NormConjunct& y = b.value().disjuncts[0];
    EXPECT_EQ(x.order_var_names, y.order_var_names) << i;
    EXPECT_EQ(x.object_var_names, y.object_var_names) << i;
    EXPECT_EQ(x.labels, y.labels) << i;
    EXPECT_EQ(x.dag.num_vertices(), y.dag.num_vertices()) << i;
    EXPECT_EQ(x.dag.edges(), y.dag.edges()) << i;
    EXPECT_EQ(x.other_atoms, y.other_atoms) << i;
    EXPECT_EQ(x.inequalities, y.inequalities) << i;
  }
}

TEST(NormConjunctTest, WidthMatchesDagWidth) {
  VocabularyPtr vocab = MixedVocab();
  Rng rng(97);
  for (int i = 0; i < 300; ++i) {
    const double edge_probability = i % 2 == 0 ? 0.0 : 0.5;
    Query query(vocab);
    query.AddDisjunct(RandomConjunct(rng.UniformInt(0, 5), edge_probability,
                                     rng));
    Result<NormQuery> norm = NormalizeQuery(query);
    ASSERT_TRUE(norm.ok()) << i;
    for (const NormConjunct& conjunct : norm.value().disjuncts) {
      EXPECT_EQ(conjunct.Width(), DagWidth(conjunct.dag)) << i;
    }
  }
}

TEST(NormalizeQueryTest, ErrorTextsForUnknownPredicatesAndArity) {
  VocabularyPtr vocab = MixedVocab();
  Query unknown(vocab);
  unknown.AddDisjunct().Exists("t").Atom("P", {"t"}).Atom("Nope", {"t"});
  Result<NormQuery> a = NormalizeQuery(unknown);
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(a.status().message(), "unknown predicate 'Nope' in query");

  Query arity(vocab);
  arity.AddDisjunct().Exists("t").Exists("u").Atom("P", {"t", "u"});
  Result<NormQuery> b = NormalizeQuery(arity);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(b.status().message(), "arity mismatch for 'P' in query");
}

}  // namespace
}  // namespace iodb
