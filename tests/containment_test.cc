// Proposition 2.10: containment of relational conjunctive queries with
// inequalities via indefinite-order entailment, cross-validated against
// the Chandra–Merlin homomorphism test on the order-free fragment and,
// with order atoms and inequalities, against the reference decider
// (tests/oracle/oracle.h) on the frozen body of Q1.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "containment/containment.h"
#include "containment/relational.h"
#include "core/parser.h"
#include "oracle/oracle.h"
#include "util/random.h"
#include "util/strings.h"

namespace iodb {
namespace {

RelationalQuery MakeQuery(QueryConjunct body, std::vector<std::string> head) {
  return RelationalQuery{std::move(body), std::move(head)};
}

TEST(ContainmentTest, ClassicHomomorphismCase) {
  // Q1 = {(): E(x,y) ∧ E(y,z)} ⊆ Q2 = {(): E(u,v)}: contained.
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("E", {Sort::kObject, Sort::kObject});
  QueryConjunct b1;
  b1.Exists("x").Exists("y").Exists("z");
  b1.Atom("E", {"x", "y"}).Atom("E", {"y", "z"});
  QueryConjunct b2;
  b2.Exists("u").Exists("v");
  b2.Atom("E", {"u", "v"});
  RelationalQuery q1 = MakeQuery(b1, {});
  RelationalQuery q2 = MakeQuery(b2, {});

  Result<ContainmentResult> forward =
      Contained(q1, q2, vocab, OrderSemantics::kFinite);
  ASSERT_TRUE(forward.ok());
  EXPECT_TRUE(forward.value().contained);
  Result<bool> hom_fwd = HomomorphismContained(q1, q2);
  ASSERT_TRUE(hom_fwd.ok());
  EXPECT_TRUE(hom_fwd.value());

  // Reverse fails: a single edge need not extend to a 2-path.
  Result<ContainmentResult> backward =
      Contained(q2, q1, vocab, OrderSemantics::kFinite);
  ASSERT_TRUE(backward.ok());
  EXPECT_FALSE(backward.value().contained);
  Result<bool> hom_bwd = HomomorphismContained(q2, q1);
  ASSERT_TRUE(hom_bwd.ok());
  EXPECT_FALSE(hom_bwd.value());
}

TEST(ContainmentTest, HeadVariablesRespected) {
  // Q1 = {x : E(x,y)} vs Q2 = {x : E(x,x)}: not contained (Q2 demands a
  // self-loop); the converse holds.
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("E", {Sort::kObject, Sort::kObject});
  QueryConjunct b1;
  b1.Exists("x").Exists("y");
  b1.Atom("E", {"x", "y"});
  QueryConjunct b2;
  b2.Exists("x");
  b2.Atom("E", {"x", "x"});
  RelationalQuery q1 = MakeQuery(b1, {"x"});
  RelationalQuery q2 = MakeQuery(b2, {"x"});

  Result<ContainmentResult> r12 =
      Contained(q1, q2, vocab, OrderSemantics::kFinite);
  ASSERT_TRUE(r12.ok());
  EXPECT_FALSE(r12.value().contained);
  Result<ContainmentResult> r21 =
      Contained(q2, q1, vocab, OrderSemantics::kFinite);
  ASSERT_TRUE(r21.ok());
  EXPECT_TRUE(r21.value().contained);
}

TEST(ContainmentTest, OrderAtomsInBodies) {
  // Q1 = {(): A(t1) ∧ A(t2) ∧ A(t3) ∧ t1<t2<t3} ⊆ {(): A(s1) ∧ A(s2) ∧
  // s1<s2} but not conversely.
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("A", {Sort::kOrder});
  QueryConjunct b1;
  b1.Exists("t1").Exists("t2").Exists("t3");
  b1.Atom("A", {"t1"}).Atom("A", {"t2"}).Atom("A", {"t3"});
  b1.Order("t1", OrderRel::kLt, "t2").Order("t2", OrderRel::kLt, "t3");
  QueryConjunct b2;
  b2.Exists("s1").Exists("s2");
  b2.Atom("A", {"s1"}).Atom("A", {"s2"});
  b2.Order("s1", OrderRel::kLt, "s2");
  RelationalQuery q1 = MakeQuery(b1, {});
  RelationalQuery q2 = MakeQuery(b2, {});

  Result<ContainmentResult> fwd =
      Contained(q1, q2, vocab, OrderSemantics::kFinite);
  ASSERT_TRUE(fwd.ok());
  EXPECT_TRUE(fwd.value().contained);
  Result<ContainmentResult> bwd =
      Contained(q2, q1, vocab, OrderSemantics::kFinite);
  ASSERT_TRUE(bwd.ok());
  EXPECT_FALSE(bwd.value().contained);
  // The homomorphism test refuses order atoms.
  EXPECT_FALSE(HomomorphismContained(q1, q2).ok());
}

TEST(ContainmentTest, LeVersusLtContainment) {
  // {(): A(t1) ∧ A(t2) ∧ t1<t2} ⊆ {(): A(s1) ∧ A(s2) ∧ s1<=s2}: yes.
  // The converse: s1<=s2 can be witnessed with s1=s2, so no.
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("A", {Sort::kOrder});
  QueryConjunct strict;
  strict.Exists("t1").Exists("t2");
  strict.Atom("A", {"t1"}).Atom("A", {"t2"});
  strict.Order("t1", OrderRel::kLt, "t2");
  QueryConjunct weak;
  weak.Exists("s1").Exists("s2");
  weak.Atom("A", {"s1"}).Atom("A", {"s2"});
  weak.Order("s1", OrderRel::kLe, "s2");
  RelationalQuery q_strict = MakeQuery(strict, {});
  RelationalQuery q_weak = MakeQuery(weak, {});

  Result<ContainmentResult> fwd =
      Contained(q_strict, q_weak, vocab, OrderSemantics::kFinite);
  ASSERT_TRUE(fwd.ok());
  EXPECT_TRUE(fwd.value().contained);
  Result<ContainmentResult> bwd =
      Contained(q_weak, q_strict, vocab, OrderSemantics::kFinite);
  ASSERT_TRUE(bwd.ok());
  EXPECT_FALSE(bwd.value().contained);
}

TEST(ContainmentTest, HomomorphismAgreesOnRandomOrderFreeQueries) {
  Rng rng(99);
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("R", {Sort::kObject, Sort::kObject});
  for (int trial = 0; trial < 40; ++trial) {
    auto random_body = [&](const std::string& prefix) {
      QueryConjunct body;
      int num_vars = rng.UniformInt(2, 4);
      for (int i = 0; i < num_vars; ++i) {
        body.Exists(prefix + std::to_string(i));
      }
      int num_atoms = rng.UniformInt(1, 4);
      for (int a = 0; a < num_atoms; ++a) {
        std::string lhs = prefix + std::to_string(rng.UniformInt(0, num_vars - 1));
        std::string rhs = prefix + std::to_string(rng.UniformInt(0, num_vars - 1));
        body.Atom("R", {lhs, rhs});
      }
      return body;
    };
    RelationalQuery q1 = MakeQuery(random_body("x"), {});
    RelationalQuery q2 = MakeQuery(random_body("y"), {});
    Result<bool> hom = HomomorphismContained(q1, q2);
    ASSERT_TRUE(hom.ok());
    Result<ContainmentResult> red =
        Contained(q1, q2, vocab, OrderSemantics::kFinite);
    ASSERT_TRUE(red.ok());
    EXPECT_EQ(hom.value(), red.value().contained) << "trial " << trial;
  }
}

// A random body over order variables prefix0..prefix{n-1}: unary A/B and
// binary E atoms, order atoms and (when `neq`) inequalities, kept both as
// a QueryConjunct and as text atoms whose variable names are substituted
// through `name` (so the same atoms can be frozen or re-headed).
struct RandomBody {
  std::vector<std::string> vars;
  // Each atom: predicate or relation, then its arguments.
  std::vector<std::vector<std::string>> atoms;

  RandomBody(Rng& rng, const std::string& prefix, bool forward_only,
             bool neq) {
    const int n = rng.UniformInt(1, 4);
    for (int i = 0; i < n; ++i) vars.push_back(prefix + std::to_string(i));
    for (int i = 0; i < n; ++i) {
      // Every variable occurs in some atom.
      atoms.push_back({rng.Bernoulli(0.5) ? "A" : "B", vars[i]});
      if (rng.Bernoulli(0.3)) atoms.push_back({"A", vars[i]});
    }
    const int num_relational = rng.UniformInt(0, 4);
    for (int k = 0; k < num_relational && n > 1; ++k) {
      int i = rng.UniformInt(0, n - 1);
      int j = rng.UniformInt(0, n - 1);
      if (i == j) continue;
      if (forward_only && i > j) std::swap(i, j);
      switch (rng.UniformInt(0, neq ? 3 : 2)) {
        case 0: atoms.push_back({"<", vars[i], vars[j]}); break;
        case 1: atoms.push_back({"<=", vars[i], vars[j]}); break;
        case 2: atoms.push_back({"E", vars[i], vars[j]}); break;
        default: atoms.push_back({"!=", vars[i], vars[j]}); break;
      }
    }
  }

  QueryConjunct Conjunct() const {
    QueryConjunct body;
    for (const std::string& v : vars) body.Exists(v);
    for (const std::vector<std::string>& a : atoms) {
      if (a[0] == "<" || a[0] == "<=") {
        body.Order(a[1], a[0] == "<" ? OrderRel::kLt : OrderRel::kLe, a[2]);
      } else if (a[0] == "!=") {
        body.NotEqual(a[1], a[2]);
      } else {
        body.Atom(a[0], std::vector<std::string>(a.begin() + 1, a.end()));
      }
    }
    return body;
  }

  std::vector<std::string> Text(
      const std::function<std::string(const std::string&)>& name) const {
    std::vector<std::string> out;
    for (const std::vector<std::string>& a : atoms) {
      if (a[0] == "<" || a[0] == "<=" || a[0] == "!=") {
        out.push_back(name(a[1]) + " " + a[0] + " " + name(a[2]));
      } else {
        std::string atom = a[0] + "(" + name(a[1]);
        for (size_t k = 2; k < a.size(); ++k) atom += ", " + name(a[k]);
        out.push_back(atom + ")");
      }
    }
    return out;
  }
};

VocabularyPtr KlugVocabulary() {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("A", {Sort::kOrder});
  vocab->MustAddPredicate("B", {Sort::kOrder});
  vocab->MustAddPredicate("E", {Sort::kOrder, Sort::kOrder});
  return vocab;
}

TEST(ContainmentTest, OrderedPairsMatchTheOracleOnTheFrozenBody) {
  // Proposition 2.10 checked end to end: Q1's body with its variables
  // frozen into constants is a database; Q1 ⊆ Q2 iff that database
  // entails Q2 with the head pinned to Q1's frozen head. The oracle
  // decides the entailment from the definition, on its own freezing.
  Rng rng(2010);
  int contained = 0;
  int not_contained = 0;
  for (int trial = 0; trial < 150; ++trial) {
    RandomBody b1(rng, "x", /*forward_only=*/true, /*neq=*/true);
    RandomBody b2(rng, "y", /*forward_only=*/false, /*neq=*/false);
    const bool headed = rng.Bernoulli(0.5);
    RelationalQuery q1 =
        MakeQuery(b1.Conjunct(), headed ? std::vector<std::string>{"x0"}
                                        : std::vector<std::string>{});
    RelationalQuery q2 =
        MakeQuery(b2.Conjunct(), headed ? std::vector<std::string>{"y0"}
                                        : std::vector<std::string>{});

    auto same = [](const std::string& v) { return v; };
    std::string db_text;
    for (const std::string& atom : b1.Text(same)) db_text += atom + "\n";
    std::string query_text = "exists";
    for (const std::string& v : b2.vars) {
      if (!(headed && v == "y0")) query_text += " " + v;
    }
    auto pinned = [&](const std::string& v) {
      return headed && v == "y0" ? std::string("x0") : v;
    };
    query_text += ": " + Join(b2.Text(pinned), " & ");
    auto oracle_vocab = KlugVocabulary();
    Result<Database> db = ParseDatabase(db_text, oracle_vocab);
    ASSERT_TRUE(db.ok()) << db_text;
    Result<Query> query = ParseQuery(query_text, oracle_vocab);
    ASSERT_TRUE(query.ok()) << query_text;

    for (OrderSemantics semantics :
         {OrderSemantics::kFinite, OrderSemantics::kInteger,
          OrderSemantics::kRational}) {
      Result<oracle::Verdict> verdict =
          oracle::Decide(db.value(), query.value(), semantics);
      ASSERT_TRUE(verdict.ok());
      ASSERT_NE(verdict.value(), oracle::Verdict::kInconsistent);
      Result<ContainmentResult> result =
          Contained(q1, q2, KlugVocabulary(), semantics);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result.value().contained,
                verdict.value() == oracle::Verdict::kEntailed)
          << "trial " << trial << "\nQ1 body: " << db_text
          << "Q2: " << query_text;
      ++(result.value().contained ? contained : not_contained);
    }
  }
  EXPECT_GT(contained, 30);
  EXPECT_GT(not_contained, 30);
}

TEST(AnswerSetTest, SimpleJoin) {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("E", {Sort::kObject, Sort::kObject});
  // Model: objects a, b, c with E(a,b), E(b,c).
  FiniteModel model;
  model.vocab = vocab;
  model.object_names = {"a", "b", "c"};
  model.other_facts.push_back(
      {*vocab->FindPredicate("E"),
       {{Sort::kObject, 0}, {Sort::kObject, 1}}});
  model.other_facts.push_back(
      {*vocab->FindPredicate("E"),
       {{Sort::kObject, 1}, {Sort::kObject, 2}}});

  QueryConjunct body;
  body.Exists("x").Exists("y").Exists("z");
  body.Atom("E", {"x", "y"}).Atom("E", {"y", "z"});
  RelationalQuery query = MakeQuery(body, {"x", "z"});
  Result<std::vector<AnswerTuple>> answers =
      AnswerSet(model, query, *vocab);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers.value().size(), 1u);
  EXPECT_EQ(answers.value()[0][0].id, 0);  // x = a
  EXPECT_EQ(answers.value()[0][1].id, 2);  // z = c
}

TEST(AnswerSetTest, OrderedModel) {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("A", {Sort::kOrder});
  FiniteModel model;
  model.vocab = vocab;
  model.num_points = 3;
  model.point_labels.assign(3, PredSet(1));
  model.point_labels[0].Add(0);
  model.point_labels[2].Add(0);

  QueryConjunct body;
  body.Exists("t").Exists("s");
  body.Atom("A", {"t"}).Atom("A", {"s"});
  body.Order("t", OrderRel::kLt, "s");
  RelationalQuery query = MakeQuery(body, {"t", "s"});
  Result<std::vector<AnswerTuple>> answers =
      AnswerSet(model, query, *vocab);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers.value().size(), 1u);
  EXPECT_EQ(answers.value()[0][0].id, 0);
  EXPECT_EQ(answers.value()[0][1].id, 2);
}

TEST(ContainmentTest, ArityMismatchRejected) {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("E", {Sort::kObject, Sort::kObject});
  QueryConjunct b;
  b.Exists("x").Exists("y");
  b.Atom("E", {"x", "y"});
  Result<ContainmentResult> r =
      Contained(MakeQuery(b, {"x"}), MakeQuery(b, {}), vocab,
                OrderSemantics::kFinite);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace iodb
