// Hand-checkable cases for the reference decider (tests/oracle/oracle.h).
// Each expected verdict follows from the definitions by inspection; the
// facade's answer is checked against it as well.

#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"
#include "core/parser.h"
#include "oracle/oracle.h"
#include "workload/scenarios.h"

namespace iodb {
namespace {

using oracle::Verdict;

// Decides `query_text` over `db_text` with the oracle, and checks that
// Entails() under the finite semantics gives the same answer.
Verdict DecideText(const std::string& db_text,
                   const std::string& query_text) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db = ParseDatabase(db_text, vocab);
  IODB_CHECK(db.ok());
  Result<Query> query = ParseQuery(query_text, vocab);
  IODB_CHECK(query.ok());
  Result<Verdict> verdict = oracle::Decide(db.value(), query.value());
  IODB_CHECK(verdict.ok());
  if (verdict.value() != Verdict::kInconsistent) {
    Result<EntailResult> entails = Entails(db.value(), query.value());
    EXPECT_TRUE(entails.ok()) << entails.status().ToString();
    if (entails.ok()) {
      EXPECT_EQ(entails.value().entailed,
                verdict.value() == Verdict::kEntailed)
          << query_text;
    }
  }
  return verdict.value();
}

TEST(OracleTest, EspionageUnderFiniteSemantics) {
  // Under |=Fin a finite model may omit the in-between point the
  // integrity constraint asks for, so none of the five questions is
  // entailed (scenarios_test pins twice_either and twice_someone).
  EspionageScenario s = MakeEspionageScenario();
  for (const Query* query : {&s.integrity, &s.twice_a, &s.twice_b,
                             &s.twice_either, &s.twice_someone}) {
    Result<Verdict> verdict = oracle::Decide(s.db, *query);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_EQ(verdict.value(), Verdict::kNotEntailed);
    EXPECT_FALSE(MustEntail(s.db, *query));
  }
}

TEST(OracleTest, InequalitySplitsALePair) {
  // u <= v alone allows u = v; with u != v only u < v remains.
  const std::string query = "exists s t: P(s) & Q(t) & s < t";
  EXPECT_EQ(DecideText("P(u); Q(v); u <= v", query), Verdict::kNotEntailed);
  EXPECT_EQ(DecideText("P(u); Q(v); u <= v; u != v", query),
            Verdict::kEntailed);
}

TEST(OracleTest, LeCycleForcesAMerge) {
  const std::string db = "P(u); Q(v); u <= v; v <= u";
  EXPECT_EQ(DecideText(db, "exists t: P(t) & Q(t)"), Verdict::kEntailed);
  EXPECT_EQ(DecideText(db, "exists s t: P(s) & Q(t) & s < t"),
            Verdict::kNotEntailed);
}

TEST(OracleTest, MixedSortFactThroughAnObjectVariable) {
  const std::string db = "Owns(alice, u); P(v); u < v";
  EXPECT_EQ(DecideText(db, "exists x s t: Owns(x, s) & s < t & P(t)"),
            Verdict::kEntailed);
  EXPECT_EQ(DecideText(db, "exists x s: Owns(x, s) & P(s)"),
            Verdict::kNotEntailed);
}

TEST(OracleTest, QueryConstantsDenoteThemselves) {
  const std::string db = "Owns(alice, u); Q(v); u < v";
  EXPECT_EQ(DecideText(db, "exists t: u < t & Q(t)"), Verdict::kEntailed);
  EXPECT_EQ(DecideText(db, "exists t: Q(t) & t < u"), Verdict::kNotEntailed);
  EXPECT_EQ(DecideText(db, "exists s: Owns(alice, s) & s < v"),
            Verdict::kEntailed);

  // A constant D does not mention is rejected, not given a meaning.
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> parsed = ParseDatabase(db, vocab);
  ASSERT_TRUE(parsed.ok());
  for (const char* text : {"exists t: w < t", "exists s: Owns(bob, s)"}) {
    Result<Query> query = ParseQuery(text, vocab);
    ASSERT_TRUE(query.ok());
    Result<Verdict> verdict = oracle::Decide(parsed.value(), query.value());
    ASSERT_FALSE(verdict.ok()) << text;
    EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(OracleTest, DisjunctionEntailedOnlyByCaseSplit) {
  // a and b are unordered: each disjunct fails in one of the two orders,
  // but every model satisfies one of them.
  const std::string db = "pred P(order); pred Q(order); P(a); Q(b)";
  const std::string first = "exists x y: P(x) & Q(y) & x <= y";
  const std::string second = "exists x y: Q(x) & P(y) & x <= y";
  EXPECT_EQ(DecideText(db, first), Verdict::kNotEntailed);
  EXPECT_EQ(DecideText(db, second), Verdict::kNotEntailed);
  EXPECT_EQ(DecideText(db, first + " | " + second), Verdict::kEntailed);
}

TEST(OracleTest, InconsistentDatabase) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db = ParseDatabase("P(a); a < b; b < a", vocab);
  ASSERT_TRUE(db.ok());
  Result<Query> query = ParseQuery("exists t: P(t)", vocab);
  ASSERT_TRUE(query.ok());
  Result<Verdict> verdict = oracle::Decide(db.value(), query.value());
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.value(), Verdict::kInconsistent);
  // The facade reports the same fact as an error status.
  Result<EntailResult> entails = Entails(db.value(), query.value());
  ASSERT_FALSE(entails.ok());
  EXPECT_EQ(entails.status().code(), StatusCode::kInconsistent);
}

}  // namespace
}  // namespace iodb
