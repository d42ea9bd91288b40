// Ingest tests: the database parser and the statistics layer against
// references that build the same content the straightforward way.
//
//   * ParserDifferential: seeded database texts (order chains with <, <=
//     and !=, unary and binary facts over order and object constants,
//     pred declarations, comments, ';' and CRLF separators) must parse to
//     exactly the database built statement by statement through the
//     public Database API — printer text, both constant tables, the atom
//     vectors, revision() and the vocabulary — or fail with the same
//     error text after the same vocabulary registrations.
//   * ParserErrorTexts: a table of malformed inputs and their messages.
//   * StatsReference: CollectStats against a per-predicate set / ordered
//     map reference on random databases (binary facts, object constants,
//     inconsistent order atoms, more than kMaxLabelPairs label pairs with
//     ties at the cut): operator== and byte-equal EncodeStats.
//   * CostModelGolden: fingerprint() and EstimateConjunct on a fixed set.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/parser.h"
#include "core/printer.h"
#include "core/query.h"
#include "graph/topo.h"
#include "stats/cost_model.h"
#include "stats/stats.h"
#include "util/random.h"

namespace iodb {
namespace {

// --- parser differential ---------------------------------------------------

// One generated statement. kChain: `args` are the terms and `rels` the
// relations between them ("<", "<=", "!=").
struct Stmt {
  enum Kind { kDecl, kAtom, kChain } kind;
  std::string name;
  std::vector<std::string> args;
  std::vector<std::string> rels;
};

struct PredShape {
  const char* name;
  std::vector<Sort> sorts;
};

const std::vector<PredShape>& Shapes() {
  static const std::vector<PredShape> shapes = {
      {"P0", {Sort::kOrder}},
      {"P1", {Sort::kOrder}},
      {"Late'", {Sort::kOrder}},
      {"O0", {Sort::kObject}},
      {"O_1", {Sort::kObject}},
      {"R", {Sort::kOrder, Sort::kObject}},
      {"S", {Sort::kOrder, Sort::kOrder}},
      {"T", {Sort::kObject, Sort::kObject}},
  };
  return shapes;
}

std::vector<Stmt> RandomStatements(Rng& rng) {
  static const std::vector<std::string> kOrderNames = {
      "u0", "u1", "u2", "u3", "u4", "u5", "t_2", "v'", "@w", "x9'", "_z"};
  static const std::vector<std::string> kObjectNames = {"a0", "a1", "Bob",
                                                        "_o", "c'"};
  std::vector<Stmt> statements;
  std::vector<std::string> chain_terms;
  const int chains = rng.UniformInt(0, 4);
  for (int c = 0; c < chains; ++c) {
    Stmt chain{Stmt::kChain, "", {}, {}};
    const int length = rng.UniformInt(2, 5);
    for (int i = 0; i < length; ++i) {
      chain.args.push_back(rng.Pick(kOrderNames));
      chain_terms.push_back(chain.args.back());
      if (i > 0) {
        const int roll = rng.UniformInt(0, 19);
        chain.rels.push_back(roll < 3 ? "!=" : roll < 11 ? "<" : "<=");
      }
    }
    statements.push_back(std::move(chain));
  }
  for (const PredShape& shape : Shapes()) {
    if (!rng.Bernoulli(0.3)) continue;
    Stmt decl{Stmt::kDecl, shape.name, {}, {}};
    for (Sort sort : shape.sorts) decl.args.push_back(SortName(sort));
    if (rng.Bernoulli(0.03)) decl.args[0] = "intsort";
    if (rng.Bernoulli(0.03)) decl.args.push_back("order");
    statements.push_back(std::move(decl));
  }
  const int facts = rng.UniformInt(0, 25);
  for (int f = 0; f < facts; ++f) {
    const PredShape& shape = rng.Pick(Shapes());
    Stmt atom{Stmt::kAtom, shape.name, {}, {}};
    for (Sort sort : shape.sorts) {
      // Order arguments come from the chains when there are any, so most
      // texts are well sorted; the rest exercise the error paths.
      const bool wrong = rng.Bernoulli(0.02);
      if ((sort == Sort::kOrder) != wrong) {
        atom.args.push_back(chain_terms.empty() ? rng.Pick(kOrderNames)
                                                : rng.Pick(chain_terms));
      } else {
        atom.args.push_back(rng.Pick(kObjectNames));
      }
    }
    statements.push_back(std::move(atom));
  }
  // Chains and declarations land anywhere among the facts.
  for (size_t i = statements.size(); i > 1; --i) {
    std::swap(statements[i - 1],
              statements[static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int>(i) - 1))]);
  }
  return statements;
}

std::string Space(Rng& rng) {
  const int roll = rng.UniformInt(0, 9);
  return roll < 6 ? "" : roll < 9 ? " " : "\t ";
}

std::string Render(const std::vector<Stmt>& statements, Rng& rng) {
  std::string text;
  if (rng.Bernoulli(0.2)) text += "# generated\n";
  for (const Stmt& st : statements) {
    text += Space(rng);
    switch (st.kind) {
      case Stmt::kDecl:
      case Stmt::kAtom:
        if (st.kind == Stmt::kDecl) text += "pred ";
        text += st.name + Space(rng) + "(";
        for (size_t i = 0; i < st.args.size(); ++i) {
          if (i > 0) text += "," + Space(rng);
          text += Space(rng) + st.args[i] + Space(rng);
        }
        text += ")";
        break;
      case Stmt::kChain:
        for (size_t i = 0; i < st.args.size(); ++i) {
          if (i > 0) text += " " + st.rels[i - 1] + Space(rng);
          text += st.args[i] + Space(rng);
        }
        break;
    }
    const int roll = rng.UniformInt(0, 9);
    text += roll < 5   ? "\n"
            : roll < 7 ? ";"
            : roll < 8 ? " ; "
            : roll < 9 ? "\r\n"
                       : "  # note ; P0(u0)\n";
  }
  return text;
}

// The database the statements describe, built one statement at a time
// through the public API: chain names are interned as order constants
// first, then every statement in order.
Result<Database> BuildReference(const std::vector<Stmt>& statements,
                                VocabularyPtr vocab) {
  Database db(vocab);
  for (const Stmt& st : statements) {
    if (st.kind != Stmt::kChain) continue;
    for (const std::string& term : st.args) {
      db.GetOrAddConstant(term, Sort::kOrder);
    }
  }
  for (const Stmt& st : statements) {
    switch (st.kind) {
      case Stmt::kDecl: {
        std::vector<Sort> sorts;
        for (const std::string& s : st.args) {
          if (s == "object") {
            sorts.push_back(Sort::kObject);
          } else if (s == "order") {
            sorts.push_back(Sort::kOrder);
          } else {
            return Status::InvalidArgument("unknown sort '" + s + "'");
          }
        }
        Result<int> pred = vocab->GetOrAddPredicate(st.name, sorts);
        if (!pred.ok()) return pred.status();
        break;
      }
      case Stmt::kAtom: {
        Status status = db.AddFact(st.name, st.args);
        if (!status.ok()) return status;
        break;
      }
      case Stmt::kChain:
        for (size_t i = 0; i < st.rels.size(); ++i) {
          const int u = db.GetOrAddConstant(st.args[i], Sort::kOrder);
          const int v = db.GetOrAddConstant(st.args[i + 1], Sort::kOrder);
          if (st.rels[i] == "!=") {
            db.AddInequality(u, v);
          } else {
            db.AddOrderAtom(u, v,
                            st.rels[i] == "<" ? OrderRel::kLt : OrderRel::kLe);
          }
        }
        break;
    }
  }
  return db;
}

std::vector<std::string> PredicateTable(const Vocabulary& vocab) {
  std::vector<std::string> table;
  for (int p = 0; p < vocab.num_predicates(); ++p) {
    const PredicateInfo& info = vocab.predicate(p);
    std::string entry = info.name + "(";
    for (Sort sort : info.arg_sorts) entry += std::string(SortName(sort)) + ",";
    table.push_back(entry + ")");
  }
  return table;
}

std::vector<std::string> ConstantTable(const Database& db, Sort sort) {
  std::vector<std::string> names;
  const int n = sort == Sort::kObject ? db.num_object_constants()
                                      : db.num_order_constants();
  for (int id = 0; id < n; ++id) {
    names.push_back(sort == Sort::kObject ? db.object_name(id)
                                          : db.order_name(id));
  }
  return names;
}

TEST(ParserDifferential, SeededTextsMatchTheStatementByStatementBuild) {
  constexpr int kTexts = 500;
  int parsed_ok = 0;
  int with_objects = 0;
  int with_inequalities = 0;
  for (int seed = 0; seed < kTexts; ++seed) {
    Rng rng(20261019000ULL + static_cast<uint64_t>(seed));
    const std::vector<Stmt> statements = RandomStatements(rng);
    const std::string text = Render(statements, rng);
    auto parse_vocab = std::make_shared<Vocabulary>();
    auto ref_vocab = std::make_shared<Vocabulary>();
    Result<Database> parsed = ParseDatabase(text, parse_vocab);
    Result<Database> ref = BuildReference(statements, ref_vocab);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n--- text ---\n" + text);
    ASSERT_EQ(parsed.ok(), ref.ok())
        << (parsed.ok() ? ref.status() : parsed.status()).ToString();
    EXPECT_EQ(PredicateTable(*parse_vocab), PredicateTable(*ref_vocab));
    if (!ref.ok()) {
      EXPECT_EQ(parsed.status().ToString(), ref.status().ToString());
      continue;
    }
    ++parsed_ok;
    const Database& a = parsed.value();
    const Database& b = ref.value();
    EXPECT_EQ(ToString(a), ToString(b));
    EXPECT_EQ(ConstantTable(a, Sort::kObject), ConstantTable(b, Sort::kObject));
    EXPECT_EQ(ConstantTable(a, Sort::kOrder), ConstantTable(b, Sort::kOrder));
    EXPECT_EQ(a.proper_atoms(), b.proper_atoms());
    EXPECT_EQ(a.order_atoms(), b.order_atoms());
    EXPECT_EQ(a.inequalities(), b.inequalities());
    EXPECT_EQ(a.revision(), b.revision());
    if (a.num_object_constants() > 0) ++with_objects;
    if (!a.inequalities().empty()) ++with_inequalities;
  }
  // The corpus exercises both outcomes and every constant kind.
  EXPECT_GT(parsed_ok, kTexts / 2);
  EXPECT_LT(parsed_ok, kTexts);
  EXPECT_GT(with_objects, kTexts / 4);
  EXPECT_GT(with_inequalities, kTexts / 10);
}

// A text appended to an existing vocabulary resolves its predicates
// against the declared signatures, as AddFact does.
TEST(ParserDifferential, FreshConstantsTakeTheDeclaredSort) {
  auto vocab = std::make_shared<Vocabulary>();
  vocab->MustAddPredicate("Seen", {Sort::kObject, Sort::kOrder});
  Result<Database> db = ParseDatabase("Seen(a, u)\nSeen(b, u)", vocab);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(ConstantTable(db.value(), Sort::kObject),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(ConstantTable(db.value(), Sort::kOrder),
            (std::vector<std::string>{"u"}));
  EXPECT_EQ(db.value().revision(), 5u);
}

// --- error texts -------------------------------------------------------------

struct ErrorCase {
  const char* input;
  const char* message;
};

TEST(ParserErrorTexts, DatabaseMessages) {
  const std::vector<ErrorCase> cases = {
      {"P(u", "INVALID_ARGUMENT: expected ')' in atom 'P'"},
      {"u <", "INVALID_ARGUMENT: expected constant after relation"},
      {"pred P(intsort)", "INVALID_ARGUMENT: unknown sort 'intsort'"},
      {"!", "INVALID_ARGUMENT: unexpected '!' in input"},
      {"u ! v", "INVALID_ARGUMENT: unexpected '!' in input"},
      {"$bad", "INVALID_ARGUMENT: unexpected character '$'"},
      {"(u)", "INVALID_ARGUMENT: expected identifier, got '('"},
      {"P(u)\n)", "INVALID_ARGUMENT: expected identifier, got ')'"},
      {"x < y\n<", "INVALID_ARGUMENT: expected identifier, got '<'"},
      {"P u", "INVALID_ARGUMENT: unexpected token after 'P'"},
      {"P(u) u", "INVALID_ARGUMENT: unexpected token after 'u'"},
      {"pred P u", "INVALID_ARGUMENT: expected '(' after pred name"},
      {"pred P(order", "INVALID_ARGUMENT: expected ')' in pred declaration"},
      {"pred P()", "INVALID_ARGUMENT: expected sort name"},
      {"P()", "INVALID_ARGUMENT: expected constant in atom 'P'"},
      {"P(u) ; ; Q(v, ", "INVALID_ARGUMENT: expected constant in atom 'Q'"},
      {"u <= v != ", "INVALID_ARGUMENT: expected constant after relation"},
      {"P(u)\nP(u, v)",
       "INVALID_ARGUMENT: predicate 'P' redeclared with a different "
       "signature"},
      {"u < v\nR(a, b)\nR(u, a)",
       "INVALID_ARGUMENT: predicate 'R' redeclared with a different "
       "signature"},
      {"P(a)\nu < v; P(u)",
       "INVALID_ARGUMENT: predicate 'P' redeclared with a different "
       "signature"},
      {"pred P(order)\npred P(object)",
       "INVALID_ARGUMENT: predicate 'P' redeclared with a different "
       "signature"},
      {"pred R(order, object)\nR(a, a)",
       "INVALID_ARGUMENT: constant 'a' used with conflicting sorts"},
      // Syntax errors anywhere win over sort errors earlier in the text,
      // and tokenizer errors win over both.
      {"pred P(bogus)\nP(u", "INVALID_ARGUMENT: expected ')' in atom 'P'"},
      {"P(u\n$", "INVALID_ARGUMENT: unexpected character '$'"},
  };
  for (const ErrorCase& c : cases) {
    auto vocab = std::make_shared<Vocabulary>();
    Result<Database> db = ParseDatabase(c.input, vocab);
    ASSERT_FALSE(db.ok()) << c.input;
    EXPECT_EQ(db.status().ToString(), c.message) << c.input;
  }
}

TEST(ParserErrorTexts, QueryMessages) {
  const std::vector<ErrorCase> cases = {
      {"", "INVALID_ARGUMENT: expected atom, got ''"},
      {"exists t P(t)", "INVALID_ARGUMENT: expected ':' after exists list"},
      {"exists t: P(t", "INVALID_ARGUMENT: expected ')' in atom 'P'"},
      {"exists t: P()", "INVALID_ARGUMENT: expected term in atom 'P'"},
      {"exists t: t <", "INVALID_ARGUMENT: expected term after relation"},
      {"exists t: t", "INVALID_ARGUMENT: expected '(' or relation after 't'"},
      {"exists t: P(t) Q(t)", "INVALID_ARGUMENT: trailing input: 'Q'"},
      {"exists t: P(t) |", "INVALID_ARGUMENT: expected atom, got ''"},
      {"exists t: P(t) & &", "INVALID_ARGUMENT: expected atom, got '&'"},
      {"exists t: P(t);", "INVALID_ARGUMENT: trailing input: ';'"},
      {"exists t: P(t) $", "INVALID_ARGUMENT: unexpected character '$'"},
      {"P(t) ! Q", "INVALID_ARGUMENT: unexpected '!' in input"},
  };
  auto vocab = std::make_shared<Vocabulary>();
  ASSERT_TRUE(ParseDatabase("P(u)\nQ(v)\nu < v", vocab).ok());
  for (const ErrorCase& c : cases) {
    Result<Query> query = ParseQuery(c.input, vocab);
    ASSERT_FALSE(query.ok()) << c.input;
    EXPECT_EQ(query.status().ToString(), c.message) << c.input;
  }
}

// --- statistics reference ----------------------------------------------------

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(int n) : parent(n) {
    for (int i = 0; i < n; ++i) parent[i] = i;
  }
  int Find(int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(int a, int b) { parent[Find(a)] = Find(b); }
};

// CollectStats as it was written first: a hash set per (predicate,
// position) for the distinct arguments and an ordered map of label pairs.
// `all_pairs`, when non-null, receives every pair's count before the
// sketch is cut to kMaxLabelPairs.
stats::DatabaseStats ReferenceCollectStats(
    const Database& db, std::vector<long long>* all_pairs = nullptr) {
  using stats::DatabaseStats;
  using stats::LabelPairStats;
  using stats::PredicateStats;
  DatabaseStats s;
  s.db_uid = db.uid();
  s.db_revision = db.revision();
  s.proper_atoms = static_cast<long long>(db.proper_atoms().size());
  s.order_atoms = static_cast<long long>(db.order_atoms().size());
  s.inequality_atoms = static_cast<long long>(db.inequalities().size());
  s.object_constants = db.num_object_constants();
  s.order_constants = db.num_order_constants();

  const int npreds = db.vocab()->num_predicates();
  std::vector<long long> tuples(npreds, 0);
  std::vector<std::vector<std::unordered_set<int>>> distinct(npreds);
  for (const ProperAtom& atom : db.proper_atoms()) {
    ++tuples[atom.pred];
    std::vector<std::unordered_set<int>>& sets = distinct[atom.pred];
    if (sets.empty()) sets.resize(atom.args.size());
    for (size_t i = 0; i < atom.args.size(); ++i) {
      sets[i].insert(atom.args[i].id);
    }
  }
  for (int p = 0; p < npreds; ++p) {
    if (tuples[p] == 0) continue;
    PredicateStats ps;
    ps.pred = p;
    ps.tuples = tuples[p];
    for (const std::unordered_set<int>& set : distinct[p]) {
      ps.distinct_args.push_back(static_cast<long long>(set.size()));
    }
    s.predicates.push_back(std::move(ps));
  }

  Result<const NormDb*> view = db.NormView();
  if (!view.ok()) return s;
  const NormDb& ndb = *view.value();
  s.order_stats_valid = true;
  s.points = ndb.num_points();
  s.edges = ndb.dag.num_edges();
  for (const LabeledEdge& e : ndb.dag.edges()) {
    if (e.rel == OrderRel::kLt) ++s.strict_edges;
  }
  if (s.points > 0) {
    std::vector<int> topo = TopologicalOrder(ndb.dag);
    std::vector<int> level(s.points, 1);
    for (int v : topo) {
      for (const Digraph::Arc& arc : ndb.dag.in(v)) {
        level[v] = std::max(level[v], level[arc.vertex] + 1);
      }
      s.dag_depth = std::max(s.dag_depth, level[v]);
    }
    std::vector<int> per_level(s.dag_depth + 1, 0);
    for (int v = 0; v < s.points; ++v) {
      s.level_width = std::max(s.level_width, ++per_level[level[v]]);
    }
    UnionFind uf(s.points);
    for (const LabeledEdge& e : ndb.dag.edges()) uf.Union(e.from, e.to);
    std::vector<long long> size_of(s.points, 0);
    for (int v = 0; v < s.points; ++v) ++size_of[uf.Find(v)];
    for (int v = 0; v < s.points; ++v) {
      const long long size = size_of[v];
      if (size == 0) continue;
      ++s.components;
      int bucket = 0;
      while ((1LL << (bucket + 1)) <= size) ++bucket;
      if (static_cast<size_t>(bucket) >= s.component_log2_histogram.size()) {
        s.component_log2_histogram.resize(bucket + 1, 0);
      }
      ++s.component_log2_histogram[bucket];
    }
  }

  std::vector<long long> label_count(npreds, 0);
  std::map<std::pair<int, int>, long long> pair_count;
  for (int p = 0; p < s.points; ++p) {
    const std::vector<int> labels = ndb.labels[p].Elements();
    for (size_t i = 0; i < labels.size(); ++i) {
      ++label_count[labels[i]];
      for (size_t j = i + 1; j < labels.size(); ++j) {
        ++pair_count[{labels[i], labels[j]}];
      }
    }
  }
  for (int p = 0; p < npreds; ++p) {
    if (label_count[p] > 0) s.label_points.emplace_back(p, label_count[p]);
  }
  std::vector<LabelPairStats> pairs;
  for (const auto& [pq, count] : pair_count) {
    pairs.push_back({pq.first, pq.second, count});
    if (all_pairs != nullptr) all_pairs->push_back(count);
  }
  if (pairs.size() > DatabaseStats::kMaxLabelPairs) {
    std::sort(pairs.begin(), pairs.end(),
              [](const LabelPairStats& a, const LabelPairStats& b) {
                if (a.points != b.points) return a.points > b.points;
                return std::pair(a.p, a.q) < std::pair(b.p, b.q);
              });
    pairs.resize(DatabaseStats::kMaxLabelPairs);
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const LabelPairStats& a, const LabelPairStats& b) {
              return std::pair(a.p, a.q) < std::pair(b.p, b.q);
            });
  s.label_pairs = std::move(pairs);
  return s;
}

constexpr int kLabels = 14;

// Registers the statistics corpus's predicates: labels L0..L13, then the
// object predicate O, the mixed R(order, object), the order-order S and
// the object-object T. Fixed ids, so golden values stay comparable.
VocabularyPtr StatsVocabulary() {
  auto vocab = std::make_shared<Vocabulary>();
  for (int k = 0; k < kLabels; ++k) {
    vocab->MustAddPredicate("L" + std::to_string(k), {Sort::kOrder});
  }
  vocab->MustAddPredicate("O", {Sort::kObject});
  vocab->MustAddPredicate("R", {Sort::kOrder, Sort::kObject});
  vocab->MustAddPredicate("S", {Sort::kOrder, Sort::kOrder});
  vocab->MustAddPredicate("T", {Sort::kObject, Sort::kObject});
  return vocab;
}

// A random database over StatsVocabulary(): a dag of order atoms over up
// to 30 points (edges only forward, so consistent unless `inconsistent`
// closes a strict cycle or collapses an inequality), monadic labels drawn
// from a few label sets (repeated sets make tied pair counts), and
// optional object and binary facts with repeats.
Database RandomStatsDb(Rng& rng, VocabularyPtr vocab, bool inconsistent) {
  Database db(vocab);
  const int points = rng.UniformInt(0, 30);
  for (int i = 0; i < points; ++i) {
    db.GetOrAddConstant("u" + std::to_string(i), Sort::kOrder);
  }
  const double density = rng.Bernoulli(0.5) ? 0.05 : 0.25;
  for (int i = 0; i < points; ++i) {
    for (int j = i + 1; j < points; ++j) {
      if (!rng.Bernoulli(density)) continue;
      db.AddOrderAtom(i, j, rng.Bernoulli(0.7) ? OrderRel::kLt : OrderRel::kLe);
    }
  }
  if (rng.Bernoulli(0.1) && points > 1) {
    db.AddInequality(0, points - 1);
  }
  if (inconsistent && points >= 2) {
    if (rng.Bernoulli(0.5)) {
      db.AddOrderAtom(0, 1, OrderRel::kLt);
      db.AddOrderAtom(1, 0, OrderRel::kLe);
    } else {
      db.AddOrderAtom(0, 1, OrderRel::kLe);
      db.AddOrderAtom(1, 0, OrderRel::kLe);
      db.AddInequality(0, 1);
    }
  }
  const int sets = rng.UniformInt(1, 4);
  std::vector<std::vector<int>> label_sets(sets);
  const double label_p = rng.Bernoulli(0.3) ? 0.85 : 0.35;
  for (std::vector<int>& set : label_sets) {
    for (int k = 0; k < kLabels; ++k) {
      if (rng.Bernoulli(label_p)) set.push_back(k);
    }
  }
  for (int i = 0; i < points; ++i) {
    if (rng.Bernoulli(0.2)) continue;
    for (int k : label_sets[rng.UniformInt(0, sets - 1)]) {
      EXPECT_TRUE(db.AddFact("L" + std::to_string(k),
                             {"u" + std::to_string(i)})
                      .ok());
    }
  }
  if (rng.Bernoulli(0.6)) {
    const int objects = rng.UniformInt(1, 6);
    auto object = [&] {
      return "a" + std::to_string(rng.UniformInt(0, objects - 1));
    };
    auto point = [&] {
      return "u" + std::to_string(rng.UniformInt(0, points - 1));
    };
    const int facts = rng.UniformInt(1, 20);
    for (int f = 0; f < facts; ++f) {
      const int kind = rng.UniformInt(0, 3);
      if (kind == 0) {
        EXPECT_TRUE(db.AddFact("O", {object()}).ok());
      } else if (kind == 3) {
        EXPECT_TRUE(db.AddFact("T", {object(), object()}).ok());
      } else if (points > 0) {
        EXPECT_TRUE(db.AddFact(kind == 1 ? "R" : "S",
                               {point(), kind == 1 ? object() : point()})
                        .ok());
      }
    }
  }
  return db;
}

TEST(StatsReference, CollectStatsMatchesTheReference) {
  constexpr int kDatabases = 300;
  int inconsistent = 0;
  int truncated = 0;
  int tied_at_cut = 0;
  int binary = 0;
  for (int seed = 0; seed < kDatabases; ++seed) {
    Rng rng(20261019300ULL + static_cast<uint64_t>(seed));
    Database db = RandomStatsDb(rng, StatsVocabulary(), seed % 7 == 3);
    std::vector<long long> all_pairs;
    const stats::DatabaseStats expected = ReferenceCollectStats(db, &all_pairs);
    const stats::DatabaseStats actual = stats::CollectStats(db);
    EXPECT_EQ(actual, expected) << "seed " << seed << "\n"
                                << stats::RenderStats(actual) << "vs\n"
                                << stats::RenderStats(expected);
    EXPECT_EQ(stats::EncodeStats(actual), stats::EncodeStats(expected))
        << "seed " << seed;
    if (!expected.order_stats_valid) ++inconsistent;
    if (all_pairs.size() > stats::DatabaseStats::kMaxLabelPairs) {
      ++truncated;
      std::sort(all_pairs.rbegin(), all_pairs.rend());
      const size_t cut = stats::DatabaseStats::kMaxLabelPairs;
      if (all_pairs[cut - 1] == all_pairs[cut]) ++tied_at_cut;
    }
    for (const stats::PredicateStats& ps : expected.predicates) {
      if (ps.distinct_args.size() == 2) {
        ++binary;
        break;
      }
    }
  }
  // Every shape the reference must agree on occurs in the corpus.
  EXPECT_GT(inconsistent, 10);
  EXPECT_GT(truncated, 10);
  EXPECT_GT(tied_at_cut, 5);
  EXPECT_GT(binary, 50);
}

// Databases whose points carry many distinct labels: past 64 labels in
// use CollectStats counts label pairs by sorting instead of in a dense
// table; below it, the labels in use may still have large ids.
TEST(StatsReference, CollectStatsMatchesTheReferenceOverManyLabels) {
  auto vocab = std::make_shared<Vocabulary>();
  constexpr int kWide = 100;
  for (int k = 0; k < kWide; ++k) {
    vocab->MustAddPredicate("W" + std::to_string(k), {Sort::kOrder});
  }
  int sorted = 0;
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(20261020700ULL + static_cast<uint64_t>(seed));
    Database db(vocab);
    const int points = rng.UniformInt(2, 30);
    for (int i = 0; i < points; ++i) {
      db.GetOrAddConstant("u" + std::to_string(i), Sort::kOrder);
      if (i > 0 && rng.Bernoulli(0.5)) db.AddOrderAtom(i - 1, i, OrderRel::kLt);
    }
    // Half the seeds draw from the high ids only (fewer than 64 labels).
    const int lowest = seed % 2 == 0 ? 0 : kWide - 40;
    const double label_p = rng.Bernoulli(0.5) ? 0.6 : 0.2;
    for (int i = 0; i < points; ++i) {
      for (int k = lowest; k < kWide; ++k) {
        if (!rng.Bernoulli(label_p)) continue;
        EXPECT_TRUE(
            db.AddFact("W" + std::to_string(k), {"u" + std::to_string(i)})
                .ok());
      }
    }
    const stats::DatabaseStats expected = ReferenceCollectStats(db, nullptr);
    const stats::DatabaseStats actual = stats::CollectStats(db);
    EXPECT_EQ(actual, expected) << "seed " << seed;
    EXPECT_EQ(stats::EncodeStats(actual), stats::EncodeStats(expected))
        << "seed " << seed;
    if (expected.label_points.size() > 64) ++sorted;
  }
  EXPECT_GT(sorted, 5);
}

// --- cost model golden values ------------------------------------------------

// The fixed cost-model corpus: statistics of seeded databases, plus one
// hand-made stats block whose sketch is truncated.
std::vector<std::shared_ptr<const stats::DatabaseStats>> GoldenStats(
    VocabularyPtr vocab) {
  std::vector<std::shared_ptr<const stats::DatabaseStats>> out;
  for (uint64_t seed : {3, 8, 21, 34, 55}) {
    Rng rng(seed);
    Database db = RandomStatsDb(rng, vocab, /*inconsistent=*/false);
    stats::DatabaseStats s = stats::CollectStats(db);
    s.db_uid = 0;  // the identity is not part of any estimate
    out.push_back(std::make_shared<const stats::DatabaseStats>(s));
  }
  stats::DatabaseStats wide;
  wide.order_stats_valid = true;
  wide.points = 40;
  wide.edges = 39;
  wide.strict_edges = 39;
  wide.dag_depth = 40;
  wide.level_width = 1;
  wide.components = 1;
  wide.object_constants = 3;
  for (int k = 0; k < kLabels; ++k) wide.label_points.emplace_back(k, 5 + k);
  for (int p = 0; p < 8; ++p) {
    for (int q = p + 1; q < 9; ++q) {
      wide.label_pairs.push_back({p, q, 1 + (p * 7 + q) % 4});
    }
  }
  out.push_back(std::make_shared<const stats::DatabaseStats>(wide));
  return out;
}

const std::vector<std::string>& GoldenQueries() {
  static const std::vector<std::string> queries = {
      "exists t: L0(t)",
      "exists t: L0(t) & L1(t)",
      "exists t1 t2: L2(t1) & t1 < t2 & L3(t2)",
      "exists t1 t2 t3: L0(t1) & L5(t1) & t1 <= t2 & L1(t2) & t2 < t3 & "
      "L7(t3) & L8(t3)",
      "exists t1 t2 t3: L4(t1) & L6(t2) & L9(t3) & t1 < t3 & t2 < t3",
      "exists t x: L3(t) & R(t, x) & O(x)",
      "exists t1 t2: S(t1, t2) & L1(t1) & L2(t1) & L3(t1) & L13(t2)",
      "exists t1 t2 t3 t4: t1 < t2 & t2 < t3 & t3 < t4 & L0(t4) & L12(t1)",
  };
  return queries;
}

struct GoldenEstimate {
  double cost;
  std::vector<int> sequence;
};

TEST(CostModelGolden, FingerprintsAndEstimatesAreUnchanged) {
  // Recorded from the hash-map cost model this one replaced.
  const std::vector<uint64_t> kFingerprints = {
      0x25e2fce1d8adfbf0ULL,
      0x80a2e69d9b834c81ULL,
      0x3111b1e29b21bca2ULL,
      0x9de75573978dbdafULL,
      0x1b7aa49e641e6f07ULL,
      0xa9f6c4a67374a426ULL,
  };
  const std::vector<std::vector<GoldenEstimate>> kEstimates = {
      {
          {17, {0}},
          {10, {0}},
          {0.0040000000000000001, {0, 1}},
          {290.20710059171603, {0, 1, 2}},
          {1738.6666666666665, {0, 1, 2}},
          {12, {0}},
          {0.0010009999999999999, {0, 1}},
          {1.6195000000000002, {0, 1, 2, 3}},
      },
      {
          {7, {0}},
          {7, {0}},
          {31.5, {0, 1}},
          {117.25, {0, 1, 2}},
          {170.33333333333334, {0, 1, 2}},
          {14, {0}},
          {56, {0, 1}},
          {417.375, {0, 1, 2, 3}},
      },
      {
          {8, {0}},
          {0.001, {0}},
          {6.0060000000000002, {0, 1}},
          {5.0624709141274238, {0, 1, 2}},
          {150, {0, 1, 2}},
          {0.002, {0}},
          {0.0070000000000000001, {0, 1}},
          {0.46174999999999999, {0, 1, 2, 3}},
      },
      {
          {1, {0}},
          {1, {0}},
          {1.5, {0, 1}},
          {1.75, {0, 1, 2}},
          {2.3333333333333335, {0, 1, 2}},
          {2, {0}},
          {2, {0, 1}},
          {1.875, {0, 1, 2, 3}},
      },
      {
          {10, {0}},
          {0.001, {0}},
          {10.01, {0, 1}},
          {0.0010010009999999998, {0, 1, 2}},
          {0.0080070000000000002, {1, 0, 2}},
          {0.002, {0}},
          {0.010999999999999999, {0, 1}},
          {7380, {0, 1, 2, 3}},
      },
      {
          {5, {0}},
          {0.75, {0}},
          {35, {0, 1}},
          {8.75, {0, 1, 2}},
          {570, {0, 1, 2}},
          {32, {0}},
          {3.9899999999999993, {0, 1}},
          {24157, {0, 1, 2, 3}},
      },
  };

  VocabularyPtr vocab = StatsVocabulary();
  const auto all_stats = GoldenStats(vocab);
  std::vector<NormConjunct> conjuncts;
  for (const std::string& text : GoldenQueries()) {
    Result<Query> query = ParseQuery(text, vocab);
    ASSERT_TRUE(query.ok()) << text << ": " << query.status().ToString();
    Result<NormQuery> norm = NormalizeQuery(query.value());
    ASSERT_TRUE(norm.ok()) << text << ": " << norm.status().ToString();
    ASSERT_EQ(norm.value().disjuncts.size(), 1u) << text;
    conjuncts.push_back(norm.value().disjuncts[0]);
  }
  ASSERT_EQ(kFingerprints.size(), all_stats.size());
  ASSERT_EQ(kEstimates.size(), all_stats.size());
  for (size_t i = 0; i < all_stats.size(); ++i) {
    const stats::CostModel model(all_stats[i]);
    EXPECT_EQ(model.fingerprint(), kFingerprints[i]) << "stats " << i;
    ASSERT_EQ(kEstimates[i].size(), conjuncts.size());
    for (size_t j = 0; j < conjuncts.size(); ++j) {
      std::vector<int> sequence;
      // Exact: the same arithmetic in the same order.
      EXPECT_EQ(model.EstimateConjunct(conjuncts[j], &sequence),
                kEstimates[i][j].cost)
          << "stats " << i << ", query " << GoldenQueries()[j];
      EXPECT_EQ(sequence, kEstimates[i][j].sequence)
          << "stats " << i << ", query " << GoldenQueries()[j];
    }
  }
}

}  // namespace
}  // namespace iodb
