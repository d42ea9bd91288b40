#include "oracle/oracle.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace iodb::oracle {
namespace {

// A query term resolved against D: variable `var`, or (var == -1) the
// constant `id` of D.
struct Arg {
  Sort sort = Sort::kOrder;
  int var = -1;
  int id = 0;
};

// One query atom; `kind` is a predicate id, or one of the order relations.
struct Atom {
  static constexpr int kLt = -1, kLe = -2, kNeq = -3;
  int kind = 0;
  std::vector<Arg> args;
  int ready = -1;  // the last variable it mentions (-1: none)
};

struct Conjunct {
  std::vector<Sort> var_sorts;
  std::vector<Atom> atoms;
};

Result<Conjunct> Resolve(const Database& db, const QueryConjunct& surface) {
  const Vocabulary& vocab = *db.vocab();
  std::map<std::string, int> var_index;
  for (const std::string& v : surface.variables) {
    var_index.emplace(v, static_cast<int>(var_index.size()));
  }
  std::vector<std::optional<Sort>> sorts(var_index.size());
  Conjunct out;
  auto add = [&](int kind, const std::vector<const QueryTerm*>& terms,
                 const std::vector<Sort>& term_sorts) -> Status {
    Atom atom{kind, {}, -1};
    for (size_t i = 0; i < terms.size(); ++i) {
      const std::string& name = terms[i]->name;
      Arg arg{term_sorts[i], -1, 0};
      if (auto it = var_index.find(name); it != var_index.end()) {
        arg.var = it->second;
        if (sorts[arg.var].has_value() && *sorts[arg.var] != arg.sort) {
          return Status::InvalidArgument("variable '" + name +
                                         "' used at both sorts");
        }
        sorts[arg.var] = arg.sort;
        atom.ready = std::max(atom.ready, arg.var);
      } else if (std::optional<int> id = db.FindConstant(name, arg.sort)) {
        arg.id = *id;
      } else {
        return Status::InvalidArgument("query constant '" + name +
                                       "' does not occur in the database");
      }
      atom.args.push_back(arg);
    }
    out.atoms.push_back(std::move(atom));
    return Status::Ok();
  };
  const std::vector<Sort> two_order = {Sort::kOrder, Sort::kOrder};
  for (const QueryOrderAtom& a : surface.order_atoms) {
    Status s = add(a.rel == OrderRel::kLt ? Atom::kLt : Atom::kLe,
                   {&a.lhs, &a.rhs}, two_order);
    if (!s.ok()) return s;
  }
  for (const QueryInequality& a : surface.inequalities) {
    Status s = add(Atom::kNeq, {&a.lhs, &a.rhs}, two_order);
    if (!s.ok()) return s;
  }
  for (const QueryProperAtom& a : surface.proper_atoms) {
    std::optional<int> pred = vocab.FindPredicate(a.pred);
    if (!pred.has_value()) {
      return Status::InvalidArgument("unknown predicate '" + a.pred + "'");
    }
    const std::vector<Sort> arg_sorts = vocab.predicate(*pred).arg_sorts;
    if (arg_sorts.size() != a.args.size()) {
      return Status::InvalidArgument("arity mismatch for '" + a.pred + "'");
    }
    std::vector<const QueryTerm*> terms;
    for (const QueryTerm& t : a.args) terms.push_back(&t);
    Status s = add(*pred, terms, arg_sorts);
    if (!s.ok()) return s;
  }
  for (const std::optional<Sort>& sort : sorts) {
    out.var_sorts.push_back(sort.value_or(Sort::kOrder));
  }
  // Check each atom as soon as its last variable is bound.
  std::stable_sort(
      out.atoms.begin(), out.atoms.end(),
      [](const Atom& a, const Atom& b) { return a.ready < b.ready; });
  return out;
}

struct Decider {
  const Database& db;
  std::vector<Conjunct> query;
  int num_blocks = 0;
  std::vector<int> block;   // order constant -> its block
  std::vector<int> value;   // variable -> point or object constant
  // Padding: `pad` points below the first block and above the last, `gap`
  // points between two blocks. The points are numbered in order.
  int pad = 0;
  int gap = 0;

  int Point(int b) const { return pad + b * (gap + 1); }
  int NumPoints() const {
    return num_blocks == 0 ? 2 * pad : Point(num_blocks - 1) + 1 + pad;
  }

  int Value(const Arg& arg) const {
    if (arg.var >= 0) return value[arg.var];
    return arg.sort == Sort::kOrder ? Point(block[arg.id]) : arg.id;
  }

  bool Holds(const Atom& atom) const {
    switch (atom.kind) {
      case Atom::kLt: return Value(atom.args[0]) < Value(atom.args[1]);
      case Atom::kLe: return Value(atom.args[0]) <= Value(atom.args[1]);
      case Atom::kNeq: return Value(atom.args[0]) != Value(atom.args[1]);
    }
    for (const ProperAtom& fact : db.proper_atoms()) {
      if (fact.pred != atom.kind) continue;
      bool match = true;
      for (size_t i = 0; i < fact.args.size() && match; ++i) {
        const Term& t = fact.args[i];
        int image = t.sort == Sort::kOrder ? Point(block[t.id]) : t.id;
        match = image == Value(atom.args[i]);
      }
      if (match) return true;
    }
    return false;
  }

  // Binds variables var, var+1, ... of `c`; `next` is the first atom not
  // yet checked.
  bool Search(const Conjunct& c, int var, size_t next) {
    for (; next < c.atoms.size() && c.atoms[next].ready < var; ++next) {
      if (!Holds(c.atoms[next])) return false;
    }
    if (var == static_cast<int>(c.var_sorts.size())) return true;
    const int domain = c.var_sorts[var] == Sort::kOrder
                           ? NumPoints()
                           : db.num_object_constants();
    for (int x = 0; x < domain; ++x) {
      value[var] = x;
      if (Search(c, var + 1, next)) return true;
    }
    return false;
  }

  bool QueryHolds() {
    for (const Conjunct& c : query) {
      value.assign(c.var_sorts.size(), 0);
      if (Search(c, 0, 0)) return true;
    }
    return false;
  }
};

}  // namespace

Result<Verdict> Decide(const Database& db, const Query& query,
                       OrderSemantics semantics) {
  const int n = db.num_order_constants();
  if (n > kMaxOrderConstants) {
    return Status::ResourceExhausted("oracle: more than " +
                                     std::to_string(kMaxOrderConstants) +
                                     " order constants");
  }
  Decider d{db, {}, 0, std::vector<int>(n, 0), {}};
  int m = 0;  // the most order variables in one disjunct
  for (const QueryConjunct& surface : query.disjuncts()) {
    Result<Conjunct> c = Resolve(db, surface);
    if (!c.ok()) return c.status();
    m = std::max(m, static_cast<int>(std::count(c.value().var_sorts.begin(),
                                                c.value().var_sorts.end(),
                                                Sort::kOrder)));
    d.query.push_back(std::move(c.value()));
  }
  if (semantics != OrderSemantics::kFinite) d.pad = m;
  if (semantics == OrderSemantics::kRational) d.gap = m;
  // Per constant: the constants that must sit in an earlier block ("<"),
  // in an earlier or the same block ("<="), and in a different one ("!=").
  std::vector<uint32_t> before(n, 0), not_after(n, 0), apart(n, 0);
  for (const OrderAtom& a : db.order_atoms()) {
    (a.rel == OrderRel::kLt ? before : not_after)[a.rhs] |= 1u << a.lhs;
  }
  for (const InequalityAtom& a : db.inequalities()) {
    apart[a.lhs] |= 1u << a.rhs;
    apart[a.rhs] |= 1u << a.lhs;
  }
  const uint32_t all = (1u << n) - 1;
  bool consistent = false;
  // Places the next block; false once a countermodel is found.
  auto place = [&](auto&& self, uint32_t placed) -> bool {
    if (placed == all) {
      consistent = true;
      return d.QueryHolds();
    }
    uint32_t open = 0;  // constants whose "<" predecessors are all placed
    for (uint32_t r = all & ~placed; r != 0; r &= r - 1) {
      int v = std::countr_zero(r);
      if ((before[v] & ~placed) == 0) open |= 1u << v;
    }
    for (uint32_t b = open; b != 0; b = (b - 1) & open) {
      bool ok = true;
      for (uint32_t r = b; r != 0 && ok; r &= r - 1) {
        int v = std::countr_zero(r);
        ok = (not_after[v] & ~(placed | b)) == 0 && (apart[v] & b) == 0;
      }
      if (!ok) continue;
      for (uint32_t r = b; r != 0; r &= r - 1) {
        d.block[std::countr_zero(r)] = d.num_blocks;
      }
      ++d.num_blocks;
      bool keep_going = self(self, placed | b);
      --d.num_blocks;
      if (!keep_going) return false;
    }
    return true;
  };
  if (!place(place, 0)) return Verdict::kNotEntailed;
  return consistent ? Verdict::kEntailed : Verdict::kInconsistent;
}

}  // namespace iodb::oracle
