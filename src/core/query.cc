#include "core/query.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "graph/scc.h"
#include "graph/topo.h"
#include "graph/width.h"

namespace iodb {

QueryConjunct& QueryConjunct::Exists(const std::string& var) {
  if (!IsVariable(var)) variables.push_back(var);
  return *this;
}

QueryConjunct& QueryConjunct::Atom(const std::string& pred,
                                   const std::vector<std::string>& args) {
  QueryProperAtom atom;
  atom.pred = pred;
  for (const std::string& a : args) atom.args.push_back({a});
  proper_atoms.push_back(std::move(atom));
  return *this;
}

QueryConjunct& QueryConjunct::Order(const std::string& lhs, OrderRel rel,
                                    const std::string& rhs) {
  order_atoms.push_back({{lhs}, {rhs}, rel});
  return *this;
}

QueryConjunct& QueryConjunct::NotEqual(const std::string& lhs,
                                       const std::string& rhs) {
  inequalities.push_back({{lhs}, {rhs}});
  return *this;
}

bool QueryConjunct::IsVariable(const std::string& name) const {
  return std::find(variables.begin(), variables.end(), name) !=
         variables.end();
}

Query::Query(VocabularyPtr vocab) : vocab_(std::move(vocab)) {
  IODB_CHECK(vocab_ != nullptr);
}

QueryConjunct& Query::AddDisjunct() {
  disjuncts_.emplace_back();
  return disjuncts_.back();
}

void Query::AddDisjunct(QueryConjunct conjunct) {
  disjuncts_.push_back(std::move(conjunct));
}

bool Query::HasConstants() const {
  for (const QueryConjunct& conjunct : disjuncts_) {
    for (const QueryProperAtom& atom : conjunct.proper_atoms) {
      for (const QueryTerm& term : atom.args) {
        if (!conjunct.IsVariable(term.name)) return true;
      }
    }
    for (const QueryOrderAtom& atom : conjunct.order_atoms) {
      if (!conjunct.IsVariable(atom.lhs.name) ||
          !conjunct.IsVariable(atom.rhs.name)) {
        return true;
      }
    }
    for (const QueryInequality& atom : conjunct.inequalities) {
      if (!conjunct.IsVariable(atom.lhs.name) ||
          !conjunct.IsVariable(atom.rhs.name)) {
        return true;
      }
    }
  }
  return false;
}

namespace {

// Incremental FNV-1a, fed length-prefixed fields so adjacent strings
// cannot alias ("ab","c" vs "a","bc") and structure tags separate the
// atom kinds.
struct Fnv1a {
  uint64_t hash = 1469598103934665603ULL;

  void Byte(uint8_t b) {
    hash ^= b;
    hash *= 1099511628211ULL;
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Str(const std::string& s) {
    U64(s.size());
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
};

}  // namespace

uint64_t FingerprintQuery(const Query& query) {
  Fnv1a fnv;
  fnv.U64(query.disjuncts().size());
  for (const QueryConjunct& conjunct : query.disjuncts()) {
    fnv.Byte('D');
    fnv.U64(conjunct.variables.size());
    for (const std::string& var : conjunct.variables) fnv.Str(var);
    for (const QueryProperAtom& atom : conjunct.proper_atoms) {
      fnv.Byte('P');
      fnv.Str(atom.pred);
      fnv.U64(atom.args.size());
      for (const QueryTerm& term : atom.args) fnv.Str(term.name);
    }
    for (const QueryOrderAtom& atom : conjunct.order_atoms) {
      fnv.Byte(atom.rel == OrderRel::kLt ? '<' : 'L');
      fnv.Str(atom.lhs.name);
      fnv.Str(atom.rhs.name);
    }
    for (const QueryInequality& atom : conjunct.inequalities) {
      fnv.Byte('!');
      fnv.Str(atom.lhs.name);
      fnv.Str(atom.rhs.name);
    }
  }
  return fnv.hash;
}

bool NormConjunct::IsEmpty() const {
  return num_order_vars() == 0 && num_object_vars() == 0 &&
         other_atoms.empty();
}

bool NormConjunct::IsTight() const {
  std::vector<bool> in_proper(num_order_vars(), false);
  for (int t = 0; t < num_order_vars(); ++t) {
    if (!labels[t].Empty()) in_proper[t] = true;
  }
  for (const ProperAtom& atom : other_atoms) {
    for (const Term& term : atom.args) {
      if (term.sort == Sort::kOrder) in_proper[term.id] = true;
    }
  }
  for (int t = 0; t < num_order_vars(); ++t) {
    if (!in_proper[t]) return false;
  }
  return true;
}

int NormConjunct::Width() const {
  // With no order atom every variable is its own chain.
  if (dag.num_edges() == 0) return dag.num_vertices();
  return DagWidth(dag);
}

bool NormQuery::IsMonadicOrderOnly() const {
  for (const NormConjunct& conjunct : disjuncts) {
    if (!conjunct.IsMonadicOrderOnly()) return false;
  }
  return true;
}

bool NormQuery::IsTight() const {
  for (const NormConjunct& conjunct : disjuncts) {
    if (!conjunct.IsTight()) return false;
  }
  return true;
}

bool NormQuery::IsSequential() const {
  for (const NormConjunct& conjunct : disjuncts) {
    if (!conjunct.IsSequential()) return false;
  }
  return true;
}

int NormQuery::MaxOrderVars() const {
  int max_vars = 0;
  for (const NormConjunct& conjunct : disjuncts) {
    max_vars = std::max(max_vars, conjunct.num_order_vars());
  }
  return max_vars;
}

namespace {

// Per-conjunct normalization working state.
struct VarInfo {
  std::optional<Sort> sort;
  int id = -1;  // id within its sort, pre-merging
};

// A proper atom's predicate, looked up once. The pointer is stable:
// Vocabulary::predicate() references survive later registrations.
struct ResolvedPredicate {
  int id;
  const PredicateInfo* info;
};

// Resolves the sort of every variable of `conjunct`, or fails on
// conflicts / constants / unknown predicates. `preds` receives the
// predicate of each proper atom, in order.
Status ResolveSorts(const Vocabulary& vocab, const QueryConjunct& conjunct,
                    std::map<std::string, VarInfo>& vars,
                    std::vector<ResolvedPredicate>& preds) {
  for (const std::string& v : conjunct.variables) vars[v];

  auto require_var = [&](const QueryTerm& term) -> Status {
    if (!conjunct.IsVariable(term.name)) {
      return Status::InvalidArgument(
          "constant '" + term.name +
          "' in normalized query; run EliminateConstants first");
    }
    return Status::Ok();
  };
  auto assign = [&](const std::string& name, Sort sort) -> Status {
    VarInfo& info = vars[name];
    if (info.sort.has_value() && *info.sort != sort) {
      return Status::InvalidArgument("variable '" + name +
                                     "' used with conflicting sorts");
    }
    info.sort = sort;
    return Status::Ok();
  };

  for (const QueryOrderAtom& atom : conjunct.order_atoms) {
    for (const QueryTerm* term : {&atom.lhs, &atom.rhs}) {
      Status s = require_var(*term);
      if (!s.ok()) return s;
      s = assign(term->name, Sort::kOrder);
      if (!s.ok()) return s;
    }
  }
  for (const QueryInequality& atom : conjunct.inequalities) {
    for (const QueryTerm* term : {&atom.lhs, &atom.rhs}) {
      Status s = require_var(*term);
      if (!s.ok()) return s;
      s = assign(term->name, Sort::kOrder);
      if (!s.ok()) return s;
    }
  }
  for (const QueryProperAtom& atom : conjunct.proper_atoms) {
    std::optional<int> pred = vocab.FindPredicate(atom.pred);
    if (!pred.has_value()) {
      return Status::InvalidArgument("unknown predicate '" + atom.pred +
                                     "' in query");
    }
    const PredicateInfo& info = vocab.predicate(*pred);
    if (info.arity() != static_cast<int>(atom.args.size())) {
      return Status::InvalidArgument("arity mismatch for '" + atom.pred +
                                     "' in query");
    }
    preds.push_back({*pred, &info});
    for (int i = 0; i < info.arity(); ++i) {
      Status s = require_var(atom.args[i]);
      if (!s.ok()) return s;
      s = assign(atom.args[i].name, info.arg_sorts[i]);
      if (!s.ok()) return s;
    }
  }
  // Variables used in no atom default to the order sort (the natural
  // reading of e.g. ∃t₂ in ∃t₁t₂t₃[P(t₁) ∧ t₁<t₂<t₃ ∧ P(t₃)]).
  for (auto& [name, info] : vars) {
    if (!info.sort.has_value()) info.sort = Sort::kOrder;
  }
  return Status::Ok();
}

// Normalizes one conjunct. Returns nullopt if the conjunct is
// inconsistent (to be dropped), a NormConjunct otherwise.
Result<std::optional<NormConjunct>> NormalizeConjunct(
    const Vocabulary& vocab, const QueryConjunct& conjunct) {
  std::map<std::string, VarInfo> vars;
  std::vector<ResolvedPredicate> preds;
  preds.reserve(conjunct.proper_atoms.size());
  Status s = ResolveSorts(vocab, conjunct, vars, preds);
  if (!s.ok()) return s;

  // Assign pre-merge ids.
  std::vector<std::string> order_names, object_names;
  for (auto& [name, info] : vars) {
    if (*info.sort == Sort::kOrder) {
      info.id = static_cast<int>(order_names.size());
      order_names.push_back(name);
    } else {
      info.id = static_cast<int>(object_names.size());
      object_names.push_back(name);
    }
  }

  // Rule N1 on the order variables. With no order atom every variable is
  // its own component, numbered as Tarjan numbers isolated vertices.
  SccResult scc;
  if (conjunct.order_atoms.empty()) {
    scc.num_components = static_cast<int>(order_names.size());
    scc.component.resize(order_names.size());
    std::iota(scc.component.begin(), scc.component.end(), 0);
  } else {
    Digraph raw(static_cast<int>(order_names.size()));
    for (const QueryOrderAtom& atom : conjunct.order_atoms) {
      raw.AddEdge(vars[atom.lhs.name].id, vars[atom.rhs.name].id, atom.rel);
    }
    scc = StronglyConnectedComponents(raw);
    for (const QueryOrderAtom& atom : conjunct.order_atoms) {
      if (scc.component[vars[atom.lhs.name].id] ==
              scc.component[vars[atom.rhs.name].id] &&
          atom.rel == OrderRel::kLt) {
        return std::optional<NormConjunct>();  // inconsistent disjunct
      }
    }
  }

  NormConjunct norm;
  norm.object_var_names = std::move(object_names);
  std::vector<int> var_of_component(scc.num_components, -1);
  std::vector<int> canonical(order_names.size());
  for (size_t v = 0; v < order_names.size(); ++v) {
    int comp = scc.component[static_cast<int>(v)];
    if (var_of_component[comp] == -1) {
      var_of_component[comp] = static_cast<int>(norm.order_var_names.size());
      norm.order_var_names.push_back(order_names[v]);
    }
    canonical[v] = var_of_component[comp];
  }
  const int nv = static_cast<int>(norm.order_var_names.size());
  norm.dag = Digraph(nv);
  norm.labels.assign(nv, PredSet(vocab.num_predicates()));

  // Dedup edges; "<" dominates.
  std::map<std::pair<int, int>, OrderRel> strongest;
  for (const QueryOrderAtom& atom : conjunct.order_atoms) {
    int u = canonical[vars[atom.lhs.name].id];
    int v = canonical[vars[atom.rhs.name].id];
    if (u == v) continue;  // rule N2 / internal to merged component
    auto [it, inserted] = strongest.emplace(std::make_pair(u, v), atom.rel);
    if (!inserted && atom.rel == OrderRel::kLt) it->second = OrderRel::kLt;
  }
  for (const auto& [key, rel] : strongest) {
    norm.dag.AddEdge(key.first, key.second, rel);
  }

  // Proper atoms.
  for (size_t a = 0; a < conjunct.proper_atoms.size(); ++a) {
    const QueryProperAtom& atom = conjunct.proper_atoms[a];
    const int pred = preds[a].id;
    const PredicateInfo& info = *preds[a].info;
    if (info.IsMonadicOrder()) {
      norm.labels[canonical[vars[atom.args[0].name].id]].Add(pred);
      continue;
    }
    ProperAtom mapped;
    mapped.pred = pred;
    for (int i = 0; i < info.arity(); ++i) {
      const VarInfo& vi = vars[atom.args[i].name];
      int id = *vi.sort == Sort::kOrder ? canonical[vi.id] : vi.id;
      mapped.args.push_back({*vi.sort, id});
    }
    if (std::find(norm.other_atoms.begin(), norm.other_atoms.end(), mapped) ==
        norm.other_atoms.end()) {
      norm.other_atoms.push_back(std::move(mapped));
    }
  }

  // Inequalities.
  for (const QueryInequality& atom : conjunct.inequalities) {
    int u = canonical[vars[atom.lhs.name].id];
    int v = canonical[vars[atom.rhs.name].id];
    if (u == v) return std::optional<NormConjunct>();  // t != t: inconsistent
    auto pair = std::minmax(u, v);
    std::pair<int, int> entry{pair.first, pair.second};
    if (std::find(norm.inequalities.begin(), norm.inequalities.end(),
                  entry) == norm.inequalities.end()) {
      norm.inequalities.push_back(entry);
    }
  }

  IODB_CHECK(norm.dag.num_edges() == 0 || !HasCycle(norm.dag));
  return std::optional<NormConjunct>(std::move(norm));
}

}  // namespace

Result<NormQuery> NormalizeQuery(const Query& query) {
  NormQuery norm;
  norm.vocab = query.vocab();
  norm.disjuncts.reserve(query.disjuncts().size());
  for (const QueryConjunct& conjunct : query.disjuncts()) {
    Result<std::optional<NormConjunct>> result =
        NormalizeConjunct(*query.vocab(), conjunct);
    if (!result.ok()) return result.status();
    if (!result.value().has_value()) continue;  // inconsistent disjunct
    if (result.value()->IsEmpty()) norm.trivially_true = true;
    norm.disjuncts.push_back(std::move(*result.value()));
  }
  return norm;
}

Result<ConstantShift> ShiftConstants(const Query& query) {
  ConstantShift shift{Query(query.vocab()), {}};
  Vocabulary& vocab = *query.vocab();
  // constant name -> marker already recorded (markers are per query, not
  // per conjunct: one fact suffices however often the constant occurs)
  std::unordered_map<std::string, size_t> marker_index;

  for (const QueryConjunct& conjunct : query.disjuncts()) {
    QueryConjunct rewritten = conjunct;
    // constant name -> fresh variable name within this conjunct
    std::unordered_map<std::string, std::string> fresh;
    // (marker predicate, fresh variable) atoms, appended after the loops:
    // appending inside them would grow rewritten.proper_atoms under the
    // references the loops hold into it.
    std::vector<std::pair<std::string, std::string>> marker_atoms;

    auto freshen = [&](QueryTerm& term, Sort sort) -> Status {
      if (rewritten.IsVariable(term.name)) return Status::Ok();
      const std::string constant = term.name;
      auto it = fresh.find(constant);
      if (it == fresh.end()) {
        std::string var = "@v_" + constant;
        while (rewritten.IsVariable(var)) var += "'";
        std::string marker = "@is_" + constant;
        Result<int> pred = vocab.GetOrAddPredicate(marker, {sort});
        if (!pred.ok()) {
          return Status::InvalidArgument("constant '" + constant +
                                         "' used with conflicting sorts");
        }
        if (marker_index.find(constant) == marker_index.end()) {
          marker_index.emplace(constant, shift.markers.size());
          shift.markers.push_back({constant, sort, pred.value()});
        }
        rewritten.Exists(var);
        marker_atoms.emplace_back(marker, var);
        it = fresh.emplace(constant, var).first;
      }
      term.name = it->second;
      return Status::Ok();
    };

    for (QueryOrderAtom& atom : rewritten.order_atoms) {
      Status s = freshen(atom.lhs, Sort::kOrder);
      if (!s.ok()) return s;
      s = freshen(atom.rhs, Sort::kOrder);
      if (!s.ok()) return s;
    }
    for (QueryInequality& atom : rewritten.inequalities) {
      Status s = freshen(atom.lhs, Sort::kOrder);
      if (!s.ok()) return s;
      s = freshen(atom.rhs, Sort::kOrder);
      if (!s.ok()) return s;
    }
    for (QueryProperAtom& atom : rewritten.proper_atoms) {
      std::optional<int> pred = vocab.FindPredicate(atom.pred);
      if (!pred.has_value()) {
        return Status::InvalidArgument("unknown predicate '" + atom.pred +
                                       "' in query");
      }
      // Copy the signature: freshen() may register marker predicates and
      // invalidate references into the vocabulary.
      const std::vector<Sort> arg_sorts = vocab.predicate(*pred).arg_sorts;
      if (arg_sorts.size() != atom.args.size()) {
        return Status::InvalidArgument("arity mismatch for '" + atom.pred +
                                       "' in query");
      }
      for (size_t i = 0; i < arg_sorts.size(); ++i) {
        Status s = freshen(atom.args[i], arg_sorts[i]);
        if (!s.ok()) return s;
      }
    }
    for (const auto& [marker, var] : marker_atoms) {
      rewritten.Atom(marker, {var});
    }
    shift.query.AddDisjunct(std::move(rewritten));
  }
  return shift;
}

Result<ConstantFreePair> EliminateConstants(const Database& db,
                                            const Query& query) {
  Result<ConstantShift> shift = ShiftConstants(query);
  if (!shift.ok()) return shift.status();
  Database new_db = db;
  for (const ConstantShift::Marker& marker : shift.value().markers) {
    // Intern the constant if the database does not mention it.
    int cid = new_db.GetOrAddConstant(marker.constant, marker.sort);
    new_db.AddProperAtom(marker.pred, {{marker.sort, cid}});
  }
  return ConstantFreePair{std::move(new_db),
                          std::move(shift.value().query)};
}

NormConjunct FullClosure(const NormConjunct& conjunct) {
  NormConjunct full = conjunct;
  const int n = conjunct.num_order_vars();
  Reachability reach = ComputeReachability(conjunct.dag);
  full.dag = Digraph(n);
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u == v || !reach.reach.Get(u, v)) continue;
      full.dag.AddEdge(
          u, v, reach.strict.Get(u, v) ? OrderRel::kLt : OrderRel::kLe);
    }
  }
  return full;
}

NormConjunct TransitiveReduceConjunct(const NormConjunct& conjunct) {
  NormConjunct out = conjunct;
  out.dag = TransitiveReduce(conjunct.dag);
  return out;
}

NormConjunct DropNonProperVars(const NormConjunct& conjunct) {
  IODB_CHECK(conjunct.inequalities.empty());
  const int n = conjunct.num_order_vars();
  std::vector<bool> keep(n, false);
  for (int t = 0; t < n; ++t) {
    if (!conjunct.labels[t].Empty()) keep[t] = true;
  }
  for (const ProperAtom& atom : conjunct.other_atoms) {
    for (const Term& term : atom.args) {
      if (term.sort == Sort::kOrder) keep[term.id] = true;
    }
  }
  NormConjunct out;
  out.object_var_names = conjunct.object_var_names;
  out.other_atoms = conjunct.other_atoms;
  std::vector<int> remap(n, -1);
  for (int t = 0; t < n; ++t) {
    if (keep[t]) {
      remap[t] = static_cast<int>(out.order_var_names.size());
      out.order_var_names.push_back(conjunct.order_var_names[t]);
      out.labels.push_back(conjunct.labels[t]);
    }
  }
  out.dag = Digraph(static_cast<int>(out.order_var_names.size()));
  for (const LabeledEdge& e : conjunct.dag.edges()) {
    if (keep[e.from] && keep[e.to]) {
      out.dag.AddEdge(remap[e.from], remap[e.to], e.rel);
    }
  }
  for (ProperAtom& atom : out.other_atoms) {
    for (Term& term : atom.args) {
      if (term.sort == Sort::kOrder) {
        IODB_CHECK_NE(remap[term.id], -1);
        term.id = remap[term.id];
      }
    }
  }
  return out;
}

}  // namespace iodb
