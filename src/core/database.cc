#include "core/database.h"

#include <algorithm>
#include <atomic>

#include "graph/scc.h"
#include "graph/width.h"
#include "util/strings.h"

namespace iodb {

namespace {

std::atomic<uint64_t>& DatabaseUidCounter() {
  static std::atomic<uint64_t> next{0};
  return next;
}

uint64_t NextDatabaseUid() {
  return DatabaseUidCounter().fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Database::Database(VocabularyPtr vocab)
    : vocab_(std::move(vocab)), uid_(NextDatabaseUid()) {
  IODB_CHECK(vocab_ != nullptr);
}

Database::Database(const Database& other)
    : vocab_(other.vocab_),
      uid_(NextDatabaseUid()),
      revision_(other.revision_),
      object_names_(other.object_names_),
      order_names_(other.order_names_),
      constant_index_(other.constant_index_),
      proper_atoms_(other.proper_atoms_),
      order_atoms_(other.order_atoms_),
      inequalities_(other.inequalities_),
      norm_cache_(other.norm_cache_),
      norm_cache_revision_(other.norm_cache_revision_),
      stats_slot_(other.stats_slot_) {}

Database& Database::operator=(const Database& other) {
  if (this == &other) return *this;
  vocab_ = other.vocab_;
  uid_ = NextDatabaseUid();
  revision_ = other.revision_;
  object_names_ = other.object_names_;
  order_names_ = other.order_names_;
  constant_index_ = other.constant_index_;
  proper_atoms_ = other.proper_atoms_;
  order_atoms_ = other.order_atoms_;
  inequalities_ = other.inequalities_;
  norm_cache_ = other.norm_cache_;
  norm_cache_revision_ = other.norm_cache_revision_;
  stats_slot_ = other.stats_slot_;
  return *this;
}

Database::Database(Database&& other) noexcept
    : vocab_(std::move(other.vocab_)),
      uid_(other.uid_),
      revision_(other.revision_),
      object_names_(std::move(other.object_names_)),
      order_names_(std::move(other.order_names_)),
      constant_index_(std::move(other.constant_index_)),
      proper_atoms_(std::move(other.proper_atoms_)),
      order_atoms_(std::move(other.order_atoms_)),
      inequalities_(std::move(other.inequalities_)),
      norm_cache_(std::move(other.norm_cache_)),
      norm_cache_revision_(other.norm_cache_revision_),
      stats_slot_(std::move(other.stats_slot_)) {
  // Re-identify the hollowed-out source so external (uid, revision) cache
  // keys can never match its new (empty) content.
  other.uid_ = NextDatabaseUid();
  other.norm_cache_.reset();
  other.stats_slot_ = {};
}

Database& Database::operator=(Database&& other) noexcept {
  if (this == &other) return *this;
  vocab_ = std::move(other.vocab_);
  uid_ = other.uid_;
  revision_ = other.revision_;
  object_names_ = std::move(other.object_names_);
  order_names_ = std::move(other.order_names_);
  constant_index_ = std::move(other.constant_index_);
  proper_atoms_ = std::move(other.proper_atoms_);
  order_atoms_ = std::move(other.order_atoms_);
  inequalities_ = std::move(other.inequalities_);
  norm_cache_ = std::move(other.norm_cache_);
  norm_cache_revision_ = other.norm_cache_revision_;
  stats_slot_ = std::move(other.stats_slot_);
  other.uid_ = NextDatabaseUid();
  other.norm_cache_.reset();
  other.stats_slot_ = {};
  return *this;
}

int Database::GetOrAddConstant(const std::string& name, Sort sort) {
  auto it = constant_index_.find(name);
  if (it != constant_index_.end()) {
    IODB_CHECK(it->second.first == sort);  // one name, one typed constant
    return it->second.second;
  }
  std::vector<std::string>& table =
      sort == Sort::kObject ? object_names_ : order_names_;
  int id = static_cast<int>(table.size());
  table.push_back(name);
  constant_index_.emplace(name, std::make_pair(sort, id));
  BumpRevision();
  return id;
}

std::optional<int> Database::FindConstant(const std::string& name,
                                          Sort sort) const {
  auto it = constant_index_.find(name);
  if (it == constant_index_.end() || it->second.first != sort) {
    return std::nullopt;
  }
  return it->second.second;
}

void Database::AddProperAtom(int pred, std::vector<Term> args) {
  const PredicateInfo& info = vocab_->predicate(pred);
  IODB_CHECK_EQ(static_cast<int>(args.size()), info.arity());
  for (int i = 0; i < info.arity(); ++i) {
    IODB_CHECK(args[i].sort == info.arg_sorts[i]);
    int table_size = args[i].sort == Sort::kObject ? num_object_constants()
                                                   : num_order_constants();
    IODB_CHECK_GE(args[i].id, 0);
    IODB_CHECK_LT(args[i].id, table_size);
  }
  proper_atoms_.push_back({pred, TermVec(args)});
  BumpRevision();
}

Status Database::AddFact(const std::string& pred_name,
                         const std::vector<std::string>& constant_names) {
  // Infer argument sorts: a name already interned keeps its sort; fresh
  // names default to the predicate's declared sort if the predicate exists,
  // else to object sort.
  std::optional<int> existing = vocab_->FindPredicate(pred_name);
  std::vector<Sort> sorts;
  sorts.reserve(constant_names.size());
  for (size_t i = 0; i < constant_names.size(); ++i) {
    auto it = constant_index_.find(constant_names[i]);
    if (it != constant_index_.end()) {
      sorts.push_back(it->second.first);
    } else if (existing.has_value() &&
               i < static_cast<size_t>(vocab_->predicate(*existing).arity())) {
      sorts.push_back(vocab_->predicate(*existing).arg_sorts[i]);
    } else {
      sorts.push_back(Sort::kObject);
    }
  }
  Result<int> pred = vocab_->GetOrAddPredicate(pred_name, sorts);
  if (!pred.ok()) return pred.status();
  const PredicateInfo& info = vocab_->predicate(pred.value());
  if (info.arity() != static_cast<int>(constant_names.size())) {
    return Status::InvalidArgument("arity mismatch for '" + pred_name + "'");
  }
  std::vector<Term> args;
  args.reserve(constant_names.size());
  for (size_t i = 0; i < constant_names.size(); ++i) {
    Sort sort = info.arg_sorts[i];
    auto it = constant_index_.find(constant_names[i]);
    if (it != constant_index_.end() && it->second.first != sort) {
      return Status::InvalidArgument("constant '" + constant_names[i] +
                                     "' used with conflicting sorts");
    }
    args.push_back({sort, GetOrAddConstant(constant_names[i], sort)});
  }
  proper_atoms_.push_back({pred.value(), TermVec(args)});
  BumpRevision();
  return Status::Ok();
}

void Database::AddOrderAtom(int u, int v, OrderRel rel) {
  IODB_CHECK_GE(u, 0);
  IODB_CHECK_LT(u, num_order_constants());
  IODB_CHECK_GE(v, 0);
  IODB_CHECK_LT(v, num_order_constants());
  order_atoms_.push_back({u, v, rel});
  BumpRevision();
}

void Database::AddOrder(const std::string& u, OrderRel rel,
                        const std::string& v) {
  int uid = GetOrAddConstant(u, Sort::kOrder);
  int vid = GetOrAddConstant(v, Sort::kOrder);
  AddOrderAtom(uid, vid, rel);
}

void Database::AddInequality(int u, int v) {
  IODB_CHECK_GE(u, 0);
  IODB_CHECK_LT(u, num_order_constants());
  IODB_CHECK_GE(v, 0);
  IODB_CHECK_LT(v, num_order_constants());
  inequalities_.push_back({u, v});
  BumpRevision();
}

void Database::AddNotEqual(const std::string& u, const std::string& v) {
  int uid = GetOrAddConstant(u, Sort::kOrder);
  int vid = GetOrAddConstant(v, Sort::kOrder);
  AddInequality(uid, vid);
}

void Database::ReserveAtoms(size_t proper_atoms, size_t order_atoms,
                            size_t inequalities) {
  proper_atoms_.reserve(proper_atoms_.size() + proper_atoms);
  order_atoms_.reserve(order_atoms_.size() + order_atoms);
  inequalities_.reserve(inequalities_.size() + inequalities);
}

Status Database::RestoreConstantTables(
    std::vector<std::string> object_names,
    std::vector<std::string> order_names) {
  IODB_CHECK_EQ(num_object_constants(), 0);
  IODB_CHECK_EQ(num_order_constants(), 0);
  object_names_ = std::move(object_names);
  order_names_ = std::move(order_names);
  constant_index_.reserve(object_names_.size() + order_names_.size());
  for (size_t sort = 0; sort < 2; ++sort) {
    const std::vector<std::string>& table =
        sort == 0 ? object_names_ : order_names_;
    for (size_t i = 0; i < table.size(); ++i) {
      auto [it, inserted] = constant_index_.emplace(
          table[i], std::make_pair(static_cast<Sort>(sort),
                                   static_cast<int>(i)));
      if (!inserted) {
        // Build the message before the rollback: clear() frees the
        // node `it` points into.
        Status status = Status::InvalidArgument("duplicate constant name '" +
                                                it->first + "'");
        // Roll the half-built tables back so the database stays usable.
        object_names_.clear();
        order_names_.clear();
        constant_index_.clear();
        return status;
      }
    }
  }
  revision_ += object_names_.size() + order_names_.size();
  return Status::Ok();
}

void Database::AppendFactSegment(int pred, const int* flat_args,
                                 size_t count) {
  const PredicateInfo& info = vocab_->predicate(pred);
  const size_t arity = static_cast<size_t>(info.arity());
  // One range-validation pass per (segment, argument position) instead
  // of per fact: same invariant AddProperAtom enforces, hoisted.
  for (size_t a = 0; a < arity; ++a) {
    const int limit = info.arg_sorts[a] == Sort::kObject
                          ? num_object_constants()
                          : num_order_constants();
    for (size_t t = 0; t < count; ++t) {
      const int id = flat_args[t * arity + a];
      IODB_CHECK_GE(id, 0);
      IODB_CHECK_LT(id, limit);
    }
  }
  proper_atoms_.reserve(proper_atoms_.size() + count);
  for (size_t t = 0; t < count; ++t) {
    TermVec args;
    args.reserve(arity);
    for (size_t a = 0; a < arity; ++a) {
      args.push_back({info.arg_sorts[a], flat_args[t * arity + a]});
    }
    proper_atoms_.push_back({pred, std::move(args)});
  }
  revision_ += count;  // one bump per fact, as repeated AddProperAtom
}

void Database::AppendAtoms(std::vector<ProperAtom> proper_atoms,
                           std::vector<OrderAtom> order_atoms,
                           std::vector<InequalityAtom> inequalities) {
  const int num_objects = num_object_constants();
  const int num_orders = num_order_constants();
  auto check_order = [num_orders](int id) {
    IODB_CHECK_GE(id, 0);
    IODB_CHECK_LT(id, num_orders);
  };
  for (const ProperAtom& atom : proper_atoms) {
    for (const Term& term : atom.args) {
      IODB_CHECK_GE(term.id, 0);
      IODB_CHECK_LT(term.id,
                    term.sort == Sort::kObject ? num_objects : num_orders);
    }
  }
  for (const OrderAtom& atom : order_atoms) {
    check_order(atom.lhs);
    check_order(atom.rhs);
  }
  for (const InequalityAtom& atom : inequalities) {
    check_order(atom.lhs);
    check_order(atom.rhs);
  }
  revision_ += proper_atoms.size() + order_atoms.size() + inequalities.size();
  auto append = [](auto& table, auto&& atoms) {
    if (table.empty()) {
      table = std::move(atoms);
    } else {
      table.insert(table.end(), std::make_move_iterator(atoms.begin()),
                   std::make_move_iterator(atoms.end()));
    }
  };
  append(proper_atoms_, std::move(proper_atoms));
  append(order_atoms_, std::move(order_atoms));
  append(inequalities_, std::move(inequalities));
}

Database Database::ForkNextVersion() const {
  Database fork(*this);  // fresh uid, shares the memoized NormView
  fork.uid_ = uid_;      // ...which the original identity reclaims
  return fork;
}

void Database::RestoreIdentity(uint64_t uid, uint64_t revision) {
  uid_ = uid;
  revision_ = revision;
  norm_cache_.reset();
  norm_cache_revision_ = revision;
  stats_slot_ = {};  // the storage layer re-installs persisted stats after
  std::atomic<uint64_t>& counter = DatabaseUidCounter();
  uint64_t seen = counter.load(std::memory_order_relaxed);
  while (seen < uid &&
         !counter.compare_exchange_weak(seen, uid,
                                        std::memory_order_relaxed)) {
  }
}

uint64_t Database::NextUid() { return NextDatabaseUid(); }

Result<const NormDb*> Database::NormView() const {
  if (norm_cache_ == nullptr || norm_cache_revision_ != revision_) {
    // Hand the outgoing view's order context to the fresh view so the
    // reachability index can be grown across an append instead of being
    // rebuilt (see NormDb::prev_order_context).
    std::shared_ptr<const void> prev_context;
    if (norm_cache_ != nullptr && norm_cache_->ok()) {
      prev_context = norm_cache_->value().order_context_cache;
    }
    norm_cache_ = std::make_shared<const Result<NormDb>>(Normalize(*this));
    norm_cache_revision_ = revision_;
    ++norm_view_computations_;
    if (norm_cache_->ok()) {
      norm_cache_->value().prev_order_context = std::move(prev_context);
    }
  }
  if (!norm_cache_->ok()) return norm_cache_->status();
  return &norm_cache_->value();
}

std::string NormDb::PointName(int p) const {
  return Join(point_members[p], "=");
}

bool NormDb::OrderFactsAreMonadic() const {
  for (const ProperAtom& atom : other_atoms) {
    for (const Term& term : atom.args) {
      if (term.sort == Sort::kOrder) return false;
    }
  }
  return true;
}

int NormDb::SizeAtoms() const {
  int count = dag.num_edges() + static_cast<int>(other_atoms.size()) +
              static_cast<int>(inequalities.size());
  for (const PredSet& label : labels) count += label.Count();
  return count;
}

Result<NormDb> Normalize(const Database& db) {
  const int n = db.num_order_constants();

  // Build the raw order graph over constants.
  Digraph raw(n);
  for (const OrderAtom& atom : db.order_atoms()) {
    raw.AddEdge(atom.lhs, atom.rhs, atom.rel);
  }

  // Rule N1: strongly connected constants are identified. Cycles are only
  // consistent when every edge inside the component is "<=".
  SccResult scc = StronglyConnectedComponents(raw);
  for (const OrderAtom& atom : db.order_atoms()) {
    if (scc.component[atom.lhs] == scc.component[atom.rhs] &&
        atom.rel == OrderRel::kLt) {
      return Status::Inconsistent(
          "order atoms entail " + db.order_name(atom.lhs) + " < " +
          db.order_name(atom.rhs) + " inside an equality cycle");
    }
  }

  NormDb norm;
  norm.vocab = db.vocab();
  norm.object_names.reserve(db.num_object_constants());
  for (int i = 0; i < db.num_object_constants(); ++i) {
    norm.object_names.push_back(db.object_name(i));
  }

  // Components become points. Renumber them in first-seen order so point
  // ids are stable with respect to the input.
  std::vector<int> point_of_component(scc.num_components, -1);
  norm.point_of_constant.resize(n);
  for (int c = 0; c < n; ++c) {
    int comp = scc.component[c];
    if (point_of_component[comp] == -1) {
      point_of_component[comp] = static_cast<int>(norm.point_members.size());
      norm.point_members.emplace_back();
    }
    int point = point_of_component[comp];
    norm.point_of_constant[c] = point;
    norm.point_members[point].push_back(db.order_name(c));
  }
  const int num_points = static_cast<int>(norm.point_members.size());
  norm.dag = Digraph(num_points);
  norm.labels.assign(num_points,
                     PredSet(norm.vocab->num_predicates()));

  // Deduplicate edges; "<" dominates "<=". Rule N2 (u <= u) drops here.
  // Edges are emitted sorted by (u, v) so normalization is deterministic:
  // sort the point pairs, then each run of one pair is one edge.
  std::vector<std::pair<int64_t, OrderRel>> edges;
  edges.reserve(db.order_atoms().size());
  for (const OrderAtom& atom : db.order_atoms()) {
    int u = norm.point_of_constant[atom.lhs];
    int v = norm.point_of_constant[atom.rhs];
    if (u == v) continue;  // internal to a merged component: all "<="
    edges.emplace_back(static_cast<int64_t>(u) * num_points + v, atom.rel);
  }
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < edges.size();) {
    const int64_t key = edges[i].first;
    OrderRel rel = OrderRel::kLe;
    for (; i < edges.size() && edges[i].first == key; ++i) {
      if (edges[i].second == OrderRel::kLt) rel = OrderRel::kLt;
    }
    norm.dag.AddEdge(static_cast<int>(key / num_points),
                     static_cast<int>(key % num_points), rel);
  }

  // Facts: monadic-order facts become labels; everything else keeps its
  // atom shape with order constants remapped to points.
  for (const ProperAtom& atom : db.proper_atoms()) {
    const PredicateInfo& info = norm.vocab->predicate(atom.pred);
    if (info.IsMonadicOrder()) {
      norm.labels[norm.point_of_constant[atom.args[0].id]].Add(atom.pred);
      continue;
    }
    ProperAtom mapped = atom;
    for (Term& term : mapped.args) {
      if (term.sort == Sort::kOrder) {
        term.id = norm.point_of_constant[term.id];
      }
    }
    // Deduplicate exact repeats.
    if (std::find(norm.other_atoms.begin(), norm.other_atoms.end(), mapped) ==
        norm.other_atoms.end()) {
      norm.other_atoms.push_back(std::move(mapped));
    }
  }

  // Inequalities over points; a collapsed pair is inconsistent.
  for (const InequalityAtom& atom : db.inequalities()) {
    int u = norm.point_of_constant[atom.lhs];
    int v = norm.point_of_constant[atom.rhs];
    if (u == v) {
      return Status::Inconsistent("inequality " + db.order_name(atom.lhs) +
                                  " != " + db.order_name(atom.rhs) +
                                  " contradicts entailed equality");
    }
    auto pair = std::minmax(u, v);
    std::pair<int, int> entry{pair.first, pair.second};
    if (std::find(norm.inequalities.begin(), norm.inequalities.end(), entry) ==
        norm.inequalities.end()) {
      norm.inequalities.push_back(entry);
    }
  }

  // The condensation of an SCC decomposition is acyclic by construction,
  // but assert it in debug spirit: a cycle here would be a bug.
  IODB_CHECK(!HasCycle(norm.dag));
  return norm;
}

int Width(const NormDb& db) { return DagWidth(db.dag); }

}  // namespace iodb
