#include "core/prepare.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/entail_bounded_width.h"
#include "core/entail_bruteforce.h"
#include "core/entail_disjunctive.h"
#include "core/entail_order_free.h"
#include "core/entail_paths.h"
#include "core/inequality.h"
#include "core/minimal_models.h"
#include "core/model_builder.h"
#include "core/model_check.h"
#include "core/planner.h"
#include "core/semantics.h"
#include "util/parallel.h"

namespace iodb {

const char* QueryPassName(QueryPassId id) {
  switch (id) {
    case QueryPassId::kConstantElimination:
      return "constant-elimination";
    case QueryPassId::kInequalityRewrite:
      return "inequality-rewrite";
    case QueryPassId::kNormalize:
      return "normalize";
    case QueryPassId::kSemanticsReduction:
      return "semantics-reduction";
    case QueryPassId::kObjectSplit:
      return "object-split";
    case QueryPassId::kEngineClassification:
      return "engine-classification";
    case QueryPassId::kCostPlan:
      return "cost-plan";
  }
  return "unknown";
}

namespace {

// Union-find over the variables of one conjunct.
struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(int n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
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

// The static half of the object/order split (Section 4): carves the atom
// components of `conjunct` that touch no order variable into an
// object-only sub-conjunct. Whether that sub-conjunct holds in a concrete
// database is decided at evaluation time.
struct SplitConjunct {
  NormConjunct reduced;
  std::optional<NormConjunct> object_part;
};

SplitConjunct SplitObjectComponents(NormConjunct conjunct) {
  const int nv = conjunct.num_order_vars();
  const int no = conjunct.num_object_vars();
  if (no == 0) return {std::move(conjunct), std::nullopt};  // nothing to split

  UnionFind uf(nv + no);
  auto node = [&](const Term& term) {
    return term.sort == Sort::kOrder ? term.id : nv + term.id;
  };
  for (const ProperAtom& atom : conjunct.other_atoms) {
    for (size_t i = 1; i < atom.args.size(); ++i) {
      uf.Union(node(atom.args[0]), node(atom.args[i]));
    }
  }
  for (const LabeledEdge& e : conjunct.dag.edges()) uf.Union(e.from, e.to);
  for (const auto& [u, v] : conjunct.inequalities) uf.Union(u, v);

  std::vector<bool> component_has_order(nv + no, false);
  for (int t = 0; t < nv; ++t) component_has_order[uf.Find(t)] = true;

  // Build the object-only sub-conjunct and the reduced conjunct; the
  // reduced one takes over the order side of `conjunct`.
  std::vector<std::string> object_var_names =
      std::move(conjunct.object_var_names);
  std::vector<ProperAtom> other_atoms = std::move(conjunct.other_atoms);
  NormConjunct object_part;
  NormConjunct reduced = std::move(conjunct);
  reduced.object_var_names.clear();
  reduced.other_atoms.clear();
  std::vector<int> remap(no, -1);
  std::vector<int> object_remap(no, -1);
  for (int x = 0; x < no; ++x) {
    if (component_has_order[uf.Find(nv + x)]) {
      remap[x] = reduced.num_object_vars();
      reduced.object_var_names.push_back(std::move(object_var_names[x]));
    } else {
      object_remap[x] = object_part.num_object_vars();
      object_part.object_var_names.push_back(std::move(object_var_names[x]));
    }
  }
  for (ProperAtom& atom : other_atoms) {
    bool order_side = component_has_order[uf.Find(node(atom.args[0]))];
    for (Term& term : atom.args) {
      if (term.sort == Sort::kObject) {
        term.id = order_side ? remap[term.id] : object_remap[term.id];
        IODB_CHECK_NE(term.id, -1);
      }
    }
    (order_side ? reduced.other_atoms : object_part.other_atoms)
        .push_back(std::move(atom));
  }

  if (object_part.num_object_vars() > 0 || !object_part.other_atoms.empty()) {
    return {std::move(reduced), std::move(object_part)};
  }
  return {std::move(reduced), std::nullopt};
}

// The zero-point model holding the ground object facts of `db`, against
// which stripped object parts are checked.
FiniteModel GroundObjectFacts(const NormDb& db) {
  FiniteModel facts;
  facts.vocab = db.vocab;
  facts.object_names = db.object_names;
  for (const ProperAtom& atom : db.other_atoms) {
    bool pure_object = true;
    for (const Term& term : atom.args) {
      if (term.sort == Sort::kOrder) {
        pure_object = false;
        break;
      }
    }
    if (pure_object) facts.other_facts.push_back(atom);
  }
  return facts;
}

// Picks the first minimal model (used as a countermodel for the empty
// disjunction).
FiniteModel FirstMinimalModel(const NormDb& db) {
  FiniteModel model;
  ModelVisitor visitor;
  visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
    model = BuildMinimalModel(db, groups);
    return false;
  };
  ForEachMinimalModel(db, visitor);
  return model;
}

std::string Plural(size_t n, const char* noun) {
  return std::to_string(n) + " " + noun + "(s)";
}

// Turns an exhausted budget into the typed status, salvaging the partial
// work counters of `partial` into the budget's side channel first so the
// caller (service, tools, tests) can report how far the evaluation got.
Status ExhaustedStatus(ExecBudget* budget, const std::string& what,
                       const EntailResult& partial) {
  ExecBudget::Partial p;
  p.states_visited = partial.states_visited;
  p.models_enumerated = partial.models_enumerated;
  p.groups_pushed = partial.groups_pushed;
  p.groups_popped = partial.groups_popped;
  p.reach_probes = partial.check_stats.reach_probes;
  p.assignments_tried = partial.check_stats.assignments_tried;
  budget->MergePartial(p);
  return budget->ToStatus(what);
}

int CostedSchedules(const CostPlanOutcome& outcome) {
  return static_cast<int>(
      std::count_if(outcome.schedules.begin(), outcome.schedules.end(),
                    [](const std::vector<int>& seq) { return !seq.empty(); }));
}

// The cost-plan pass record of a planned outcome; `planner_detail` is the
// planner's provenance note (QueryPlanChoice::detail).
std::string CostPlanDetail(const CostPlanOutcome& outcome,
                           const std::string& planner_detail) {
  std::string detail =
      "schedules " + std::to_string(CostedSchedules(outcome)) + "/" +
      std::to_string(outcome.schedules.size()) +
      ", reorder=" + (outcome.disjunct_order.empty() ? "no" : "yes") +
      ", engine=" +
      (outcome.engine.has_value() ? EngineKindName(*outcome.engine)
                                  : "no-opinion");
  if (!planner_detail.empty()) detail += "; " + planner_detail;
  return detail;
}

// The static kAuto route of an instance, from four facts about it: every
// disjunct order-free, every disjunct monadic, one disjunct, and a
// database free of inequalities. The conjunctive engines need an
// inequality-free database; the Theorem 5.3 engine handles database
// inequalities via the Section 7 sorting modification.
EngineKind AutoEngine(bool order_free, bool monadic, bool conjunctive,
                      bool db_neq_free) {
  if (order_free) return EngineKind::kOrderFree;
  if (!monadic) return EngineKind::kBruteForce;
  return conjunctive && db_neq_free ? EngineKind::kBoundedWidth
                                    : EngineKind::kDisjunctiveSearch;
}

// The query an engine reads over the disjuncts that survived ground-fact
// filtering (plan indices `survivors`): `query` itself when none was
// dropped, else a copy of the survivors built in `copy`. The copy is not
// trivially true: evaluation answers that case before any engine runs.
const NormQuery& SurvivorQuery(const NormQuery& query,
                               const std::vector<int>& survivors,
                               std::optional<NormQuery>& copy) {
  if (survivors.size() == query.disjuncts.size()) return query;
  NormQuery& subset = copy.emplace();
  subset.vocab = query.vocab;
  subset.disjuncts.reserve(survivors.size());
  for (int idx : survivors) subset.disjuncts.push_back(query.disjuncts[idx]);
  return subset;
}

}  // namespace

Result<PreparedQuery> Prepare(const VocabularyPtr& vocab, const Query& query,
                              const EntailOptions& options) {
  IODB_CHECK(vocab != nullptr);
  IODB_CHECK(vocab == query.vocab());
  PreparedQuery plan;
  plan.vocab_ = vocab;
  plan.options_ = options;

  // Pass 1: constant elimination (query side; the marker facts are
  // recorded for evaluation-time injection). Passes 1-2 read the caller's
  // query in place and own a rewritten one only when a pass produced it.
  const Query* working_query = &query;
  std::optional<Query> rewritten_query;
  {
    PassRecord record{QueryPassId::kConstantElimination, false, ""};
    if (query.HasConstants()) {
      Result<ConstantShift> shift = ShiftConstants(query);
      if (!shift.ok()) return shift.status();
      working_query = &rewritten_query.emplace(std::move(shift.value().query));
      plan.markers_ = std::move(shift.value().markers);
      record.applied = true;
      record.detail = Plural(plan.markers_.size(), "constant") +
                      " -> marker atoms";
    } else {
      record.detail = "no constants";
    }
    plan.passes_.push_back(std::move(record));
  }

  // Pass 2: query inequality rewriting (Section 7). Mandatory for the Z/Q
  // reductions; otherwise done when it fits the budget so the monadic
  // engines can apply.
  {
    PassRecord record{QueryPassId::kInequalityRewrite, false, ""};
    bool has_inequalities = false;
    for (const QueryConjunct& conjunct : working_query->disjuncts()) {
      if (!conjunct.inequalities.empty()) has_inequalities = true;
    }
    if (has_inequalities) {
      Result<Query> rewritten = RewriteInequalities(
          *working_query, options.max_rewritten_disjuncts);
      if (rewritten.ok()) {
        record.applied = true;
        record.detail = Plural(working_query->disjuncts().size(), "disjunct") +
                        " -> " +
                        Plural(rewritten.value().disjuncts().size(),
                               "disjunct");
        working_query =
            &rewritten_query.emplace(std::move(rewritten.value()));
      } else if (options.semantics != OrderSemantics::kFinite) {
        return rewritten.status();  // transforms below need "!="-free queries
      } else {
        // Keep the inequalities; the brute-force engine handles them.
        record.detail = "budget exceeded; kept for brute force";
      }
    } else {
      record.detail = "no query inequalities";
    }
    plan.passes_.push_back(std::move(record));
  }

  // Pass 3: normalization (rules N1/N2, dag + label views). Passes 3-5
  // transform the plan's own query in place.
  NormQuery& effective_query = plan.query_;
  {
    const size_t surface_disjuncts = working_query->disjuncts().size();
    Result<NormQuery> norm_query = NormalizeQuery(*working_query);
    if (!norm_query.ok()) return norm_query.status();
    effective_query = std::move(norm_query.value());
    PassRecord record{QueryPassId::kNormalize, true, ""};
    record.detail = "kept " +
                    std::to_string(effective_query.disjuncts.size()) + " of " +
                    Plural(surface_disjuncts, "disjunct");
    if (effective_query.trivially_true) record.detail += "; trivially true";
    plan.passes_.push_back(std::move(record));
  }

  // Pass 4: reduce the semantics to finite models. Tight queries need no
  // transformation (Proposition 2.2).
  {
    PassRecord record{QueryPassId::kSemanticsReduction, false, ""};
    if (options.semantics == OrderSemantics::kFinite) {
      record.detail = "finite semantics";
    } else if (effective_query.IsTight()) {
      record.detail = "tight query (Proposition 2.2)";
    } else if (options.semantics == OrderSemantics::kInteger) {
      plan.needs_sentinels_ = true;
      plan.sentinel_vars_ = effective_query.MaxOrderVars();
      record.applied = true;
      record.detail = "integer: sentinel chains of length " +
                      std::to_string(plan.sentinel_vars_);
    } else {
      effective_query = RationalTransform(effective_query);
      record.applied = true;
      record.detail = "rational: full closure + drop non-proper variables";
    }
    plan.passes_.push_back(std::move(record));
  }

  // Pass 5: object/order split (static half; ground-fact filtering is the
  // evaluation-time half).
  {
    size_t with_object_part = 0;
    plan.disjuncts_.reserve(effective_query.disjuncts.size());
    for (NormConjunct& conjunct : effective_query.disjuncts) {
      SplitConjunct split = SplitObjectComponents(std::move(conjunct));
      conjunct = std::move(split.reduced);
      DisjunctPlan entry;
      entry.object_part = std::move(split.object_part);
      // The brute-force matcher's variable-order schedule is memoized
      // here, never computed per evaluation (the cost-plan pass may
      // replace it).
      entry.compiled = CompileConjunct(conjunct);
      if (entry.object_part.has_value()) ++with_object_part;
      plan.disjuncts_.push_back(std::move(entry));
    }
    PassRecord record{QueryPassId::kObjectSplit, with_object_part > 0, ""};
    record.detail = with_object_part > 0
                        ? Plural(with_object_part, "disjunct") +
                              " carry an object-only component"
                        : "no object-only components";
    plan.passes_.push_back(std::move(record));
  }

  // Pass 6: engine classification (static; the db-dependent demotions —
  // database inequalities, ground-fact filtering — happen at Evaluate).
  {
    bool all_monadic = true;
    bool all_order_free = !plan.disjuncts_.empty();
    for (size_t i = 0; i < plan.disjuncts_.size(); ++i) {
      DisjunctPlan& entry = plan.disjuncts_[i];
      const NormConjunct& reduced = plan.reduced(i);
      entry.monadic_order_only = reduced.IsMonadicOrderOnly();
      entry.order_free = IsOrderFree(reduced);
      entry.order_vars = reduced.num_order_vars();
      entry.width = reduced.Width();
      entry.engine = AutoEngine(entry.order_free, entry.monadic_order_only,
                                /*conjunctive=*/true, /*db_neq_free=*/true);
      all_monadic = all_monadic && entry.monadic_order_only;
      all_order_free = all_order_free && entry.order_free;
    }
    plan.planned_engine_ =
        options.engine != EngineKind::kAuto
            ? options.engine
            : AutoEngine(all_order_free, all_monadic,
                         plan.disjuncts_.size() == 1, /*db_neq_free=*/true);
    PassRecord record{QueryPassId::kEngineClassification, true, ""};
    record.detail = std::string("planned engine: ") +
                    EngineKindName(plan.planned_engine_);
    plan.passes_.push_back(std::move(record));
  }

  // Pass 7: cost-based planning. Advisory by contract (core/planner.h):
  // anything invalid is dropped here, so the engines below never see a
  // schedule that could change a verdict. Runs BEFORE the transitive
  // reductions are built so a disjunct reordering flows into them.
  {
    PassRecord record{QueryPassId::kCostPlan, false, ""};
    const QueryPlanner* planner = options.planner.get();
    CostPlanOutcome& outcome = plan.cost_outcome_;
    outcome.planned = planner != nullptr;
    if (planner == nullptr) {
      record.detail = "no planner (costing off)";
    } else if (plan.disjuncts_.empty()) {
      record.detail = "no disjuncts to cost";
    } else {
      outcome.schedules.resize(plan.disjuncts_.size());
      QueryPlanChoice choice = planner->PlanQuery(effective_query.disjuncts);

      // Per-disjunct schedules: accept only valid linear extensions
      // that differ from the default topological order.
      if (choice.disjuncts.size() == plan.disjuncts_.size()) {
        for (size_t i = 0; i < plan.disjuncts_.size(); ++i) {
          DisjunctPlan& entry = plan.disjuncts_[i];
          const NormConjunct& reduced = plan.reduced(i);
          const DisjunctCost& cost = choice.disjuncts[i];
          entry.est_cost = cost.est_cost;
          const std::vector<int>& seq = cost.order_var_sequence;
          const int nv = reduced.num_order_vars();
          if (seq.empty()) continue;
          if (static_cast<int>(seq.size()) != nv) continue;
          std::vector<int> pos(nv, -1);
          bool valid = true;
          for (int p = 0; p < nv && valid; ++p) {
            const int t = seq[p];
            valid = t >= 0 && t < nv && pos[t] == -1;
            if (valid) pos[t] = p;
          }
          for (const LabeledEdge& e : reduced.dag.edges()) {
            if (!valid) break;
            valid = pos[e.from] < pos[e.to];
          }
          if (!valid) continue;
          std::vector<int> default_seq;
          default_seq.reserve(nv);
          for (const auto& [sort, id] : entry.compiled.var_order) {
            if (sort == Sort::kOrder) default_seq.push_back(id);
          }
          if (seq == default_seq) continue;
          entry.compiled = CompileConjunct(reduced, &seq);
          entry.costed_schedule = true;
          outcome.schedules[i] = seq;
        }
      }

      // Disjunct evaluation order: first-match-wins paths try cheap
      // disjuncts first. Accept only a genuine permutation.
      const std::vector<int>& order = choice.disjunct_order;
      if (order.size() == plan.disjuncts_.size()) {
        std::vector<bool> seen(order.size(), false);
        bool valid = true;
        bool identity = true;
        for (size_t p = 0; p < order.size() && valid; ++p) {
          const int d = order[p];
          valid = d >= 0 && d < static_cast<int>(order.size()) && !seen[d];
          if (valid) seen[d] = true;
          identity = identity && d == static_cast<int>(p);
        }
        if (valid && !identity) {
          std::vector<DisjunctPlan> permuted;
          std::vector<NormConjunct> permuted_reduced;
          permuted.reserve(order.size());
          permuted_reduced.reserve(order.size());
          for (int d : order) {
            permuted.push_back(std::move(plan.disjuncts_[d]));
            permuted_reduced.push_back(
                std::move(effective_query.disjuncts[d]));
          }
          plan.disjuncts_ = std::move(permuted);
          effective_query.disjuncts = std::move(permuted_reduced);
          outcome.disjunct_order = order;
        }
      }

      // Engine route: only a suggestion, only when the caller said
      // kAuto; applicability is re-checked per database at Evaluate,
      // where the order-free route outranks it.
      if (choice.engine != EngineKind::kAuto &&
          options.engine == EngineKind::kAuto) {
        outcome.engine = choice.engine;
      }

      record.applied = CostedSchedules(outcome) > 0 ||
                       !outcome.disjunct_order.empty() ||
                       outcome.engine.has_value();
      record.detail = CostPlanDetail(outcome, choice.detail);
    }
    plan.passes_.push_back(std::move(record));
  }

  // The monadic automata engines (bounded width, path decomposition,
  // disjunctive search) read the transitive reductions, and only of
  // monadic disjuncts. A forced brute-force or order-free engine never
  // dispatches to them, and neither does kAuto when every disjunct is
  // order-free (that route outranks every other), so those plans skip
  // the reduction.
  const EngineKind forced = options.engine;
  const bool automata_route =
      forced == EngineKind::kBoundedWidth ||
      forced == EngineKind::kPathDecomposition ||
      forced == EngineKind::kDisjunctiveSearch ||
      (forced == EngineKind::kAuto &&
       plan.planned_engine_ != EngineKind::kOrderFree);
  if (automata_route) {
    plan.transitive_.vocab = effective_query.vocab;
    plan.transitive_.trivially_true = effective_query.trivially_true;
    plan.transitive_.disjuncts.resize(plan.disjuncts_.size());
    for (size_t i = 0; i < plan.disjuncts_.size(); ++i) {
      if (plan.disjuncts_[i].monadic_order_only) {
        plan.transitive_.disjuncts[i] =
            TransitiveReduceConjunct(plan.reduced(i));
      }
    }
  }

  return plan;
}

PreparedQuery MustPrepare(const VocabularyPtr& vocab, const Query& query,
                          const EntailOptions& options) {
  Result<PreparedQuery> plan = Prepare(vocab, query, options);
  IODB_CHECK(plan.ok());
  return std::move(plan.value());
}

uint64_t FingerprintPlanInputs(const Query& query,
                               const EntailOptions& options) {
  // 64-bit mixing throughout (not size_t HashCombine): the query
  // fingerprint's ~2^-64 collision bound must survive on 32-bit targets.
  uint64_t hash = FingerprintQuery(query);
  auto mix = [&hash](uint64_t value) {
    hash ^= value + 0x9E3779B97F4A7C15ULL + (hash << 6) + (hash >> 2);
  };
  mix(static_cast<uint64_t>(options.semantics));
  mix(static_cast<uint64_t>(options.engine));
  mix(static_cast<uint64_t>(options.want_countermodel));
  mix(static_cast<uint64_t>(options.max_rewritten_disjuncts));
  // Costing changes schedules, never verdicts — but a cached plan built
  // with one planner must not be served for another (or for costing
  // off), so the planner's own fingerprint is part of the key.
  mix(options.planner != nullptr ? options.planner->fingerprint() : 0);
  return hash;
}

PreparedQuery::PreparedQuery(const PreparedQuery& other)
    : vocab_(other.vocab_),
      options_(other.options_),
      passes_(other.passes_),
      disjuncts_(other.disjuncts_),
      markers_(other.markers_),
      needs_sentinels_(other.needs_sentinels_),
      sentinel_vars_(other.sentinel_vars_),
      planned_engine_(other.planned_engine_),
      cost_outcome_(other.cost_outcome_),
      query_(other.query_),
      transitive_(other.transitive_) {
  // Copies start with a cold transform cache (and their own mutex).
}

PreparedQuery& PreparedQuery::operator=(const PreparedQuery& other) {
  if (this == &other) return *this;
  PreparedQuery copy(other);
  *this = std::move(copy);
  return *this;
}

Result<PreparedQuery::NormDbRef> PreparedQuery::NormDbFor(
    const Database& db) const {
  // Predicate ids in the compiled disjuncts are only meaningful against
  // the vocabulary the query was prepared with; a mismatch would produce
  // silently wrong verdicts.
  if (db.vocab() != vocab_) {
    return Status::InvalidArgument(
        "database and prepared query use different vocabularies");
  }
  if (!NeedsDbTransform()) {
    Result<const NormDb*> view = db.NormView();
    if (!view.ok()) return view.status();
    return NormDbRef{view.value(), nullptr};
  }

  {
    std::scoped_lock lock(*cache_mu_);
    auto it = transform_cache_.find(db.uid());
    if (it != transform_cache_.end() &&
        it->second->revision == db.revision()) {
      const std::shared_ptr<const TransformCache>& entry = it->second;
      if (!entry->ndb.ok()) return entry->ndb.status();
      return NormDbRef{&entry->ndb.value(), entry};
    }
  }

  // Transform and normalize outside the lock (the expensive part); a
  // racing worker on the same (uid, revision) just computes it twice and
  // last-write-wins — both entries are equivalent.
  Database working = db;
  for (const ConstantShift::Marker& marker : markers_) {
    int cid = working.GetOrAddConstant(marker.constant, marker.sort);
    working.AddProperAtom(marker.pred, {{marker.sort, cid}});
  }
  if (needs_sentinels_) {
    working = AddIntegerSentinels(working, sentinel_vars_);
  }
  auto entry = std::make_shared<const TransformCache>(
      TransformCache{db.revision(), Normalize(working)});
  // Pre-build the enumeration context before the entry becomes visible:
  // once cached, concurrent readers share the NormDb, and its context
  // slot fills lazily under const — safe only if it is already filled.
  if (entry->ndb.ok()) (void)SharedEnumerationContext(entry->ndb.value());
  {
    std::scoped_lock lock(*cache_mu_);
    if (transform_cache_.find(db.uid()) == transform_cache_.end() &&
        transform_cache_.size() >= kMaxTransformCacheEntries) {
      transform_cache_.clear();
    }
    transform_cache_[db.uid()] = entry;
  }
  if (!entry->ndb.ok()) return entry->ndb.status();
  return NormDbRef{&entry->ndb.value(), entry};
}

const NormConjunct& PreparedQuery::reduced_transitive(size_t i) const {
  static const NormConjunct kNotBuilt;
  return transitive_.disjuncts.empty() ? kNotBuilt : transitive_.disjuncts[i];
}

Result<PreparedQuery::Admitted> PreparedQuery::Admit(const Database& db,
                                                     ExecBudget* budget,
                                                     const char* what) const {
  // Admission check: a request whose deadline already passed (or whose
  // batch was cancelled) fails fast instead of starting the search.
  if (budget != nullptr && !budget->Poll()) {
    return ExhaustedStatus(budget, what, EntailResult{});
  }
  Result<NormDbRef> view = NormDbFor(db);
  if (!view.ok()) return view.status();
  Admitted admitted;
  admitted.view = std::move(view.value());
  admitted.trivially_true = query_.trivially_true;
  admitted.survivors.reserve(disjuncts_.size());
  std::optional<FiniteModel> facts;  // built lazily, shared by disjuncts
  for (size_t i = 0; i < disjuncts_.size(); ++i) {
    const DisjunctPlan& entry = disjuncts_[i];
    if (entry.object_part.has_value()) {
      if (!facts.has_value()) facts = GroundObjectFacts(*admitted.view.ndb);
      // Object component false in the database: the disjunct is false in
      // every model of it.
      if (!Satisfies(*facts, *entry.object_part)) continue;
    }
    admitted.survivors.push_back(static_cast<int>(i));
    admitted.trivially_true = admitted.trivially_true || reduced(i).IsEmpty();
    admitted.monadic = admitted.monadic && entry.monadic_order_only;
    admitted.order_free = admitted.order_free && entry.order_free;
  }
  return admitted;
}

Result<EntailResult> PreparedQuery::Evaluate(const Database& db,
                                             ExecBudget* budget) const {
  return EvaluateWith(db, 1, budget);
}

Result<EntailResult> PreparedQuery::EvaluateWith(const Database& db,
                                                 int num_threads,
                                                 ExecBudget* budget) const {
  Result<Admitted> admitted = Admit(db, budget, "evaluation admission");
  if (!admitted.ok()) return admitted.status();
  const NormDb& ndb = *admitted.value().view.ndb;
  const std::vector<int>& survivors = admitted.value().survivors;

  EntailResult result;
  if (admitted.value().trivially_true) {
    result.entailed = true;
    result.engine_used = EngineKind::kAuto;
    return result;
  }
  if (survivors.empty()) {
    // The query reduced to FALSE: any minimal model is a countermodel.
    result.entailed = false;
    result.engine_used = EngineKind::kAuto;
    if (options_.want_countermodel) {
      result.countermodel = FirstMinimalModel(ndb);
    }
    return result;
  }

  // Dispatch on the surviving disjuncts and this database.
  const bool monadic_ok = admitted.value().monadic;
  const bool order_free = admitted.value().order_free;
  const bool db_neq_free = ndb.inequalities.empty();
  const bool conjunctive = survivors.size() == 1;

  EngineKind engine = options_.engine;
  if (engine == EngineKind::kAuto) {
    // No order atom surviving means the discrete model decides, so the
    // order-free route comes ahead of any costed one. A costed route is
    // taken only when applicable to THIS database's instance; otherwise
    // the static auto rule decides. Suggestions are advisory, so
    // inapplicability falls back instead of erroring.
    const std::optional<EngineKind> costed = cost_outcome_.engine;
    const bool costed_applies =
        costed.has_value() && !order_free &&
        (*costed == EngineKind::kBruteForce ||
         (*costed == EngineKind::kDisjunctiveSearch && monadic_ok) ||
         ((*costed == EngineKind::kBoundedWidth ||
           *costed == EngineKind::kPathDecomposition) &&
          monadic_ok && conjunctive && db_neq_free));
    engine = costed_applies
                 ? *costed
                 : AutoEngine(order_free, monadic_ok, conjunctive, db_neq_free);
  } else if (engine == EngineKind::kPathDecomposition ||
             engine == EngineKind::kBoundedWidth) {
    if (!monadic_ok || !conjunctive || !db_neq_free) {
      return Status::Unsupported(
          "conjunctive monadic engine requested for a non-conjunctive, "
          "non-monadic, or inequality-carrying instance");
    }
  } else if (engine == EngineKind::kDisjunctiveSearch) {
    if (!monadic_ok) {
      return Status::Unsupported(
          "disjunctive monadic engine requested for a non-monadic instance");
    }
  } else if (engine == EngineKind::kOrderFree) {
    if (!order_free) {
      return Status::Unsupported(
          "order-free engine requested for a query with order atoms or "
          "inequalities");
    }
  }
  result.engine_used = engine;

  std::optional<NormQuery> subset;  // built only when a disjunct dropped
  switch (engine) {
    case EngineKind::kBruteForce: {
      BruteForceOptions bf_options;
      bf_options.num_threads = num_threads;
      bf_options.budget = budget;
      // Hand the engine the plan-memoized matcher schedules, parallel to
      // the surviving disjuncts.
      std::vector<const CompiledConjunct*> compiled;
      compiled.reserve(survivors.size());
      for (int idx : survivors) compiled.push_back(&disjuncts_[idx].compiled);
      bf_options.compiled = &compiled;
      BruteForceOutcome outcome = EntailBruteForce(
          ndb, SurvivorQuery(query_, survivors, subset), bf_options);
      result.entailed = outcome.entailed;
      result.models_enumerated = outcome.models_enumerated;
      result.groups_pushed = outcome.groups_pushed;
      result.groups_popped = outcome.groups_popped;
      result.check_stats = outcome.check_stats;
      if (outcome.exhausted) {
        return ExhaustedStatus(budget, "engine brute-force", result);
      }
      if (options_.want_countermodel) {
        result.countermodel = std::move(outcome.countermodel);
      }
      break;
    }
    case EngineKind::kPathDecomposition: {
      PathEngineOutcome outcome =
          EntailByPaths(ndb, reduced(survivors[0]), budget);
      result.entailed = outcome.entailed;
      result.states_visited = outcome.paths_checked;
      if (outcome.exhausted) {
        return ExhaustedStatus(budget, "engine path-decomposition", result);
      }
      if (!result.entailed && options_.want_countermodel) {
        // The path engine proves non-entailment without a witness; the
        // bounded-width engine reconstructs one (also governed: the
        // witness search is part of the same request).
        BoundedWidthOutcome witness = EntailBoundedWidth(
            ndb, reduced_transitive(survivors[0]), true,
            /*already_reduced=*/true, budget);
        if (witness.exhausted) {
          return ExhaustedStatus(budget, "engine path-decomposition", result);
        }
        IODB_CHECK(!witness.entailed);
        result.countermodel = std::move(witness.countermodel);
      }
      break;
    }
    case EngineKind::kBoundedWidth: {
      BoundedWidthOutcome outcome = EntailBoundedWidth(
          ndb, reduced_transitive(survivors[0]),
          options_.want_countermodel, /*already_reduced=*/true, budget);
      result.entailed = outcome.entailed;
      result.states_visited = outcome.states_visited;
      result.check_stats = outcome.check_stats;
      if (outcome.exhausted) {
        return ExhaustedStatus(budget, "engine bounded-width", result);
      }
      if (options_.want_countermodel) {
        result.countermodel = std::move(outcome.countermodel);
      }
      break;
    }
    case EngineKind::kDisjunctiveSearch: {
      IODB_CHECK(!transitive_.disjuncts.empty());  // an automata route
      DisjunctiveOptions engine_options;
      engine_options.already_reduced = true;
      engine_options.budget = budget;
      const DisjunctiveOutcome outcome = EntailDisjunctive(
          ndb, SurvivorQuery(transitive_, survivors, subset), engine_options);
      result.entailed = outcome.entailed;
      result.states_visited = outcome.states_visited;
      result.check_stats = outcome.check_stats;
      // Decision mode stops at the first countermodel, so an exhausted
      // outcome always means "no verdict" here.
      if (outcome.exhausted) {
        return ExhaustedStatus(budget, "engine disjunctive-search", result);
      }
      if (options_.want_countermodel) {
        result.countermodel = std::move(outcome.countermodel);
      }
      break;
    }
    case EngineKind::kOrderFree: {
      OrderFreeOutcome outcome = EntailOrderFree(
          ndb, SurvivorQuery(query_, survivors, subset),
          options_.want_countermodel, budget);
      result.entailed = outcome.entailed;
      result.states_visited = outcome.label_tests;
      result.check_stats = outcome.check_stats;
      if (outcome.exhausted) {
        return ExhaustedStatus(budget, "engine order-free", result);
      }
      result.countermodel = std::move(outcome.countermodel);
      break;
    }
    case EngineKind::kAuto:
      IODB_CHECK(false);  // resolved above
  }
  return result;
}

std::vector<Result<EntailResult>> PreparedQuery::EvaluateBatch(
    std::span<const Database* const> dbs, ExecBudget* budget) const {
  std::vector<Result<EntailResult>> results;
  results.reserve(dbs.size());
  for (const Database* db : dbs) {
    IODB_CHECK(db != nullptr);
    results.push_back(Evaluate(*db, budget));
  }
  return results;
}

std::vector<Result<EntailResult>> PreparedQuery::ParallelEvaluateBatch(
    std::span<const Database* const> dbs, int num_workers,
    ExecBudget* budget) const {
  for (const Database* db : dbs) IODB_CHECK(db != nullptr);
  if (num_workers <= 1) return EvaluateBatch(dbs, budget);
  // The fan-out rule (see the header): every worker gets a database, or
  // the expected route can take milliseconds per database.
  const EngineKind expected = ExpectedEngine();
  const bool fan_out = static_cast<int>(dbs.size()) >= num_workers ||
                       (!trivially_true() &&
                        (expected == EngineKind::kBruteForce ||
                         expected == EngineKind::kDisjunctiveSearch));
  if (!fan_out || dbs.size() == 1) {
    // On the calling thread; a brute-force evaluation still shards its
    // enumeration subtrees across the workers.
    std::vector<Result<EntailResult>> results;
    results.reserve(dbs.size());
    for (const Database* db : dbs) {
      results.push_back(EvaluateWith(*db, num_workers, budget));
    }
    return results;
  }

  // Duplicate pointers must not be evaluated concurrently (a Database's
  // NormView fills lazily); evaluate the first occurrence, copy the rest.
  std::unordered_map<const Database*, size_t> first_of;
  std::vector<size_t> owners(dbs.size());
  std::vector<size_t> unique;
  for (size_t i = 0; i < dbs.size(); ++i) {
    auto [it, inserted] = first_of.try_emplace(dbs[i], i);
    owners[i] = it->second;
    if (inserted) unique.push_back(i);
  }

  std::vector<Result<EntailResult>> results(
      dbs.size(), Result<EntailResult>(EntailResult{}));
  ParallelFor(static_cast<int>(unique.size()), num_workers, [&](int k) {
    const size_t i = unique[k];
    results[i] = Evaluate(*dbs[i], budget);
  });
  for (size_t i = 0; i < dbs.size(); ++i) {
    if (owners[i] != i) results[i] = results[owners[i]];
  }
  return results;
}

Result<long long> PreparedQuery::EnumerateCountermodels(
    const Database& db,
    const std::function<bool(const FiniteModel&)>& on_countermodel,
    ExecBudget* budget) const {
  IODB_CHECK(on_countermodel != nullptr);
  Result<Admitted> admitted = Admit(db, budget, "enumeration admission");
  if (!admitted.ok()) return admitted.status();
  if (admitted.value().trivially_true) return 0;  // no model falsifies TRUE
  const NormDb& ndb = *admitted.value().view.ndb;
  const std::vector<int>& survivors = admitted.value().survivors;
  std::optional<NormQuery> subset;  // built only when a disjunct dropped
  const NormQuery& split_query = SurvivorQuery(query_, survivors, subset);

  long long reported = 0;
  if (admitted.value().monadic && !survivors.empty()) {
    // The engine reduces the disjuncts itself: enumeration is rare, and
    // plans on routes that never reach the automata do not memoize the
    // reductions.
    DisjunctiveOptions engine_options;
    engine_options.budget = budget;
    engine_options.on_countermodel = [&](const FiniteModel& model) {
      ++reported;
      return on_countermodel(model);
    };
    const DisjunctiveOutcome outcome =
        EntailDisjunctive(ndb, split_query, engine_options);
    if (outcome.exhausted) {
      EntailResult partial;
      partial.states_visited = outcome.states_visited;
      partial.check_stats = outcome.check_stats;
      return ExhaustedStatus(budget, "countermodel enumeration", partial);
    }
    return reported;
  }

  // Generic fallback (n-ary predicates or the FALSE query): enumerate the
  // minimal models through the incremental builder and filter with the
  // plan-memoized matchers; only actual countermodels are materialized.
  std::vector<const CompiledConjunct*> compiled;
  compiled.reserve(survivors.size());
  for (int idx : survivors) compiled.push_back(&disjuncts_[idx].compiled);
  ModelBuilder builder(ndb);
  QueryMatcher matcher(split_query,
                       split_query.disjuncts.empty() ? nullptr : &compiled);
  bool exhausted = false;
  ModelVisitor visitor;
  visitor.on_group = [&](int depth, const std::vector<int>& group) {
    if (budget != nullptr && !budget->Charge()) {
      exhausted = true;
      return false;
    }
    builder.PushGroup(depth, group);
    return true;
  };
  visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
    if (budget != nullptr && !budget->Charge()) {
      exhausted = true;
      return false;
    }
    builder.PopToDepth(static_cast<int>(groups.size()));
    if (matcher.Matches(builder.view(), &builder.index())) return true;
    ++reported;
    return on_countermodel(builder.Snapshot());
  };
  ForEachMinimalModel(ndb, visitor);
  if (exhausted) {
    EntailResult partial;
    partial.groups_pushed = builder.groups_pushed();
    partial.groups_popped = builder.groups_popped();
    return ExhaustedStatus(budget, "countermodel enumeration", partial);
  }
  return reported;
}

std::string PreparedQuery::Explain() const {
  auto pad = [](const char* text, size_t width) {
    std::string out = text;
    while (out.size() < width) out += ' ';
    return out;
  };
  std::string out = "prepared query: " + Plural(disjuncts_.size(), "disjunct") +
                    ", semantics=" + OrderSemanticsName(options_.semantics) +
                    ", engine=" + EngineKindName(options_.engine) + "\n";
  if (trivially_true()) out += "  (trivially true)\n";
  out += "passes:\n";
  for (const PassRecord& record : passes_) {
    out += "  " + pad(QueryPassName(record.id), 22) +
           (record.applied ? "applied  " : "no-op    ") + record.detail + "\n";
  }
  if (!disjuncts_.empty()) out += "disjuncts:\n";
  for (size_t i = 0; i < disjuncts_.size(); ++i) {
    const DisjunctPlan& entry = disjuncts_[i];
    out += "  #" + std::to_string(i) +
           " monadic=" + (entry.monadic_order_only ? "yes" : "no") +
           " order-vars=" + std::to_string(entry.order_vars) +
           " width=" + std::to_string(entry.width) +
           (entry.object_part.has_value() ? " object-part=yes" : "") +
           " engine=" + EngineKindName(entry.engine);
    if (entry.est_cost >= 0) {
      out += " est-cost=" + std::to_string(static_cast<long long>(
                                entry.est_cost));
    }
    if (entry.costed_schedule) out += " schedule=costed";
    out += "\n";
  }
  out += std::string("dispatch: ") + EngineKindName(planned_engine_);
  if (cost_outcome_.engine.has_value()) {
    const std::string costed = EngineKindName(*cost_outcome_.engine);
    out += ExpectedEngine() == planned_engine_
               ? " (outranks the costed route " + costed + ")"
               : " -> " + costed + " (costed route, where applicable)";
  }
  out += " (database-dependent filtering may adjust)\n";
  out += "plan-choice: " + PlanChoiceSummary() + "\n";
  return out;
}

EngineKind PreparedQuery::ExpectedEngine() const {
  // A costed route is only ever recorded under kAuto.
  if (cost_outcome_.engine.has_value() &&
      planned_engine_ != EngineKind::kOrderFree) {
    return *cost_outcome_.engine;
  }
  return planned_engine_;
}

std::string PreparedQuery::PlanChoiceSummary() const {
  const int schedules = CostedSchedules(cost_outcome_);
  const bool reorder = !cost_outcome_.disjunct_order.empty();
  if (schedules == 0 && !reorder && !cost_outcome_.engine.has_value()) {
    return "default";
  }
  std::string out = "costed(sched=" + std::to_string(schedules) + "/" +
                    std::to_string(disjuncts_.size()) +
                    ",reorder=" + (reorder ? "yes" : "no");
  if (cost_outcome_.engine.has_value()) {
    out += std::string(",engine=") + EngineKindName(ExpectedEngine());
  }
  return out + ")";
}

std::string PreparedQuery::Explain(const EntailResult& result) const {
  return Explain() + ExplainEvaluation(result);
}

std::string PreparedQuery::Explain(const EntailResult& result,
                                   const QueryPlanner* planner) const {
  if (planner == nullptr || !cost_outcome_.planned || disjuncts_.empty()) {
    return Explain(result);
  }
  // Per-disjunct estimates do not depend on the order of the input, so
  // costing the plan's (possibly reordered) disjuncts lines them up.
  const QueryPlanChoice choice = planner->PlanQuery(query_.disjuncts);
  // Explain is rare; a copy carrying the new estimates keeps it simple.
  PreparedQuery recosted(*this);
  for (size_t i = 0; i < disjuncts_.size(); ++i) {
    // A proposal of the wrong size is discarded whole, as in Prepare().
    recosted.disjuncts_[i].est_cost =
        choice.disjuncts.size() == disjuncts_.size()
            ? choice.disjuncts[i].est_cost
            : -1.0;
  }
  for (PassRecord& record : recosted.passes_) {
    if (record.id == QueryPassId::kCostPlan) {
      record.detail = CostPlanDetail(cost_outcome_, choice.detail);
    }
  }
  return recosted.Explain(result);
}

std::string PreparedQuery::ExplainEvaluation(const EntailResult& result) const {
  std::string out = "evaluation:\n";
  out += std::string("  engine                ") +
         EngineKindName(result.engine_used) + "\n";
  out += std::string("  verdict               ") +
         (result.entailed ? "entailed" : "not entailed") + "\n";
  auto counter = [&out](const char* name, long long value) {
    std::string line = "  ";
    line += name;
    while (line.size() < 24) line += ' ';
    out += line + std::to_string(value) + "\n";
  };
  counter("states-visited", result.states_visited);
  counter("models-enumerated", result.models_enumerated);
  counter("groups-pushed", result.groups_pushed);
  counter("groups-popped", result.groups_popped);
  counter("assignments-tried", result.check_stats.assignments_tried);
  counter("index-probes", result.check_stats.index_probes);
  counter("facts-scanned", result.check_stats.facts_scanned);
  counter("reach-probes", result.check_stats.reach_probes);
  counter("reach-fast-hits", result.check_stats.reach_fast_hits);
  counter("reach-fallbacks", result.check_stats.reach_fallbacks);
  counter("index-rebuilds", result.check_stats.index_rebuilds);
  // Estimated-vs-actual: the planner's work estimate next to the
  // counters above (assignments-tried is the matcher-side actual).
  double est_total = 0;
  bool any_est = false;
  for (const DisjunctPlan& entry : disjuncts_) {
    if (entry.est_cost >= 0) {
      est_total += entry.est_cost;
      any_est = true;
    }
  }
  if (any_est) {
    counter("est-assignments", static_cast<long long>(est_total));
  }
  return out;
}

}  // namespace iodb
