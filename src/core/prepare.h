// Pass-based query compilation (the compile-once / evaluate-many shape
// of production query processors, after rdf3x).
//
// `Prepare()` runs the database-independent passes of the entailment
// cascade exactly once over a query:
//
//   constant-elimination   constants -> marker-guarded fresh variables
//                          (Section 2); the marker *facts* are recorded
//                          for evaluation-time injection
//   inequality-rewrite     query "!=" atoms -> disjunction blowup
//                          (Section 7), when it fits the budget
//   normalize              rules N1/N2, dag + label views per disjunct
//   semantics-reduction    Z sentinels / Q closure (Propositions 2.2/2.3,
//                          Corollary 2.6) for nontight queries
//   object-split           per disjunct, atom components touching no
//                          order variable are carved off (Section 4);
//                          checking them against ground facts is the
//                          evaluation-time half
//   engine-classification  per-disjunct static engine choice; a query
//                          with no order atom and no inequality left
//                          goes to the order-free engine
//   cost-plan              when the options carry a QueryPlanner
//                          (core/planner.h), rank alternative conjunct
//                          schedules, reorder disjuncts for early exit,
//                          and suggest an engine route — all advisory,
//                          never verdict-changing
//
// Each pass does its work once: passes 1-2 read the caller's query in
// place (a new surface query exists only when a pass rewrote it), the
// disjuncts are transformed in place in the one NormQuery the engines
// read (the planner reads it there too), and the monadic automata
// artifacts (transitive reductions) are built only for plans that can
// dispatch to an automata engine. Each compiled disjunct is stored once;
// an evaluation copies conjuncts only when ground-fact filtering drops a
// disjunct on that database.
//
// The resulting `PreparedQuery` is an inspectable plan: `Evaluate(db)`
// finishes the cheap database-dependent work (memoized normalization via
// Database::NormView, ground-fact filtering, dispatch), `EvaluateBatch`
// amortizes one plan across many databases, `ParallelEvaluateBatch` owns
// the rule for when a batch fans out across worker threads, and
// `Explain()` renders the plan as text. `Entails()` in core/engine.h is a
// thin wrapper over Prepare + Evaluate, so both paths return identical
// verdicts and engine choices by construction.

#ifndef IODB_CORE_PREPARE_H_
#define IODB_CORE_PREPARE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/database.h"
#include "core/engine.h"
#include "core/model.h"
#include "core/model_matcher.h"
#include "core/query.h"
#include "util/budget.h"
#include "util/status.h"

namespace iodb {

/// The compilation passes run by Prepare(), in execution order.
enum class QueryPassId {
  kConstantElimination,
  kInequalityRewrite,
  kNormalize,
  kSemanticsReduction,
  kObjectSplit,
  kEngineClassification,
  kCostPlan,
};

/// Returns the pass name, e.g. "constant-elimination".
const char* QueryPassName(QueryPassId id);

/// Provenance: what one pass did to the plan.
struct PassRecord {
  QueryPassId id;
  /// True if the pass transformed the plan; false for a recorded no-op.
  bool applied = false;
  /// One-line human-readable note, e.g. "2 constant(s) -> marker atoms".
  std::string detail;
};

/// Per-disjunct plan entry: the static facts about one compiled disjunct.
/// The disjunct itself is PreparedQuery::reduced(i) (and, on automata
/// routes, PreparedQuery::reduced_transitive(i)) for the entry's index i.
struct DisjunctPlan {
  /// The memoized model-check schedule of `reduced` (topological variable
  /// order, constraint/atom schedules) for the brute-force matcher: the
  /// topological sort runs once at prepare time, not per model.
  CompiledConjunct compiled;
  /// The stripped object-only sub-conjunct, if nonempty. At evaluation
  /// time a database whose ground object facts falsify it kills the whole
  /// disjunct.
  std::optional<NormConjunct> object_part;
  /// True if `reduced` is in the monadic-order fragment of Sections 4-6.
  bool monadic_order_only = false;
  /// True if `reduced` has no order atom and no inequality, so the
  /// order-free engine decides it on the database's own facts.
  bool order_free = false;
  int order_vars = 0;
  int width = 0;
  /// The engine this disjunct runs on when it is the only survivor
  /// against an inequality-free database (the conjunctive case).
  EngineKind engine = EngineKind::kBruteForce;
  /// Cost-plan pass outputs: the planner's work estimate for this
  /// disjunct (negative = no estimate) and whether `compiled` uses a
  /// cost-chosen variable order instead of the default topological one.
  double est_cost = -1.0;
  bool costed_schedule = false;
};

/// What the cost-plan pass accepted: the part of its output that shapes
/// the compiled plan. Two Prepare() runs over the same query text and the
/// same non-planner options build interchangeable plans exactly when
/// their outcomes are equal — the plans then differ only in est_cost and
/// provenance text — so plan caches identify a plan by this value, not
/// by the planner that produced it.
struct CostPlanOutcome {
  /// A planner was consulted (costing on). Costing-off plans never equal
  /// costing-on ones, even when the planner changed nothing.
  bool planned = false;
  /// Per disjunct, in Prepare's input order (before any reordering): the
  /// accepted variable schedule, or empty for the default topological
  /// one. Empty when nothing was planned.
  std::vector<std::vector<int>> schedules;
  /// The accepted disjunct permutation; empty keeps the input order.
  std::vector<int> disjunct_order;
  /// The accepted engine route (kept only under kAuto). Evaluate takes
  /// the order-free route ahead of it.
  std::optional<EngineKind> engine;

  friend bool operator==(const CostPlanOutcome&,
                         const CostPlanOutcome&) = default;
};

/// A compiled entailment query: the output of Prepare(). Cheap to
/// evaluate repeatedly; copyable (copies start with cold caches);
/// independent of any database (databases evaluated against must share
/// the plan's vocabulary — a mismatch is an InvalidArgument error).
///
/// Thread-safety: the plan's own caches are internally synchronized, so
/// concurrent Evaluate calls on ONE plan against DISTINCT Database
/// objects are safe (ParallelEvaluateBatch relies on this). A single
/// Database object still must not be evaluated concurrently — its
/// memoized NormView fills lazily under const.
class PreparedQuery {
 public:
  PreparedQuery(const PreparedQuery& other);
  PreparedQuery& operator=(const PreparedQuery& other);
  PreparedQuery(PreparedQuery&& other) noexcept = default;
  PreparedQuery& operator=(PreparedQuery&& other) noexcept = default;
  /// Decides db |= query. Equivalent to Entails(db, query, options) for
  /// the prepared (query, options), but all query compilation has already
  /// happened, and db-side normalization is memoized (Database::NormView
  /// for plain plans; a per-plan cache keyed by (db.uid, db.revision) for
  /// plans that must inject marker facts or sentinels).
  ///
  /// `budget`, when non-null, governs the evaluation: the engines charge
  /// it per unit of search work, and if it trips before a definite
  /// verdict the call returns kDeadlineExceeded / kCancelled with the
  /// partial work counters merged into the budget (ExecBudget::partial).
  /// Budgets are evaluation-time state, deliberately NOT part of the plan
  /// or its cache key, so governed and ungoverned requests share cached
  /// plans. A governed run that does not exhaust its budget returns
  /// results bit-identical to an ungoverned run.
  Result<EntailResult> Evaluate(const Database& db,
                                ExecBudget* budget = nullptr) const;

  /// Evaluates the plan against every database of the batch. One plan,
  /// many stores. A shared `budget` governs the whole batch: once it
  /// trips, every remaining member fails fast with the typed status.
  std::vector<Result<EntailResult>> EvaluateBatch(
      std::span<const Database* const> dbs,
      ExecBudget* budget = nullptr) const;

  /// As EvaluateBatch, on a small worker pool. The batch fans its
  /// databases out across the workers only when it has at least one per
  /// worker, or when the plan's expected route (ExpectedEngine) is brute
  /// force or the disjunctive search, whose evaluations can take
  /// milliseconds or more. Otherwise each database runs on the calling
  /// thread: there helper threads would cost more than the
  /// microsecond-scale evaluations they take over, and on a busy server
  /// they take cores from other sessions. A database not fanned out
  /// still goes through the one-database path, which shards the
  /// enumeration subtrees of a brute-force evaluation across the
  /// workers (a single-database batch always takes it). Results are
  /// written to their input slots (deterministic merge: result[i] is
  /// always db[i]'s verdict, independent of scheduling); a fanned-out
  /// batch evaluates duplicate Database pointers once and copies the
  /// result. `num_workers <= 1` degrades to EvaluateBatch; callers pick
  /// DefaultWorkerCount() (util/parallel.h) for "whatever the machine
  /// has". The shared `budget` (thread-safe) governs every in-flight
  /// shard at once — the seam batch-level deadlines and cancellation
  /// propagate through.
  std::vector<Result<EntailResult>> ParallelEvaluateBatch(
      std::span<const Database* const> dbs, int num_workers,
      ExecBudget* budget = nullptr) const;

  /// Enumerates the countermodels of the prepared query in `db`; see
  /// EnumerateCountermodels in core/engine.h for the contract. On budget
  /// exhaustion the enumeration is incomplete and the count is replaced
  /// by the typed status (countermodels already reported were genuine).
  Result<long long> EnumerateCountermodels(
      const Database& db,
      const std::function<bool(const FiniteModel&)>& on_countermodel,
      ExecBudget* budget = nullptr) const;

  /// Renders the plan: passes with provenance, per-disjunct
  /// classification, and the planned engine.
  std::string Explain() const;

  /// As Explain(), followed by ExplainEvaluation(result).
  std::string Explain(const EntailResult& result) const;

  /// As Explain(result), with the cost-plan estimates and provenance
  /// recomputed by `planner` over this plan's disjuncts. A plan shared by
  /// databases whose planners agree on the outcome then shows the
  /// requesting database's estimates, not those of the database it was
  /// first costed against. A null `planner`, or a plan prepared without
  /// one, renders Explain(result) unchanged.
  std::string Explain(const EntailResult& result,
                      const QueryPlanner* planner) const;

  /// Renders just the "evaluation:" section: the work counters of
  /// `result` (models enumerated, incremental push/pop operations, index
  /// probes, assignments tried), so speedups are observable rather than
  /// asserted.
  std::string ExplainEvaluation(const EntailResult& result) const;

  /// Pass provenance, in execution order (one record per pass).
  const std::vector<PassRecord>& passes() const { return passes_; }

  /// The compiled disjuncts with their static classification.
  const std::vector<DisjunctPlan>& disjuncts() const { return disjuncts_; }

  /// The options the query was prepared with.
  const EntailOptions& options() const { return options_; }

  /// The cost-plan pass outcome, the plan's identity among plans
  /// prepared from the same query text and options (see CostPlanOutcome).
  const CostPlanOutcome& cost_outcome() const { return cost_outcome_; }

  /// Disjunct i after normalization, semantics reduction and the static
  /// object/order split (object components disconnected from every order
  /// variable are stripped), in plan order: disjuncts()[i] describes it.
  const NormConjunct& reduced(size_t i) const { return query_.disjuncts[i]; }

  /// reduced(i) after labelled transitive reduction, memoized so the
  /// monadic automata engines never pay the reduction per evaluation.
  /// Built only for a monadic disjunct of a plan that can dispatch to
  /// bounded width, path decomposition or disjunctive search: under a
  /// forced one of those engines, or under kAuto unless every disjunct
  /// is order-free. Otherwise it is empty (no order variables).
  const NormConjunct& reduced_transitive(size_t i) const;

  /// True if compilation already proved the query TRUE in every model.
  bool trivially_true() const { return query_.trivially_true; }

  /// The statically planned engine: the dispatch choice assuming every
  /// disjunct survives ground-fact filtering against an inequality-free
  /// database. Evaluate() reports the actual choice per database.
  EngineKind planned_engine() const { return planned_engine_; }

  /// The engine the plan is expected to run: the forced engine, else the
  /// order-free route, else the cost plan's route when it took one, else
  /// the static plan. Evaluate() may still fall back per database, when
  /// a costed route does not apply there.
  EngineKind ExpectedEngine() const;

  /// Compact descriptor of the cost-plan pass outcome, for per-request
  /// plan-choice tags (iodb_replay, the serving protocol): "default"
  /// when no planner ran or nothing changed, else e.g.
  /// "costed(sched=1/2,reorder=yes,engine=brute-force)". On an order-free
  /// plan an engine suggestion renders as "engine=order-free", the route
  /// that outranks it.
  std::string PlanChoiceSummary() const;

  /// Marker facts injected into each evaluated database (the db-side half
  /// of constant elimination); empty for constant-free queries.
  const std::vector<ConstantShift::Marker>& markers() const {
    return markers_;
  }

 private:
  PreparedQuery() = default;
  friend Result<PreparedQuery> Prepare(const VocabularyPtr& vocab,
                                       const Query& query,
                                       const EntailOptions& options);

  /// True if Evaluate must transform the database (marker facts or
  /// integer sentinels) instead of using Database::NormView directly.
  bool NeedsDbTransform() const {
    return !markers_.empty() || needs_sentinels_;
  }

  /// A borrowed normalized view. `owner` (when set) keeps the plan's
  /// cache entry alive, so a concurrent eviction cannot free the view
  /// while a worker still evaluates against it.
  struct NormDbRef {
    const NormDb* ndb = nullptr;
    std::shared_ptr<const void> owner;
  };

  /// The normalized database the engines run on: the memoized NormView
  /// for plain plans, a per-plan cached transformed copy otherwise.
  Result<NormDbRef> NormDbFor(const Database& db) const;

  /// What every evaluation starts from: the normalized database, the
  /// plan indices of the disjuncts that survive its ground object facts,
  /// and what holds of those survivors.
  struct Admitted {
    NormDbRef view;
    std::vector<int> survivors;
    /// The query is TRUE in every model of the database.
    bool trivially_true = false;
    /// Every survivor is monadic-order / order-free (vacuously true when
    /// none survives).
    bool monadic = true;
    bool order_free = true;
  };

  /// The shared preamble of Evaluate and EnumerateCountermodels: the
  /// budget's admission poll (failing as `what`), NormDbFor, and the
  /// evaluation-time half of the object/order split, which drops every
  /// disjunct whose object part fails against the ground facts.
  Result<Admitted> Admit(const Database& db, ExecBudget* budget,
                         const char* what) const;

  /// Evaluate with the brute-force enumeration sharded over num_threads
  /// workers (1 = serial; Evaluate() is EvaluateWith(db, 1, budget)).
  Result<EntailResult> EvaluateWith(const Database& db, int num_threads,
                                    ExecBudget* budget) const;

  VocabularyPtr vocab_;
  EntailOptions options_;
  std::vector<PassRecord> passes_;
  std::vector<DisjunctPlan> disjuncts_;
  std::vector<ConstantShift::Marker> markers_;
  bool needs_sentinels_ = false;
  int sentinel_vars_ = 0;
  EngineKind planned_engine_ = EngineKind::kAuto;
  // What the cost-plan pass accepted. Its engine route is taken at
  // Evaluate when the options say kAuto and the route is applicable.
  CostPlanOutcome cost_outcome_;
  // The compiled disjuncts (reduced(i)), parallel to disjuncts_, and on
  // plans that can reach an automata engine their transitive reductions
  // (reduced_transitive(i); otherwise no disjuncts). Each carries the
  // query's trivially_true flag.
  NormQuery query_;
  NormQuery transitive_;

  // Per-database cache of the transformed-and-normalized view for plans
  // with NeedsDbTransform(), keyed by Database::uid with a revision stamp
  // (the pair identifies immutable content), so batch rounds over a fleet
  // amortize the transform per store. Bounded: once full, a miss on a new
  // database evicts everything, keeping long-lived plans from
  // accumulating entries for short-lived databases. Guarded by cache_mu_
  // (ParallelEvaluateBatch workers share the plan); entries are
  // shared_ptrs so an eviction never frees a view a worker still holds.
  struct TransformCache {
    uint64_t revision;
    Result<NormDb> ndb;
  };
  static constexpr size_t kMaxTransformCacheEntries = 64;
  mutable std::unique_ptr<std::mutex> cache_mu_ =
      std::make_unique<std::mutex>();
  mutable std::unordered_map<uint64_t,
                             std::shared_ptr<const TransformCache>>
      transform_cache_;
};

/// Compiles (query, options) into a PreparedQuery. `vocab` must be the
/// query's vocabulary; marker predicates for constant elimination are
/// registered into it. Fails exactly when the query-side passes of
/// Entails() fail (malformed query, unknown predicate, inequality-rewrite
/// budget under Z/Q semantics).
Result<PreparedQuery> Prepare(const VocabularyPtr& vocab, const Query& query,
                              const EntailOptions& options = {});

/// Convenience wrapper that aborts on error; for fixtures and examples
/// where the query is known to be well-formed.
PreparedQuery MustPrepare(const VocabularyPtr& vocab, const Query& query,
                          const EntailOptions& options = {});

/// Fingerprint of the full Prepare() input: the structural query
/// fingerprint (FingerprintQuery) mixed with every option that changes
/// the compiled plan or its verdict payload — semantics, forced engine,
/// countermodel request, inequality-rewrite budget, and the planner's
/// own fingerprint (0 when costing is off). A digest for logs and
/// tools, NOT a cache key: distinct inputs can collide in 64 bits, so
/// the service's plan cache (service/plan_cache.h) compares the query
/// text and options exactly instead.
uint64_t FingerprintPlanInputs(const Query& query,
                               const EntailOptions& options);

}  // namespace iodb

#endif  // IODB_CORE_PREPARE_H_
