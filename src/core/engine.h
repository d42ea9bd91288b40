// The unified entailment API.
//
// `Entails` is a thin wrapper over the pass-based query-compilation
// pipeline of core/prepare.h: it compiles the query once with `Prepare()`
// (constant elimination, inequality rewriting, normalization, semantics
// reduction, object/order split, engine classification) and evaluates the
// resulting plan against the database. Callers that ask the same query
// repeatedly should hold a `PreparedQuery` instead and call `Evaluate()`
// / `EvaluateBatch()` directly — the compilation happens once and the
// database's normalized view is memoized (Database::NormView).

#ifndef IODB_CORE_ENGINE_H_
#define IODB_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/database.h"
#include "core/model.h"
#include "core/model_check.h"
#include "core/query.h"
#include "core/semantics.h"
#include "util/budget.h"
#include "util/status.h"

namespace iodb {

class QueryPlanner;  // core/planner.h

/// Algorithm selection.
///
/// kOrderFree covers the queries with no order atom and no inequality
/// left in any disjunct. Every minimal model is the group sequence of a
/// topological sort of D (Proposition 2.8), and sending each point to its
/// group keeps every fact that is not an order atom. So such a query holds
/// in every minimal model (Corollary 2.9) iff it holds in the discrete
/// one, where every point is its own group: relational evaluation over
/// D's own facts, with no model search (core/entail_order_free.h). kAuto
/// takes this route ahead of every other, costed ones included.
enum class EngineKind {
  kAuto,               // classify and pick the best applicable engine
  kBruteForce,         // minimal-model countermodel search (always applies)
  kPathDecomposition,  // Lemma 4.1 + SEQ (conjunctive monadic)
  kBoundedWidth,       // Theorem 4.7 (conjunctive monadic)
  kDisjunctiveSearch,  // Theorem 5.3 (disjunctive monadic)
  kOrderFree,          // Proposition 2.8: the discrete model decides
};

/// Returns a short name, e.g. "bounded-width".
const char* EngineKindName(EngineKind kind);

/// Parses an engine name back into its kind: the exact strings produced
/// by EngineKindName() round-trip, and the historical CLI shorthands
/// "paths" / "disjunctive" are accepted. Returns nullopt for anything
/// else.
std::optional<EngineKind> ParseEngineKind(const std::string& name);

/// Options for Entails().
struct EntailOptions {
  OrderSemantics semantics = OrderSemantics::kFinite;
  EngineKind engine = EngineKind::kAuto;
  /// Request a countermodel witness when the query is not entailed.
  bool want_countermodel = false;
  /// Budget for query-inequality rewriting (see RewriteInequalities).
  int max_rewritten_disjuncts = 1 << 16;
  /// Cost oracle for the Prepare() cost-plan pass (core/planner.h);
  /// null disables costing (the default static heuristics apply). The
  /// planner influences schedules and engine routes, never verdicts.
  std::shared_ptr<const QueryPlanner> planner;
};

/// Result of an entailment check.
struct EntailResult {
  bool entailed = false;
  /// The engine that produced the verdict.
  EngineKind engine_used = EngineKind::kAuto;
  /// A falsifying minimal model, when not entailed and requested (brute
  /// force, bounded-width, disjunctive and order-free engines provide
  /// one).
  std::optional<FiniteModel> countermodel;
  /// Work counters (meaning depends on the engine).
  long long states_visited = 0;
  long long models_enumerated = 0;
  /// Incremental-core counters (brute-force engine): group push/pop
  /// operations of the in-place model builder.
  long long groups_pushed = 0;
  long long groups_popped = 0;
  /// Model-check counters summed over every prefix/model check (brute
  /// force; zero for the monadic automata engines, which never
  /// materialize models during the decision).
  ModelCheckStats check_stats;
};

/// Decides db |= query under the chosen semantics. Fails with
/// kInconsistent if the database has no model, kUnsupported if a forced
/// engine does not apply to the (transformed) instance, kInvalidArgument
/// on malformed queries. `budget`, when non-null, governs the evaluation:
/// on exhaustion the call fails with kDeadlineExceeded / kCancelled and
/// partial work counters attached to the budget. A run that completes
/// under a budget is bit-identical to an ungoverned run.
Result<EntailResult> Entails(const Database& db, const Query& query,
                             const EntailOptions& options = {},
                             ExecBudget* budget = nullptr);

/// Convenience wrapper that aborts on error; for tests and examples where
/// inputs are known to be well-formed and consistent.
bool MustEntail(const Database& db, const Query& query,
                const EntailOptions& options = {});

/// Enumerates the countermodels of `query` in `db` — the minimal models in
/// which the query is FALSE. With the query-modification reading of
/// integrity constraints (Examples 1.1/1.2), these are precisely the
/// "solutions": valid schedules, admissible alignments, consistent
/// scenarios. Monadic instances use the Theorem 5.3 machine (polynomial
/// delay, possibly repeating a model across witnessing path choices);
/// everything else falls back to filtered minimal-model enumeration.
/// `on_countermodel` returns false to stop. Returns the number of
/// callbacks made (counting repeats).
Result<long long> EnumerateCountermodels(
    const Database& db, const Query& query,
    const std::function<bool(const FiniteModel&)>& on_countermodel,
    const EntailOptions& options = {}, ExecBudget* budget = nullptr);

}  // namespace iodb

#endif  // IODB_CORE_ENGINE_H_
