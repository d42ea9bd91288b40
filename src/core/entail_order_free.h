// Order-free entailment: queries with no order atom and no inequality.
//
// D |= Φ iff every minimal model of D satisfies Φ (Corollary 2.9). Every
// minimal model is the group sequence of a topological sort of D's dag
// (Proposition 2.8), and sending each database point to its group keeps
// every fact that is not an order atom. A positive existential query
// without "<", "<=" or "!=" survives that map, so if it holds in the
// *discrete* model (each point its own group) it holds in every minimal
// model; and the discrete model is a minimal model itself. So D |= Φ iff
// Φ holds in the discrete model: plain relational evaluation over D's
// facts, polynomial in |D| for a fixed query. The paper's hardness comes
// entirely from order atoms.
//
// The decision reads the normalized database directly. The variables of
// a monadic order-free disjunct are unrelated, so the disjunct holds iff
// each variable's label set is contained in some point's label set. Any
// other disjunct (object variables, n-ary atoms) is model-checked on the
// discrete model, built at most once per call and only when needed. A
// NOT ENTAILED verdict returns the discrete model as its countermodel.

#ifndef IODB_CORE_ENTAIL_ORDER_FREE_H_
#define IODB_CORE_ENTAIL_ORDER_FREE_H_

#include <optional>

#include "core/database.h"
#include "core/model.h"
#include "core/model_check.h"
#include "core/query.h"
#include "util/budget.h"

namespace iodb {

/// True if the conjunct has no order atom (dag edge) and no inequality.
inline bool IsOrderFree(const NormConjunct& conjunct) {
  return conjunct.dag.num_edges() == 0 && conjunct.inequalities.empty();
}

/// Outcome of the order-free engine.
struct OrderFreeOutcome {
  bool entailed = false;
  /// The ExecBudget tripped before a verdict; `entailed` must be ignored.
  bool exhausted = false;
  /// Label-set containment tests made by the monadic check.
  long long label_tests = 0;
  /// Model-check counters of the non-monadic disjuncts.
  ModelCheckStats check_stats;
  /// The discrete model, when not entailed and requested.
  std::optional<FiniteModel> countermodel;
};

/// The discrete minimal model of `db`: every point its own group, in a
/// topological order of the dag.
FiniteModel DiscreteModel(const NormDb& db);

/// Decides db |= query for a query whose disjuncts are all order-free
/// (checked). Stops at the first disjunct that holds. `budget`, when
/// non-null, is charged once per disjunct checked.
OrderFreeOutcome EntailOrderFree(const NormDb& db, const NormQuery& query,
                                 bool want_countermodel = false,
                                 ExecBudget* budget = nullptr);

}  // namespace iodb

#endif  // IODB_CORE_ENTAIL_ORDER_FREE_H_
