// The Theorem 4.7 engine: conjunctive monadic queries over width-k
// databases in O(|D|^{k+1} · |Φ|).
//
// The paper reduces entailment to reachability in a graph of tuples
// (S, u), where S is an antichain of the database dag (here: the minimal
// vertices of the not-yet-sorted up-set) and u is a query vertex. The
// edges mirror the three SEQ cases:
//   (a) some s ∈ S has Φ[u] ⊄ D[s]: delete s (one such edge suffices —
//       Case I of SEQ is an equivalence for any choice of s);
//   (b) all of S satisfies Φ[u] and Φ has an edge u -<- v: delete the
//       minor vertices and advance to v;
//   (c) all of S satisfies Φ[u] and Φ has an edge u -<=- v: advance to v.
// D ⊭ Φ iff a tuple with empty S is reachable from some initial tuple
// (minimal vertices of D, minimal vertex of Φ): the database is exhausted
// while some maximal path of Φ still has an unmatched vertex.
//
// The search is memoized on (S, u); with width k there are O(|D|^k · |Φ|)
// tuples, each processed in O(|D|), giving the paper's bound. The region
// whose minimal points are S is the sort region of core/region.h, in the
// form the database's EnumerationContext supports.

#ifndef IODB_CORE_ENTAIL_BOUNDED_WIDTH_H_
#define IODB_CORE_ENTAIL_BOUNDED_WIDTH_H_

#include <optional>

#include "core/database.h"
#include "core/model.h"
#include "core/model_check.h"
#include "core/query.h"
#include "util/budget.h"

namespace iodb {

/// Outcome of the Theorem 4.7 engine.
struct BoundedWidthOutcome {
  bool entailed = true;
  /// The ExecBudget tripped before the search finished and no definite
  /// verdict was reached; `entailed` must be ignored. A countermodel
  /// found before the trip is still reported as a definite "not
  /// entailed" (exhausted stays false then).
  bool exhausted = false;
  long long states_visited = 0;
  /// When not entailed and requested: a minimal model falsifying the
  /// query, reconstructed from the SEQ countermodel construction along
  /// the successful reachability path.
  std::optional<FiniteModel> countermodel;
  /// Reachability-probe counters of the search.
  ModelCheckStats check_stats;
};

/// Decides db |= conjunct for a monadic-order-only conjunct over a
/// database without inequality constraints. `already_reduced` skips the
/// internal transitive reduction when the caller passes a conjunct that
/// is already reduced (PreparedQuery memoizes the reduction at Prepare()
/// time so repeated evaluations don't pay it). Minor/minimal tests go
/// through the sort region (core/region.h) over the database's shared
/// reachability context. `budget`, when non-null, is charged once per
/// search state; on a trip the outcome reports `exhausted` (partially
/// explored states are never memoized as failed, so a re-run starts
/// sound).
BoundedWidthOutcome EntailBoundedWidth(const NormDb& db,
                                       const NormConjunct& conjunct,
                                       bool want_countermodel = false,
                                       bool already_reduced = false,
                                       ExecBudget* budget = nullptr);

struct EnumerationContext;

namespace internal {
/// Test seam: the search of EntailBoundedWidth on a chosen region form
/// (WordRegion or CounterRegion from core/region.h), for a reduced
/// conjunct with at least one order variable over a nonempty database.
/// `ctx` must be the database's context.
template <class Region>
BoundedWidthOutcome EntailBoundedWidthOn(const NormDb& db,
                                         const NormConjunct& conjunct,
                                         const EnumerationContext& ctx,
                                         bool want_countermodel,
                                         ExecBudget* budget);
}  // namespace internal

}  // namespace iodb

#endif  // IODB_CORE_ENTAIL_BOUNDED_WIDTH_H_
