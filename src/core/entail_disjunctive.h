// The Theorem 5.3 engine: disjunctive monadic queries over width-k
// databases in O(|D|^{2k} · |Pred| · Π|Φᵢ|), with countermodel
// enumeration.
//
// The engine searches for a countermodel by building a topological sort of
// the database point by point while running, for every disjunct Φᵢ, a
// nondeterministically chosen maximal path of Φᵢ through a *forced greedy*
// matcher:
//   * the state per disjunct is the next unmatched vertex uᵢ of the chosen
//     path (the path itself is chosen lazily, one successor at a time);
//   * when a new point with label set `a` is appended, the matcher must
//     advance uᵢ as long as Φᵢ[uᵢ] ⊆ a (greedy leftmost matching is
//     complete for sequential patterns, so refusing to advance would
//     wrongly report a satisfied path as falsified); a "<=" successor may
//     continue matching at the same point, a "<" successor stops;
//   * a path whose final vertex gets matched is satisfied — that branch
//     dies (by Lemma 4.1, a model falsifies Φᵢ iff it falsifies SOME
//     maximal path of Φᵢ; the search tries the other paths on other
//     branches).
// A completed sort in which every disjunct still has a pending vertex is a
// countermodel. Failure states are memoized, so deciding entailment stays
// within the paper's bound and enumeration has (amortized) polynomial
// delay between outputs, mirroring the paper's remark after Theorem 5.3.
// The unsorted points live in the sort region of core/region.h, in the
// form the database's EnumerationContext supports; both forms maintain
// the region incrementally under group removal and restore.

#ifndef IODB_CORE_ENTAIL_DISJUNCTIVE_H_
#define IODB_CORE_ENTAIL_DISJUNCTIVE_H_

#include <functional>
#include <optional>

#include "core/database.h"
#include "core/model.h"
#include "core/model_check.h"
#include "core/query.h"
#include "util/budget.h"

namespace iodb {

/// Options for the disjunctive engine.
struct DisjunctiveOptions {
  /// When set, every countermodel found is reported (the same model may be
  /// reported more than once, reached through different path choices — the
  /// paper's enumeration has the same redundancy). Return false to stop.
  /// When unset, the search stops at the first countermodel.
  std::function<bool(const FiniteModel&)> on_countermodel;
  /// The query's disjuncts are already transitively reduced; skip the
  /// per-call reduction (PreparedQuery memoizes it at Prepare() time).
  bool already_reduced = false;
  /// Optional execution budget, charged once per search state and once
  /// per group candidate tried. Null (the default) is the zero-overhead
  /// ungoverned path. On a trip the outcome reports `exhausted`;
  /// partially explored states are never memoized as failed.
  ExecBudget* budget = nullptr;
};

/// Outcome of the disjunctive engine.
struct DisjunctiveOutcome {
  bool entailed = true;
  /// The ExecBudget tripped before the search finished. In decision mode
  /// this implies no countermodel was found and `entailed` must be
  /// ignored. In enumeration mode countermodels reported before the trip
  /// are genuine but the enumeration (and any count) is incomplete.
  bool exhausted = false;
  long long states_visited = 0;
  long long countermodels_reported = 0;
  std::optional<FiniteModel> countermodel;
  /// Reachability-probe counters of the search, as the sort region
  /// (core/region.h) counts them: word probes for databases of at most 64
  /// points, counter reads and interval probes otherwise.
  ModelCheckStats check_stats;
};

/// Decides db |= query for a monadic-order-only query (every disjunct).
/// Databases MAY carry "!=" constraints: per the Section 7 remark, the
/// sorting procedure is modified so that a group never identifies two
/// points declared unequal, preserving the O(|D|^{2k}·|Φ|^l) bound for
/// monadic [<,<=]-queries over [<,<=,!=]-databases of width k.
DisjunctiveOutcome EntailDisjunctive(const NormDb& db, const NormQuery& query,
                                     const DisjunctiveOptions& options = {});

struct EnumerationContext;

namespace internal {
/// Test seam: EntailDisjunctive on a chosen region form (WordRegion or
/// CounterRegion from core/region.h), for a query whose disjuncts are
/// already reduced and not trivially true. `ctx` must be the database's
/// context.
template <class Region>
DisjunctiveOutcome EntailDisjunctiveOn(const NormDb& db,
                                       const NormQuery& query,
                                       const EnumerationContext& ctx,
                                       const DisjunctiveOptions& options);
}  // namespace internal

}  // namespace iodb

#endif  // IODB_CORE_ENTAIL_DISJUNCTIVE_H_
