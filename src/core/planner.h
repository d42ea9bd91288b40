// Cost-based planning interface consulted by Prepare().
//
// The core layer knows nothing about where cost estimates come from: a
// QueryPlanner is an abstract oracle that, given the normalized disjuncts
// of a query, proposes per-disjunct variable-assignment schedules, an
// evaluation order over the disjuncts, and (optionally) an engine route.
// The concrete implementation backed by persisted database statistics
// lives in src/stats/cost_model.h; tests stub the interface directly.
//
// Planner proposals are strictly advisory and can never change a
// verdict: Prepare() validates every proposed schedule (it must be a
// permutation of the disjunct's order variables AND a linear extension
// of its dag — the compiled matcher's lower-bound scan requires dag
// sources to be assigned before their targets) and ignores anything
// invalid; engine suggestions are honored only when the caller asked for
// kAuto and the suggestion is applicable to the instance.

#ifndef IODB_CORE_PLANNER_H_
#define IODB_CORE_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/query.h"

namespace iodb {

/// The planner's proposal for one normalized disjunct.
struct DisjunctCost {
  /// Proposed assignment order over the disjunct's order variables (a
  /// permutation of [0, num_order_vars)). Empty keeps the default
  /// topological order. Invalid sequences (wrong length, not a
  /// permutation, not a linear extension of the dag) are ignored.
  std::vector<int> order_var_sequence;
  /// Estimated matcher work (candidate assignments tried); negative when
  /// the planner has no estimate.
  double est_cost = -1.0;
};

/// The planner's proposal for a whole normalized query.
struct QueryPlanChoice {
  /// Parallel to the input disjuncts (a size mismatch discards the whole
  /// proposal).
  std::vector<DisjunctCost> disjuncts;
  /// Evaluation order over the disjuncts (a permutation of [0, n));
  /// empty keeps the input order. First-match-wins evaluation paths try
  /// cheap disjuncts first for early exit.
  std::vector<int> disjunct_order;
  /// Suggested engine route; kAuto means no opinion. Honored only when
  /// the prepared options also say kAuto and the route is applicable.
  EngineKind engine = EngineKind::kAuto;
  /// One-line provenance note, recorded in the plan's cost-plan pass.
  std::string detail;
};

/// Abstract cost oracle. Implementations must be deterministic (the same
/// input always yields the same choice) and thread-safe for concurrent
/// PlanQuery calls — one planner is shared across service requests.
class QueryPlanner {
 public:
  virtual ~QueryPlanner() = default;

  virtual QueryPlanChoice PlanQuery(
      const std::vector<NormConjunct>& disjuncts) const = 0;

  /// A shortcut for plan caches, not part of plan identity: planners with
  /// equal fingerprints count as interchangeable, so a cache may route a
  /// request straight to the plan an equal-fingerprint planner led to,
  /// without re-running Prepare(). Planners with different fingerprints
  /// may still agree; the cache then finds out by preparing once and
  /// comparing the plans' CostPlanOutcome (core/prepare.h), and shares
  /// the plan when they match. Implementations may deliberately coarsen
  /// this (quantized statistics) to keep routes alive across small
  /// database mutations, at the price of serving one planner's choices
  /// to a near-equal one — verdicts are planner-independent by
  /// construction, only schedules vary.
  virtual uint64_t fingerprint() const = 0;
};

}  // namespace iodb

#endif  // IODB_CORE_PLANNER_H_
