// The statistics-backed cost model: a QueryPlanner implementation.
//
// Estimation follows the textbook selectivity cascade (cf. RDF-3X's
// plan generator): the candidate count of an order variable is the
// database point count scaled by the selectivity of each required label
// (label_points / points), refined by the pairwise co-occurrence sketch
// (the candidates cannot exceed any single label's count nor any
// required pair's count), and discounted for dag in-arcs from already-
// scheduled variables (each in-arc lower-bounds the scan range). A
// greedy schedule assigns the cheapest ready variable next — a linear
// extension by construction — and the disjunct's cost is the sum of
// partial-assignment products along that schedule, the classic
// left-deep cost estimate.
//
// Disjuncts are reordered cheapest-first (first-match-wins evaluation
// exits early), and the one engine-route rule is deliberately
// conservative: when the database's order graph is one all-strict total
// chain it has exactly one minimal model, so a single brute-force model
// check beats building the disjunctive automaton — everything else
// keeps the static auto route.

#ifndef IODB_STATS_COST_MODEL_H_
#define IODB_STATS_COST_MODEL_H_

#include <memory>
#include <vector>

#include "core/planner.h"
#include "stats/stats.h"

namespace iodb::stats {

class CostModel : public QueryPlanner {
 public:
  /// `stats` must be non-null, with `label_points` and `label_pairs`
  /// ascending as DatabaseStats documents: the model binary-searches
  /// them. Public so tests (and the conformance fuzzer's perturbed-
  /// statistics mode) can feed arbitrary counts.
  explicit CostModel(std::shared_ptr<const DatabaseStats> stats);

  QueryPlanChoice PlanQuery(
      const std::vector<NormConjunct>& disjuncts) const override;

  /// Quantized: hashes magnitude classes (bit widths) of the counts,
  /// not exact values, so plan-cache keys survive small mutations that
  /// do not change any magnitude. Coarseness is safe — plans built from
  /// slightly different stats are interchangeable verdict-wise.
  uint64_t fingerprint() const override { return fingerprint_; }

  const DatabaseStats& stats() const { return *stats_; }

  /// Estimated matcher work of one disjunct; `sequence_out`, when
  /// non-null, receives the greedy schedule (a linear extension of the
  /// conjunct dag). Exposed for tests and benches.
  double EstimateConjunct(const NormConjunct& conjunct,
                          std::vector<int>* sequence_out) const;

 private:
  double LabelCandidates(const PredSet& labels) const;
  /// Points carrying label `pred` (0 if none).
  long long LabelPoints(int pred) const;
  /// The sketched pair's entry, or null when (p, q) is not sketched.
  const LabelPairStats* FindPair(int p, int q) const;

  std::shared_ptr<const DatabaseStats> stats_;
  uint64_t fingerprint_ = 0;
};

}  // namespace iodb::stats

#endif  // IODB_STATS_COST_MODEL_H_
