#include "core/entail_order_free.h"

#include <vector>

#include "graph/topo.h"

namespace iodb {

namespace {

// True if some point of `db` carries every label in `labels`.
bool SomePointCarries(const NormDb& db, const PredSet& labels,
                      long long* tests) {
  for (const PredSet& point : db.labels) {
    ++*tests;
    if (labels.IsSubsetOf(point)) return true;
  }
  return false;
}

}  // namespace

FiniteModel DiscreteModel(const NormDb& db) {
  std::vector<std::vector<int>> groups;
  for (int p : TopologicalOrder(db.dag)) groups.push_back({p});
  return BuildMinimalModel(db, groups);
}

OrderFreeOutcome EntailOrderFree(const NormDb& db, const NormQuery& query,
                                 bool want_countermodel,
                                 ExecBudget* budget) {
  OrderFreeOutcome outcome;
  if (query.trivially_true) {
    outcome.entailed = true;
    return outcome;
  }
  std::optional<FiniteModel> discrete;  // built only when needed
  for (const NormConjunct& conjunct : query.disjuncts) {
    IODB_CHECK(IsOrderFree(conjunct));
    if (budget != nullptr && !budget->Charge()) {
      outcome.exhausted = true;
      return outcome;
    }
    bool holds = true;
    if (conjunct.IsMonadicOrderOnly()) {
      for (const PredSet& labels : conjunct.labels) {
        if (!SomePointCarries(db, labels, &outcome.label_tests)) {
          holds = false;
          break;
        }
      }
    } else {
      if (!discrete.has_value()) discrete = DiscreteModel(db);
      holds = Satisfies(*discrete, conjunct, &outcome.check_stats);
    }
    if (holds) {
      outcome.entailed = true;
      return outcome;
    }
  }
  if (want_countermodel) {
    outcome.countermodel =
        discrete.has_value() ? std::move(*discrete) : DiscreteModel(db);
  }
  return outcome;
}

}  // namespace iodb
