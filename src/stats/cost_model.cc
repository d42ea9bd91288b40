#include "stats/cost_model.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/check.h"

namespace iodb::stats {

namespace {

uint64_t PairKey(int p, int q) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(p)) << 32) |
         static_cast<uint32_t>(q);
}

uint64_t BitWidth(long long value) {
  return value <= 0
             ? 0
             : std::bit_width(static_cast<unsigned long long>(value));
}

// Cost clamps: a zero candidate estimate would flatten everything after
// it, and unbounded products overflow to inf; neither helps ranking.
constexpr double kMinCandidates = 1e-3;
constexpr double kMaxCost = 1e18;

}  // namespace

CostModel::CostModel(std::shared_ptr<const DatabaseStats> stats)
    : stats_(std::move(stats)) {
  IODB_CHECK(stats_ != nullptr);

  // Quantized fingerprint: magnitude classes of every count plus the
  // exact structure bits the engine-route rule reads, so the route can
  // never change without the fingerprint changing.
  uint64_t hash = 0xCBF29CE484222325ULL;
  auto mix = [&hash](uint64_t value) {
    hash ^= value + 0x9E3779B97F4A7C15ULL + (hash << 6) + (hash >> 2);
  };
  const DatabaseStats& s = *stats_;
  mix(s.order_stats_valid ? 1 : 0);
  mix(BitWidth(s.points));
  mix(BitWidth(s.edges));
  mix(s.points > 0 && s.dag_depth == s.points ? 1 : 0);
  mix(s.strict_edges == s.edges ? 1 : 0);
  mix(BitWidth(s.object_constants));
  for (const PredicateStats& ps : s.predicates) {
    mix(static_cast<uint64_t>(ps.pred));
    mix(BitWidth(ps.tuples));
  }
  for (const auto& [pred, count] : s.label_points) {
    mix(static_cast<uint64_t>(pred));
    mix(BitWidth(count));
  }
  for (const LabelPairStats& pair : s.label_pairs) {
    mix(PairKey(pair.p, pair.q));
    mix(BitWidth(pair.points));
  }
  fingerprint_ = hash;
}

long long CostModel::LabelPoints(int pred) const {
  const std::vector<std::pair<int, long long>>& labels = stats_->label_points;
  auto it = std::lower_bound(
      labels.begin(), labels.end(), pred,
      [](const std::pair<int, long long>& entry, int p) {
        return entry.first < p;
      });
  return it != labels.end() && it->first == pred ? it->second : 0;
}

const LabelPairStats* CostModel::FindPair(int p, int q) const {
  const std::vector<LabelPairStats>& pairs = stats_->label_pairs;
  auto it = std::lower_bound(
      pairs.begin(), pairs.end(), std::pair(p, q),
      [](const LabelPairStats& entry, const std::pair<int, int>& key) {
        return std::pair(entry.p, entry.q) < key;
      });
  return it != pairs.end() && it->p == p && it->q == q ? &*it : nullptr;
}

double CostModel::LabelCandidates(const PredSet& labels) const {
  const DatabaseStats& s = *stats_;
  if (!s.order_stats_valid || s.points <= 0) return 1.0;
  const double points = static_cast<double>(s.points);
  const std::vector<int> required = labels.Elements();
  if (required.empty()) return points;
  // Independence estimate, capped by every single-label count and every
  // sketched pair count (candidates can exceed neither).
  double independent = points;
  double cap = points;
  for (int pred : required) {
    const double lp = static_cast<double>(LabelPoints(pred));
    cap = std::min(cap, lp);
    independent *= lp / points;
  }
  // A complete sketch (nothing truncated) makes absent pairs exact
  // zeros; a truncated one only says "not among the heaviest".
  const bool complete = s.label_pairs.size() < DatabaseStats::kMaxLabelPairs;
  for (size_t i = 0; i < required.size(); ++i) {
    for (size_t j = i + 1; j < required.size(); ++j) {
      const LabelPairStats* pair = FindPair(required[i], required[j]);
      if (pair != nullptr) {
        cap = std::min(cap, static_cast<double>(pair->points));
      } else if (complete) {
        cap = 0.0;
      }
    }
  }
  return std::clamp(std::min(independent, cap), 0.0, points);
}

double CostModel::EstimateConjunct(const NormConjunct& conjunct,
                                   std::vector<int>* sequence_out) const {
  const int nv = conjunct.num_order_vars();
  std::vector<double> base(nv);
  for (int t = 0; t < nv; ++t) {
    base[t] = LabelCandidates(conjunct.labels[t]);
  }
  std::vector<int> unscheduled_preds(nv, 0);
  for (const LabeledEdge& e : conjunct.dag.edges()) ++unscheduled_preds[e.to];
  std::vector<bool> scheduled(nv, false);
  std::vector<int> sequence;
  sequence.reserve(nv);
  double cost = 0.0;
  double product = 1.0;
  for (int step = 0; step < nv; ++step) {
    // Cheapest ready variable next (ascending scan breaks ties on the
    // smallest id, keeping the schedule deterministic). A ready
    // variable has every dag predecessor scheduled, so each of its
    // in-arcs narrows the matcher's scan range — discount accordingly.
    int best = -1;
    double best_cost = 0.0;
    for (int t = 0; t < nv; ++t) {
      if (scheduled[t] || unscheduled_preds[t] > 0) continue;
      const double c =
          base[t] / (1.0 + static_cast<double>(conjunct.dag.in(t).size()));
      if (best == -1 || c < best_cost) {
        best = t;
        best_cost = c;
      }
    }
    IODB_CHECK_GE(best, 0);  // a dag always has a ready vertex
    scheduled[best] = true;
    sequence.push_back(best);
    for (const Digraph::Arc& arc : conjunct.dag.out(best)) {
      --unscheduled_preds[arc.vertex];
    }
    product = std::min(product * std::max(best_cost, kMinCandidates),
                       kMaxCost);
    cost = std::min(cost + product, kMaxCost);
  }
  // Object variables scan the whole object domain after the order vars.
  const double object_domain =
      std::max(1, stats_->object_constants);
  for (int x = 0; x < conjunct.num_object_vars(); ++x) {
    product = std::min(product * object_domain, kMaxCost);
    cost = std::min(cost + product, kMaxCost);
  }
  if (sequence_out != nullptr) *sequence_out = std::move(sequence);
  return cost;
}

QueryPlanChoice CostModel::PlanQuery(
    const std::vector<NormConjunct>& disjuncts) const {
  QueryPlanChoice choice;
  choice.disjuncts.resize(disjuncts.size());
  bool all_monadic = !disjuncts.empty();
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    std::vector<int> sequence;
    choice.disjuncts[i].est_cost =
        EstimateConjunct(disjuncts[i], &sequence);
    choice.disjuncts[i].order_var_sequence = std::move(sequence);
    all_monadic = all_monadic && disjuncts[i].IsMonadicOrderOnly();
  }

  // Cheapest disjunct first: every first-match-wins path (brute-force
  // matcher, disjunctive search) exits earlier on average.
  std::vector<int> order(disjuncts.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return choice.disjuncts[a].est_cost < choice.disjuncts[b].est_cost;
  });
  choice.disjunct_order = std::move(order);

  // Engine route: an all-strict total chain admits exactly ONE minimal
  // model (no two points can merge or reorder), so a multi-disjunct
  // monadic query is cheaper as a single brute-force model check than
  // as a disjunctive automaton construction.
  const DatabaseStats& s = *stats_;
  if (all_monadic && disjuncts.size() > 1 && s.order_stats_valid &&
      s.points > 0 && s.dag_depth == s.points &&
      s.strict_edges == s.edges && s.components == 1) {
    choice.engine = EngineKind::kBruteForce;
  }

  choice.detail = "cost-model over stats " + std::to_string(s.db_uid) + "@" +
                  std::to_string(s.db_revision);
  return choice;
}

}  // namespace iodb::stats
