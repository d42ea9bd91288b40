#include "core/entail_disjunctive.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_set>

#include "core/minimal_models.h"
#include "graph/topo.h"

namespace iodb {
namespace {

// Packed search-state key for the mask fast path: the alive-region word
// plus the per-disjunct path positions (12 bits each). The alive word is
// a canonical stand-in for the seed set s (s = minimal vertices of the
// region, the region = up-closure of s).
struct PackedKeyHash {
  size_t operator()(const std::pair<uint64_t, uint64_t>& k) const {
    uint64_t h = k.first * 0x9e3779b97f4a7c15ULL;
    h ^= k.second + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

struct Engine {
  const NormDb& db;
  const NormQuery& query;
  const DisjunctiveOptions& options;
  DisjunctiveOutcome outcome;
  // The database's shared context (interval index, or word masks when
  // num_points <= 64).
  std::shared_ptr<const EnumerationContext> ctx;
  bool fast = false;  // mask fast path active
  ReachProbeStats rstats;
  std::unordered_set<std::vector<int>, IntVectorHash> failed;
  std::unordered_set<std::pair<uint64_t, uint64_t>, PackedKeyHash>
      failed_packed;
  std::vector<std::vector<int>> groups;  // current partial sort
  bool stop = false;
  bool exhausted = false;

  // Budget seam: counts one unit of search work; on a trip sets the
  // sticky exhausted flag and the stop flag so every loop unwinds (and,
  // via the existing `!stop` guards, nothing half-explored is memoized).
  bool ChargeBudget() {
    if (options.budget == nullptr || options.budget->Charge()) return true;
    exhausted = true;
    stop = true;
    return false;
  }

  // The packed key holds 12 bits per disjunct position; the fast path
  // additionally needs every point in one machine word.
  static constexpr size_t kMaxPackedDisjuncts = 5;
  static constexpr int kMaxPackedPosition = 1 << 12;

  Engine(const NormDb& d, const NormQuery& q, const DisjunctiveOptions& o)
      : db(d), query(q), options(o), ctx(SharedEnumerationContext(d)) {
    fast = ctx->has_masks && query.disjuncts.size() <= kMaxPackedDisjuncts;
    for (const NormConjunct& conjunct : query.disjuncts) {
      if (conjunct.num_order_vars() >= kMaxPackedPosition) fast = false;
    }
  }

  bool Comparable(int u, int v) { return ctx->Comparable(u, v, &rstats); }

  // Weak order-reachability m -> a (true when m == a).
  bool Reaches(int m, int a) { return ctx->Reaches(m, a, &rstats); }

  std::vector<bool> AliveFrom(const std::vector<int>& s) const {
    std::vector<bool> alive(db.num_points(), false);
    std::vector<int> queue(s);
    for (int v : queue) alive[v] = true;
    for (size_t head = 0; head < queue.size(); ++head) {
      for (const Digraph::Arc& arc : db.dag.out(queue[head])) {
        if (!alive[arc.vertex]) {
          alive[arc.vertex] = true;
          queue.push_back(arc.vertex);
        }
      }
    }
    return alive;
  }

  // Forced greedy advance of the path position `u` of disjunct `i` when a
  // point with label union `a` is appended. Collects the possible next
  // positions (one per lazily chosen path continuation); a fully matched
  // path contributes nothing (that continuation is satisfied and dies).
  void AdvanceSet(int i, int u, const PredSet& a,
                  std::vector<int>& results,
                  std::vector<bool>& seen) const {
    const NormConjunct& conjunct = query.disjuncts[i];
    if (seen[u]) return;
    seen[u] = true;
    if (!conjunct.labels[u].IsSubsetOf(a)) {
      results.push_back(u);  // cannot be matched at this point: stays
      return;
    }
    // Matched at this point: must advance along some edge.
    for (const Digraph::Arc& arc : conjunct.dag.out(u)) {
      if (arc.rel == OrderRel::kLe) {
        AdvanceSet(i, arc.vertex, a, results, seen);  // may match same point
      } else if (!seen[conjunct.num_order_vars() + arc.vertex]) {
        // "<" successor waits for a strictly later point. (Offset marks in
        // `seen` distinguish "emitted as stopped" from "visited".)
        seen[conjunct.num_order_vars() + arc.vertex] = true;
        results.push_back(arc.vertex);
      }
    }
    // No out-arc: the chosen path is fully matched; nothing is emitted.
  }

  std::vector<int> ComputeAdvance(int i, int u, const PredSet& a) const {
    std::vector<int> results;
    std::vector<bool> seen(
        2 * static_cast<size_t>(query.disjuncts[i].num_order_vars()), false);
    AdvanceSet(i, u, a, results, seen);
    return results;
  }

  static std::vector<int> Key(const std::vector<int>& s,
                              const std::vector<int>& u_vec) {
    std::vector<int> key(s);
    key.push_back(-1);
    key.insert(key.end(), u_vec.begin(), u_vec.end());
    return key;
  }

  static uint64_t PackPositions(const std::vector<int>& u_vec) {
    uint64_t pack = 0;
    for (size_t i = 0; i < u_vec.size(); ++i) {
      pack |= static_cast<uint64_t>(u_vec[i]) << (12 * i);
    }
    return pack;
  }

  // Reports the current complete sort as a countermodel. Returns true if
  // the search should continue looking for more countermodels.
  bool ReportCounter() {
    ++outcome.countermodels_reported;
    FiniteModel model = BuildMinimalModel(db, groups);
    if (outcome.entailed) {
      outcome.entailed = false;
      outcome.countermodel = model;
    }
    if (options.on_countermodel != nullptr) {
      if (!options.on_countermodel(model)) stop = true;
      return !stop;
    }
    stop = true;  // decision mode: first countermodel suffices
    return false;
  }

  // Entry point: dispatches the initial state to the active path.
  bool SearchTop(const std::vector<int>& s, const std::vector<int>& u_vec) {
    if (fast) {
      uint64_t alive = 0;
      for (int v : s) alive |= ctx->desc_mask[v];
      return SearchMask(alive, u_vec);
    }
    return Search(s, u_vec);
  }

  // ---------------------------------------------------------------------
  // General path (> 64 points or > 5 disjuncts): context probes.
  // ---------------------------------------------------------------------

  // Search for a completion of region S falsifying all disjunct paths.
  // Returns true if at least one countermodel was found below this state.
  bool Search(const std::vector<int>& s, const std::vector<int>& u_vec) {
    if (stop) return false;
    std::vector<int> key = Key(s, u_vec);
    if (failed.contains(key)) return false;
    if (!ChargeBudget()) return false;
    ++outcome.states_visited;

    std::vector<bool> alive = AliveFrom(s);
    std::vector<bool> minor = MinorVertices(db.dag, alive);
    std::vector<int> candidates;
    for (int v = 0; v < db.num_points(); ++v) {
      if (alive[v] && minor[v]) candidates.push_back(v);
    }
    IODB_CHECK(!candidates.empty());

    bool found_any = false;
    std::vector<int> chosen;
    EnumerateGroups(candidates, 0, chosen, alive, u_vec, found_any);
    if (!found_any && !stop) failed.insert(std::move(key));
    return found_any;
  }

  // Enumerates the next-point group choices (antichains of minor vertices,
  // taken with their down-closures) and recurses.
  void EnumerateGroups(const std::vector<int>& candidates, size_t next,
                       std::vector<int>& chosen,
                       const std::vector<bool>& alive,
                       const std::vector<int>& u_vec, bool& found_any) {
    if (stop) return;
    for (size_t i = next; i < candidates.size() && !stop; ++i) {
      int v = candidates[i];
      bool independent = true;
      for (int u : chosen) {
        if (Comparable(u, v)) {
          independent = false;
          break;
        }
      }
      if (!independent) continue;
      chosen.push_back(v);
      if (TryGroup(candidates, chosen, alive, u_vec)) found_any = true;
      EnumerateGroups(candidates, i + 1, chosen, alive, u_vec, found_any);
      chosen.pop_back();
    }
  }

  bool TryGroup(const std::vector<int>& minors, const std::vector<int>& chosen,
                const std::vector<bool>& alive,
                const std::vector<int>& u_vec) {
    if (!ChargeBudget()) return false;
    // Down-closure of the chosen antichain within the minor set.
    std::vector<int> group;
    PredSet point_label(db.vocab->num_predicates());
    for (int m : minors) {
      for (int a : chosen) {
        if (Reaches(m, a)) {
          group.push_back(m);
          point_label.UnionWith(db.labels[m]);
          break;
        }
      }
    }
    // Section 7 generalization: a sort group may not identify two points
    // declared unequal.
    for (const auto& [u, v] : db.inequalities) {
      bool has_u = std::find(group.begin(), group.end(), u) != group.end();
      bool has_v = std::find(group.begin(), group.end(), v) != group.end();
      if (has_u && has_v) return false;
    }

    // Per-disjunct forced advance; a disjunct whose every path choice is
    // satisfied by this point kills the group.
    std::vector<std::vector<int>> advance(query.disjuncts.size());
    for (size_t i = 0; i < query.disjuncts.size(); ++i) {
      advance[i] =
          ComputeAdvance(static_cast<int>(i), u_vec[i], point_label);
      if (advance[i].empty()) return false;
    }

    // Remaining region.
    std::vector<bool> next_alive = alive;
    for (int g : group) next_alive[g] = false;
    std::vector<int> next_s = MinimalVertices(db.dag, next_alive);

    groups.push_back(group);
    bool found = false;
    std::vector<int> next_u(u_vec.size());
    ProductSearch(advance, 0, next_u, next_s, found);
    groups.pop_back();
    return found;
  }

  void ProductSearch(const std::vector<std::vector<int>>& advance,
                     size_t index, std::vector<int>& next_u,
                     const std::vector<int>& next_s, bool& found) {
    if (stop) return;
    if (index == advance.size()) {
      if (next_s.empty()) {
        if (ReportCounter()) found = true;
        // ReportCounter() returning false may mean "stop everything"; the
        // countermodel itself still counts as found.
        found = true;
      } else if (Search(next_s, next_u)) {
        found = true;
      }
      return;
    }
    for (int u : advance[index]) {
      next_u[index] = u;
      ProductSearch(advance, index + 1, next_u, next_s, found);
      if (stop) return;
    }
  }

  // ---------------------------------------------------------------------
  // Mask fast path (<= 64 points, <= 5 disjuncts). Identical state space,
  // group enumeration order and countermodel sequence as the general
  // path; the alive region, minor test, antichain independence and group
  // down-closure all become single-word operations on the context masks.
  // ---------------------------------------------------------------------

  bool SearchMask(uint64_t alive, const std::vector<int>& u_vec) {
    if (stop) return false;
    std::pair<uint64_t, uint64_t> key{alive, PackPositions(u_vec)};
    if (failed_packed.contains(key)) return false;
    if (!ChargeBudget()) return false;
    ++outcome.states_visited;

    // A vertex is minor iff no strict ancestor is alive.
    uint64_t minors = 0;
    for (uint64_t rest = alive; rest != 0; rest &= rest - 1) {
      int v = std::countr_zero(rest);
      if ((ctx->strict_anc_mask[v] & alive) == 0) minors |= uint64_t{1} << v;
    }
    rstats.probes += std::popcount(alive);
    rstats.fast_hits += std::popcount(alive);
    IODB_CHECK(minors != 0);

    bool found_any = false;
    EnumerateGroupsMask(minors, minors, alive, /*incompat=*/0,
                        /*chosen_anc=*/0, u_vec, found_any);
    if (!found_any && !stop) failed_packed.insert(key);
    return found_any;
  }

  // `rest` iterates the candidate minors in ascending vertex order (the
  // same order the general path scans `candidates[i..]`); `incompat`
  // accumulates every vertex comparable to a chosen one; `chosen_anc` is
  // the union of the chosen vertices' ancestor masks, so the group's
  // down-closure is one AND away.
  void EnumerateGroupsMask(uint64_t minors, uint64_t rest, uint64_t alive,
                           uint64_t incompat, uint64_t chosen_anc,
                           const std::vector<int>& u_vec, bool& found_any) {
    if (stop) return;
    for (; rest != 0 && !stop; rest &= rest - 1) {
      int v = std::countr_zero(rest);
      ++rstats.probes;
      ++rstats.fast_hits;
      if ((incompat >> v) & 1) continue;
      uint64_t next_anc = chosen_anc | ctx->anc_mask[v];
      if (TryGroupMask(minors, next_anc, alive, u_vec)) found_any = true;
      EnumerateGroupsMask(minors, rest & (rest - 1), alive,
                          incompat | ctx->desc_mask[v] | ctx->anc_mask[v],
                          next_anc, u_vec, found_any);
    }
  }

  bool TryGroupMask(uint64_t minors, uint64_t chosen_anc, uint64_t alive,
                    const std::vector<int>& u_vec) {
    if (!ChargeBudget()) return false;
    // Down-closure of the chosen antichain within the minor set: the
    // minors that (weakly) reach a chosen vertex.
    uint64_t group_mask = minors & chosen_anc;
    rstats.probes += std::popcount(minors);
    rstats.fast_hits += std::popcount(minors);
    for (const auto& [u, v] : db.inequalities) {
      if (((group_mask >> u) & 1) && ((group_mask >> v) & 1)) return false;
    }

    std::vector<int> group;
    PredSet point_label(db.vocab->num_predicates());
    for (uint64_t g = group_mask; g != 0; g &= g - 1) {
      int m = std::countr_zero(g);
      group.push_back(m);
      point_label.UnionWith(db.labels[m]);
    }

    std::vector<std::vector<int>> advance(query.disjuncts.size());
    for (size_t i = 0; i < query.disjuncts.size(); ++i) {
      advance[i] =
          ComputeAdvance(static_cast<int>(i), u_vec[i], point_label);
      if (advance[i].empty()) return false;
    }

    uint64_t next_alive = alive & ~group_mask;
    groups.push_back(std::move(group));
    bool found = false;
    std::vector<int> next_u(u_vec.size());
    ProductSearchMask(advance, 0, next_u, next_alive, found);
    groups.pop_back();
    return found;
  }

  void ProductSearchMask(const std::vector<std::vector<int>>& advance,
                         size_t index, std::vector<int>& next_u,
                         uint64_t next_alive, bool& found) {
    if (stop) return;
    if (index == advance.size()) {
      if (next_alive == 0) {
        if (ReportCounter()) found = true;
        found = true;
      } else if (SearchMask(next_alive, next_u)) {
        found = true;
      }
      return;
    }
    for (int u : advance[index]) {
      next_u[index] = u;
      ProductSearchMask(advance, index + 1, next_u, next_alive, found);
      if (stop) return;
    }
  }
};

}  // namespace

DisjunctiveOutcome EntailDisjunctive(const NormDb& db,
                                     const NormQuery& raw_query,
                                     const DisjunctiveOptions& options) {
  IODB_CHECK(raw_query.IsMonadicOrderOnly());

  DisjunctiveOutcome trivial;
  if (raw_query.trivially_true) return trivial;

  // Drop redundant query atoms so per-disjunct path automata track only
  // maximal paths (see TransitiveReduceConjunct) — unless the caller's
  // plan already holds the reduced disjuncts (memoized at prepare time).
  NormQuery reduced_storage;
  if (!options.already_reduced) {
    reduced_storage.vocab = raw_query.vocab;
    for (const NormConjunct& conjunct : raw_query.disjuncts) {
      reduced_storage.disjuncts.push_back(TransitiveReduceConjunct(conjunct));
    }
  }
  const NormQuery& query =
      options.already_reduced ? raw_query : reduced_storage;

  Engine engine(db, query, options);

  // Initial per-disjunct positions: a minimal vertex of each disjunct dag.
  // A disjunct without order variables is the empty conjunction and makes
  // the query trivially true (handled above).
  std::vector<std::vector<int>> initial_choices;
  for (const NormConjunct& conjunct : query.disjuncts) {
    IODB_CHECK_GT(conjunct.num_order_vars(), 0);
    std::vector<bool> all(conjunct.num_order_vars(), true);
    initial_choices.push_back(MinimalVertices(conjunct.dag, all));
  }

  if (db.num_points() == 0) {
    // The unique minimal model is empty; every disjunct (which needs at
    // least one point) is falsified.
    engine.outcome.entailed = false;
    FiniteModel model = BuildMinimalModel(db, {});
    engine.outcome.countermodel = model;
    engine.outcome.countermodels_reported = 1;
    if (options.on_countermodel != nullptr) options.on_countermodel(model);
    return engine.outcome;
  }

  // Branch over the product of initial path starts.
  std::vector<bool> all_alive(db.num_points(), true);
  std::vector<int> s0 = MinimalVertices(db.dag, all_alive);
  std::vector<int> u0(query.disjuncts.size(), -1);
  std::function<void(size_t)> product = [&](size_t index) {
    if (engine.stop) return;
    if (index == initial_choices.size()) {
      engine.SearchTop(s0, u0);
      return;
    }
    for (int u : initial_choices[index]) {
      u0[index] = u;
      product(index + 1);
      if (engine.stop) return;
    }
  };
  product(0);
  engine.outcome.exhausted = engine.exhausted;
  engine.outcome.check_stats.AddReachProbes(engine.rstats);
  engine.outcome.check_stats.index_rebuilds = engine.ctx->index_rebuilds();
  return engine.outcome;
}

}  // namespace iodb
