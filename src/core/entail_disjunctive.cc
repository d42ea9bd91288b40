#include "core/entail_disjunctive.h"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "core/minimal_models.h"
#include "core/region.h"
#include "graph/topo.h"

namespace iodb {
namespace {

// The countermodel search, written once over the region form
// (core/region.h). A state is the region of unsorted points plus the
// per-disjunct path positions; the memo key is the region's key plus the
// positions' id.
template <class Region>
struct Engine {
  const NormDb& db;
  const NormQuery& query;
  const DisjunctiveOptions& options;
  DisjunctiveOutcome outcome;
  Region region;
  std::unordered_set<StateKey<Region>, StateKeyHash<Region>> failed;
  bool pack_positions;
  std::unordered_map<std::vector<int>, uint64_t, IntVectorHash> position_ids;
  std::vector<std::vector<int>> groups;  // current partial sort
  bool stop = false;
  bool exhausted = false;

  Engine(const NormDb& d, const NormQuery& q, const EnumerationContext& ctx,
         const DisjunctiveOptions& o)
      : db(d), query(q), options(o), region(d, ctx) {
    pack_positions = query.disjuncts.size() <= 5;
    for (const NormConjunct& conjunct : query.disjuncts) {
      if (conjunct.num_order_vars() >= (1 << 12)) pack_positions = false;
    }
  }

  // Budget seam: counts one unit of search work; on a trip sets the
  // sticky exhausted flag and the stop flag so every loop unwinds (and,
  // via the existing `!stop` guards, nothing half-explored is memoized).
  bool ChargeBudget() {
    if (options.budget == nullptr || options.budget->Charge()) return true;
    exhausted = true;
    stop = true;
    return false;
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

  // The positions' part of the memo key: 12 bits per position packed in
  // one word when they fit (at most 5 disjuncts of fewer than 4096
  // vertices each), an id interned per distinct position vector
  // otherwise.
  uint64_t PositionId(const std::vector<int>& u_vec) {
    if (!pack_positions) {
      return position_ids.try_emplace(u_vec, position_ids.size())
          .first->second;
    }
    uint64_t pack = 0;
    for (size_t i = 0; i < u_vec.size(); ++i) {
      pack |= static_cast<uint64_t>(u_vec[i]) << (12 * i);
    }
    return pack;
  }

  // Reports the current complete sort as a countermodel; stops the search
  // in decision mode (the first countermodel suffices) or when the
  // enumeration callback says so.
  void ReportCounter() {
    ++outcome.countermodels_reported;
    FiniteModel model = BuildMinimalModel(db, groups);
    if (outcome.entailed) {
      outcome.entailed = false;
      outcome.countermodel = model;
    }
    stop = options.on_countermodel == nullptr ||
           !options.on_countermodel(model);
  }

  // Search for a completion of the current region falsifying all
  // disjunct paths. Returns true if at least one countermodel was found
  // below this state.
  bool Search(const std::vector<int>& u_vec) {
    if (stop) return false;
    StateKey<Region> key{region.key(), PositionId(u_vec)};
    if (failed.contains(key)) return false;
    if (!ChargeBudget()) return false;
    ++outcome.states_visited;

    // The next-point group choices: down-closures of antichains of minor
    // points.
    typename Region::Level level;
    region.FindMinors(level);
    bool found_any = false;
    region.ForEachGroup(level, [&](const auto& group) {
      if (TryGroup(level, group, u_vec)) found_any = true;
      return !stop;
    });
    if (!found_any && !stop) failed.insert(std::move(key));
    return found_any;
  }

  // Kept out of line: inlined into the group walk's recursion it slows
  // the word form by a few percent (bench_thm53_disjunctive).
  [[gnu::noinline]] bool TryGroup(const typename Region::Level& level,
                                  const typename Region::Group& group,
                                  const std::vector<int>& u_vec) {
    if (!ChargeBudget()) return false;
    region.ChargeGroupClosure(level);
    // Section 7 generalization: a sort group may not identify two points
    // declared unequal.
    if (!region.Respects(group)) return false;

    std::vector<int> members;
    region.AppendMembers(group, &members);
    PredSet point_label(db.vocab->num_predicates());
    for (int m : members) point_label.UnionWith(db.labels[m]);

    // Per-disjunct forced advance; a disjunct whose every path choice is
    // satisfied by this point kills the group.
    std::vector<std::vector<int>> advance(query.disjuncts.size());
    for (size_t i = 0; i < query.disjuncts.size(); ++i) {
      advance[i] =
          ComputeAdvance(static_cast<int>(i), u_vec[i], point_label);
      if (advance[i].empty()) return false;
    }

    const typename Region::Mark mark = region.mark();
    region.RemoveGroup(group);
    groups.push_back(std::move(members));
    bool found = false;
    std::vector<int> next_u(u_vec.size());
    ProductSearch(advance, 0, next_u, found);
    groups.pop_back();
    region.RestoreTo(mark);
    return found;
  }

  void ProductSearch(const std::vector<std::vector<int>>& advance,
                     size_t index, std::vector<int>& next_u, bool& found) {
    if (stop) return;
    if (index == advance.size()) {
      if (region.empty()) {
        ReportCounter();
        found = true;
      } else if (Search(next_u)) {
        found = true;
      }
      return;
    }
    for (int u : advance[index]) {
      next_u[index] = u;
      ProductSearch(advance, index + 1, next_u, found);
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

  std::shared_ptr<const EnumerationContext> ctx =
      SharedEnumerationContext(db);
  return WithRegion(*ctx, [&]<class Region>(std::type_identity<Region>) {
    return internal::EntailDisjunctiveOn<Region>(db, query, *ctx, options);
  });
}

namespace internal {

template <class Region>
DisjunctiveOutcome EntailDisjunctiveOn(const NormDb& db,
                                       const NormQuery& query,
                                       const EnumerationContext& ctx,
                                       const DisjunctiveOptions& options) {
  Engine<Region> engine(db, query, ctx, options);

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

  // Branch over the product of initial path starts; the region is full.
  std::vector<int> u0(query.disjuncts.size(), -1);
  bool found = false;
  engine.ProductSearch(initial_choices, 0, u0, found);
  engine.outcome.exhausted = engine.exhausted;
  engine.outcome.check_stats.AddReachProbes(engine.region.probes());
  engine.outcome.check_stats.index_rebuilds = ctx.index_rebuilds();
  return engine.outcome;
}

template DisjunctiveOutcome EntailDisjunctiveOn<WordRegion>(
    const NormDb&, const NormQuery&, const EnumerationContext&,
    const DisjunctiveOptions&);
template DisjunctiveOutcome EntailDisjunctiveOn<CounterRegion>(
    const NormDb&, const NormQuery&, const EnumerationContext&,
    const DisjunctiveOptions&);

}  // namespace internal

}  // namespace iodb
