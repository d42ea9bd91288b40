#include "core/entail_bounded_width.h"

#include <cstdint>
#include <unordered_set>
#include <utility>

#include "core/minimal_models.h"
#include "core/region.h"
#include "graph/topo.h"

namespace iodb {
namespace {

// The search over tuples (S, u), written once over the region form
// (core/region.h): the region is the not-yet-sorted up-set, S its minimal
// points. Removals are LIFO; successful branches return without
// restoring — the search unwinds completely once a countermodel is found.
template <class Region>
struct Engine {
  const NormDb& db;
  const NormConjunct& query;
  bool want_countermodel;
  // Governance: charged once per search state. When the budget trips,
  // `exhausted` goes sticky, every recursion unwinds via false, and no
  // partially explored state is inserted into the failed memo (a state
  // abandoned mid-exploration has not been proven counterexample-free).
  ExecBudget* budget;
  bool exhausted = false;
  long long states_visited = 0;
  Region region;
  // States (S, u) fully explored without finding a countermodel.
  std::unordered_set<StateKey<Region>, StateKeyHash<Region>> failed;
  // Countermodel groups, collected deepest-first on unwind.
  std::vector<std::vector<int>> groups_reversed;

  Engine(const NormDb& d, const NormConjunct& q,
         const EnumerationContext& ctx, bool want, ExecBudget* b)
      : db(d), query(q), want_countermodel(want), budget(b), region(d, ctx) {}

  // Kept out of line: inlined into its own recursion, the word form ran
  // 8-20% slower (bench_thm47_width at 16-64 points).
  [[gnu::noinline]] bool FindCounter(int u) {
    if (exhausted) return false;
    StateKey<Region> key{region.key(), static_cast<uint64_t>(u)};
    if (failed.contains(key)) return false;
    if (budget != nullptr && !budget->Charge()) {
      exhausted = true;
      return false;
    }
    ++states_visited;

    // Edge (a): some minimal vertex fails the label of u.
    const int failing = region.FirstMinimal(
        [&](int v) { return !query.labels[u].IsSubsetOf(db.labels[v]); });
    if (failing != -1) {
      const typename Region::Mark mark = region.mark();
      region.Remove(failing);
      if (region.empty() || FindCounter(u)) {
        if (want_countermodel) groups_reversed.push_back({failing});
        return true;
      }
      region.RestoreTo(mark);
      if (exhausted) return false;
      failed.insert(std::move(key));
      return false;
    }

    // Edges (b) and (c). "<" successors share one lazily computed minor
    // group removal; a "<=" successor between two "<" successors restores
    // it first (and the next "<" removes the same group again — the "<="
    // recursion restored the region exactly).
    typename Region::Level minors;
    bool minors_computed = false;
    bool removed = false;
    const typename Region::Mark mark = region.mark();
    for (const Digraph::Arc& arc : query.dag.out(u)) {
      if (arc.rel == OrderRel::kLe) {
        if (removed) {
          region.RestoreTo(mark);
          removed = false;
        }
        if (FindCounter(arc.vertex)) return true;
      } else {
        if (!removed) {
          if (!minors_computed) {
            minors_computed = true;
            region.FindMinors(minors);
          }
          region.RemoveGroup(minors.minors);
          removed = true;
        }
        if (region.empty() || FindCounter(arc.vertex)) {
          if (want_countermodel) {
            region.AppendMembers(minors.minors,
                                 &groups_reversed.emplace_back());
          }
          return true;
        }
      }
    }
    if (removed) region.RestoreTo(mark);
    if (exhausted) return false;
    failed.insert(std::move(key));
    return false;
  }
};

}  // namespace

BoundedWidthOutcome EntailBoundedWidth(const NormDb& db,
                                       const NormConjunct& raw_conjunct,
                                       bool want_countermodel,
                                       bool already_reduced,
                                       ExecBudget* budget) {
  IODB_CHECK(raw_conjunct.IsMonadicOrderOnly());
  IODB_CHECK(db.inequalities.empty());
  // Redundant query atoms would add shortcut paths to the search without
  // changing the constraints; drop them up front (unless the caller's
  // plan already did, once, at prepare time).
  NormConjunct reduced_storage;
  if (!already_reduced) {
    reduced_storage = TransitiveReduceConjunct(raw_conjunct);
  }
  const NormConjunct& conjunct =
      already_reduced ? raw_conjunct : reduced_storage;
  BoundedWidthOutcome outcome;
  if (conjunct.num_order_vars() == 0) return outcome;  // empty: trivially true

  if (db.num_points() == 0) {
    // Empty database: the single (empty) minimal model falsifies any
    // conjunct with at least one order variable.
    outcome.entailed = false;
    if (want_countermodel) outcome.countermodel = BuildMinimalModel(db, {});
    return outcome;
  }

  std::shared_ptr<const EnumerationContext> ctx =
      SharedEnumerationContext(db);
  return WithRegion(*ctx, [&]<class Region>(std::type_identity<Region>) {
    return internal::EntailBoundedWidthOn<Region>(db, conjunct, *ctx,
                                                  want_countermodel, budget);
  });
}

namespace internal {

template <class Region>
BoundedWidthOutcome EntailBoundedWidthOn(const NormDb& db,
                                         const NormConjunct& conjunct,
                                         const EnumerationContext& ctx,
                                         bool want_countermodel,
                                         ExecBudget* budget) {
  BoundedWidthOutcome outcome;
  Engine<Region> engine(db, conjunct, ctx, want_countermodel, budget);
  std::vector<bool> query_alive(conjunct.num_order_vars(), true);
  for (int u0 : MinimalVertices(conjunct.dag, query_alive)) {
    if (engine.exhausted) break;
    if (engine.FindCounter(u0)) {
      outcome.entailed = false;
      if (want_countermodel) {
        std::vector<std::vector<int>> groups(engine.groups_reversed.rbegin(),
                                             engine.groups_reversed.rend());
        // The search may stop with vertices still unsorted only when the
        // region emptied; by construction it did. Assert coverage.
        outcome.countermodel = BuildMinimalModel(db, groups);
      }
      break;
    }
  }
  // A countermodel found before the trip is definite; only an
  // inconclusive "no counter found" turns into an exhausted outcome.
  outcome.exhausted = engine.exhausted && outcome.entailed;
  outcome.states_visited = engine.states_visited;
  outcome.check_stats.AddReachProbes(engine.region.probes());
  outcome.check_stats.index_rebuilds = ctx.index_rebuilds();
  return outcome;
}

template BoundedWidthOutcome EntailBoundedWidthOn<WordRegion>(
    const NormDb&, const NormConjunct&, const EnumerationContext&, bool,
    ExecBudget*);
template BoundedWidthOutcome EntailBoundedWidthOn<CounterRegion>(
    const NormDb&, const NormConjunct&, const EnumerationContext&, bool,
    ExecBudget*);

}  // namespace internal

}  // namespace iodb
