#include "core/entail_bounded_width.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_set>
#include <utility>

#include "core/minimal_models.h"
#include "graph/topo.h"

namespace iodb {
namespace {

struct MaskKeyHash {
  size_t operator()(const std::pair<uint64_t, int>& k) const {
    uint64_t h = k.first * 0x9e3779b97f4a7c15ULL;
    h ^= static_cast<uint64_t>(k.second) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    return static_cast<size_t>(h);
  }
};

struct Engine {
  const NormDb& db;
  const NormConjunct& query;
  bool want_countermodel;
  // Governance: charged once per search state. When the budget trips,
  // `exhausted` goes sticky, every recursion unwinds via false, and no
  // partially explored state is inserted into the failed memos (a state
  // abandoned mid-exploration has not been proven counterexample-free).
  ExecBudget* budget = nullptr;
  bool exhausted = false;
  long long states_visited = 0;
  // The database's shared reachability context.
  std::shared_ptr<const EnumerationContext> ctx;
  ReachProbeStats rstats;
  // States (S, u) fully explored without finding a countermodel.
  std::unordered_set<std::vector<int>, IntVectorHash> failed;
  std::unordered_set<std::pair<uint64_t, int>, MaskKeyHash> failed_packed;
  // Countermodel groups, collected deepest-first on unwind.
  std::vector<std::vector<int>> groups_reversed;

  // Counter-path state: the alive region plus, per vertex, the number of
  // alive direct in-arcs (minimal ⇔ 0) and alive strict ancestors
  // (minor ⇔ 0), maintained under LIFO delete/undo instead of being
  // recomputed from the dag per state.
  std::vector<char> alive_;
  std::vector<int> in_deg_;
  std::vector<int> strict_in_;
  std::vector<int> undo_;  // deleted vertices, in deletion order
  int alive_count_ = 0;

  Engine(const NormDb& d, const NormConjunct& q, bool want)
      : db(d), query(q), want_countermodel(want),
        ctx(SharedEnumerationContext(d)) {
    if (!ctx->has_masks) InitCounters();
  }

  void InitCounters() {
    const int n = db.num_points();
    alive_.assign(n, 1);
    in_deg_.assign(n, 0);
    for (const LabeledEdge& e : db.dag.edges()) ++in_deg_[e.to];
    strict_in_ = ctx->strict_in_all_alive;
    alive_count_ = n;
  }

  static std::vector<int> Key(const std::vector<int>& s, int u) {
    std::vector<int> key(s);
    key.push_back(-1);
    key.push_back(u);
    return key;
  }

  // Entry point: runs the initial state (whole region alive) on the
  // path the database size selects.
  bool FindCounterTop(int u0) {
    if (ctx->has_masks) {
      const int n = db.num_points();
      uint64_t all = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
      return FindCounterMask(all, u0);
    }
    return FindCounterCounters(u0);
  }

  // ---------------------------------------------------------------------
  // Mask fast path (<= 64 points): the region is one word; minimal and
  // minor tests are single-word probes against the context masks.
  // ---------------------------------------------------------------------

  bool FindCounterMask(uint64_t alive, int u) {
    if (exhausted) return false;
    std::pair<uint64_t, int> key{alive, u};
    if (failed_packed.contains(key)) return false;
    if (budget != nullptr && !budget->Charge()) {
      exhausted = true;
      return false;
    }
    ++states_visited;

    // Minimal vertices of the region, ascending (the region is an up-set,
    // so "some alive proper ancestor" ⇔ "some alive direct predecessor").
    uint64_t minimals = 0;
    for (uint64_t rest = alive; rest != 0; rest &= rest - 1) {
      int v = std::countr_zero(rest);
      if ((ctx->anc_mask[v] & alive & ~(uint64_t{1} << v)) == 0) {
        minimals |= uint64_t{1} << v;
      }
    }
    rstats.probes += std::popcount(alive);
    rstats.fast_hits += std::popcount(alive);

    // Edge (a): some minimal vertex fails the label of u.
    int failing = -1;
    for (uint64_t rest = minimals; rest != 0; rest &= rest - 1) {
      int v = std::countr_zero(rest);
      if (!query.labels[u].IsSubsetOf(db.labels[v])) {
        failing = v;
        break;
      }
    }
    if (failing != -1) {
      uint64_t next = alive & ~(uint64_t{1} << failing);
      bool found = next == 0 ? true : FindCounterMask(next, u);
      if (found) {
        if (want_countermodel) groups_reversed.push_back({failing});
        return true;
      }
      if (exhausted) return false;
      failed_packed.insert(key);
      return false;
    }

    uint64_t after_lt = 0;
    std::vector<int> minor_group;
    bool lt_computed = false;
    for (const Digraph::Arc& arc : query.dag.out(u)) {
      if (arc.rel == OrderRel::kLe) {
        if (FindCounterMask(alive, arc.vertex)) return true;
      } else {
        if (!lt_computed) {
          lt_computed = true;
          uint64_t minors = 0;
          for (uint64_t rest = alive; rest != 0; rest &= rest - 1) {
            int v = std::countr_zero(rest);
            if ((ctx->strict_anc_mask[v] & alive) == 0) {
              minors |= uint64_t{1} << v;
              minor_group.push_back(v);
            }
          }
          rstats.probes += std::popcount(alive);
          rstats.fast_hits += std::popcount(alive);
          after_lt = alive & ~minors;
        }
        bool found =
            after_lt == 0 ? true : FindCounterMask(after_lt, arc.vertex);
        if (found) {
          if (want_countermodel) groups_reversed.push_back(minor_group);
          return true;
        }
      }
    }
    if (exhausted) return false;
    failed_packed.insert(key);
    return false;
  }

  // ---------------------------------------------------------------------
  // Counter path (> 64 points): alive / in-degree / strict-in-degree are
  // maintained incrementally under LIFO delete/undo; each state costs
  // O(alive + Σ deg(deleted)) instead of rebuilding the region and two
  // closures from the dag. Successful branches return without undoing —
  // the search unwinds completely once a countermodel is found.
  // ---------------------------------------------------------------------

  void Delete(int v) {
    alive_[v] = 0;
    --alive_count_;
    for (const Digraph::Arc& arc : db.dag.out(v)) --in_deg_[arc.vertex];
    for (int w = ctx->strict_out_off[v]; w < ctx->strict_out_off[v + 1]; ++w) {
      --strict_in_[ctx->strict_out[w]];
    }
    undo_.push_back(v);
  }

  void UndoTo(size_t mark) {
    while (undo_.size() > mark) {
      int v = undo_.back();
      undo_.pop_back();
      alive_[v] = 1;
      ++alive_count_;
      for (const Digraph::Arc& arc : db.dag.out(v)) ++in_deg_[arc.vertex];
      for (int w = ctx->strict_out_off[v]; w < ctx->strict_out_off[v + 1];
           ++w) {
        ++strict_in_[ctx->strict_out[w]];
      }
    }
  }

  bool FindCounterCounters(int u) {
    if (exhausted) return false;
    std::vector<int> s;
    for (int v = 0; v < db.num_points(); ++v) {
      if (alive_[v] && in_deg_[v] == 0) s.push_back(v);
    }
    rstats.probes += alive_count_;
    rstats.fast_hits += alive_count_;
    std::vector<int> key = Key(s, u);
    if (failed.contains(key)) return false;
    if (budget != nullptr && !budget->Charge()) {
      exhausted = true;
      return false;
    }
    ++states_visited;

    // Edge (a): some minimal vertex fails the label of u.
    int failing = -1;
    for (int v : s) {
      if (!query.labels[u].IsSubsetOf(db.labels[v])) {
        failing = v;
        break;
      }
    }
    if (failing != -1) {
      size_t mark = undo_.size();
      Delete(failing);
      bool found = alive_count_ == 0 ? true : FindCounterCounters(u);
      if (found) {
        if (want_countermodel) groups_reversed.push_back({failing});
        return true;
      }
      UndoTo(mark);
      if (exhausted) return false;
      failed.insert(std::move(key));
      return false;
    }

    // Per-arc loop with a pushed flag: "<" successors share one lazily
    // computed minor-group deletion; a "<=" successor between two "<"
    // successors pops it first (and the next "<" re-pushes the same
    // group — the "<=" recursion restored the region exactly).
    std::vector<int> minor_group;
    bool minors_computed = false;
    bool pushed = false;
    size_t mark = undo_.size();
    for (const Digraph::Arc& arc : query.dag.out(u)) {
      if (arc.rel == OrderRel::kLe) {
        if (pushed) {
          UndoTo(mark);
          pushed = false;
        }
        if (FindCounterCounters(arc.vertex)) return true;
      } else {
        if (!pushed) {
          if (!minors_computed) {
            minors_computed = true;
            for (int v = 0; v < db.num_points(); ++v) {
              if (alive_[v] && strict_in_[v] == 0) minor_group.push_back(v);
            }
            rstats.probes += alive_count_;
            rstats.fast_hits += alive_count_;
          }
          for (int v : minor_group) Delete(v);
          pushed = true;
        }
        bool found =
            alive_count_ == 0 ? true : FindCounterCounters(arc.vertex);
        if (found) {
          if (want_countermodel) groups_reversed.push_back(minor_group);
          return true;
        }
      }
    }
    if (pushed) UndoTo(mark);
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

  Engine engine(db, conjunct, want_countermodel);
  engine.budget = budget;
  std::vector<bool> query_alive(conjunct.num_order_vars(), true);
  for (int u0 : MinimalVertices(conjunct.dag, query_alive)) {
    if (engine.exhausted) break;
    if (engine.FindCounterTop(u0)) {
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
  outcome.check_stats.AddReachProbes(engine.rstats);
  outcome.check_stats.index_rebuilds = engine.ctx->index_rebuilds();
  return outcome;
}

}  // namespace iodb
