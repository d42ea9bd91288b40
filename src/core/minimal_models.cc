#include "core/minimal_models.h"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "graph/topo.h"

namespace iodb {
namespace {

// Shared group-prefix bookkeeping: the exact group prefix handed to the
// callbacks, with popped inner vectors parked in `spare` so their
// capacity is reused (no steady-state allocation).
struct GroupStack {
  std::vector<std::vector<int>> groups;
  std::vector<std::vector<int>> spare;

  // Borrows a pooled vector as groups[depth] (depth == groups.size()).
  std::vector<int>& Acquire() {
    if (spare.empty()) {
      groups.emplace_back();
    } else {
      groups.push_back(std::move(spare.back()));
      spare.pop_back();
    }
    groups.back().clear();
    return groups.back();
  }

  void Release() {
    spare.push_back(std::move(groups.back()));
    groups.pop_back();
  }
};

// Incremental enumerator, general form (any point count; the mask
// enumerator below serves the <= 64-point contexts). The removed set is
// always a down-set of the dag (groups are down-closures of minor
// antichains), so for alive u, v a strict path u -> v in the full dag
// never passes through a removed vertex; hence "v is minor within the
// alive subgraph" is exactly "strict_in_[v] == 0" where strict_in_[v]
// counts the alive u with a strict path u -> v. Push/pop of a group
// maintains the counts via the precomputed strict-reachability adjacency
// instead of re-deriving minor vertices from scratch per node.
struct Enumerator {
  const NormDb& db;
  const ModelVisitor& visitor;
  const EnumerationContext& ctx;
  std::vector<uint8_t> alive;
  std::vector<int> strict_in;
  std::vector<uint8_t> in_group;  // scratch for inequality checks
  int alive_count;
  ReachProbeStats rstats;
  GroupStack stack;

  // Per-depth scratch (candidates + chosen antichain). Sized up front so
  // references stay valid across recursion.
  struct Level {
    std::vector<int> candidates;
    std::vector<int> chosen;
  };
  std::vector<Level> levels;

  Enumerator(const NormDb& d, const EnumerationContext& c,
             const ModelVisitor& v)
      : db(d),
        visitor(v),
        ctx(c),
        alive(d.num_points(), 1),
        strict_in(c.strict_in_all_alive),
        in_group(d.num_points(), 0),
        alive_count(d.num_points()),
        levels(d.num_points() + 1) {
    stack.groups.reserve(d.num_points());
    stack.spare.reserve(d.num_points());
  }

  bool GroupRespectsInequalities(const std::vector<int>& group) {
    if (db.inequalities.empty()) return true;
    for (int g : group) in_group[g] = 1;
    bool ok = true;
    for (const auto& [u, v] : db.inequalities) {
      if (in_group[u] && in_group[v]) {
        ok = false;
        break;
      }
    }
    for (int g : group) in_group[g] = 0;
    return ok;
  }

  void Apply(const std::vector<int>& group) {
    for (int g : group) {
      alive[g] = 0;
      --alive_count;
      for (int k = ctx.strict_out_off[g]; k < ctx.strict_out_off[g + 1];
           ++k) {
        --strict_in[ctx.strict_out[k]];
      }
    }
  }

  void Unapply(const std::vector<int>& group) {
    for (int g : group) {
      alive[g] = 1;
      ++alive_count;
      for (int k = ctx.strict_out_off[g]; k < ctx.strict_out_off[g + 1];
           ++k) {
        ++strict_in[ctx.strict_out[k]];
      }
    }
  }

  // Returns false iff the enumeration was stopped by on_model.
  bool Recurse() {
    if (alive_count == 0) {
      return visitor.on_model == nullptr || visitor.on_model(stack.groups);
    }
    const int depth = static_cast<int>(stack.groups.size());
    Level& level = levels[depth];
    level.candidates.clear();
    for (int v = 0; v < db.num_points(); ++v) {
      if (!alive[v]) continue;
      // The minor test is one O(1) counter read served by the
      // reachability layer's precomputed strict adjacency.
      ++rstats.probes;
      ++rstats.fast_hits;
      if (strict_in[v] == 0) level.candidates.push_back(v);
    }
    // A consistent database always has a minor vertex while nonempty.
    IODB_CHECK(!level.candidates.empty());
    level.chosen.clear();
    return EnumerateAntichains(depth, 0);
  }

  bool EnumerateAntichains(int depth, size_t next) {
    Level& level = levels[depth];
    for (size_t i = next; i < level.candidates.size(); ++i) {
      const int v = level.candidates[i];
      bool independent = true;
      for (int u : level.chosen) {
        if (ctx.Comparable(u, v, &rstats)) {
          independent = false;
          break;
        }
      }
      if (!independent) continue;
      level.chosen.push_back(v);
      // The down-closure of the chosen antichain within the minor set.
      std::vector<int>& group = stack.Acquire();
      for (int m : level.candidates) {
        for (int a : level.chosen) {
          if (ctx.Reaches(m, a, &rstats)) {
            group.push_back(m);
            break;
          }
        }
      }
      if (GroupRespectsInequalities(group) &&
          (visitor.on_group == nullptr ||
           visitor.on_group(depth, group))) {
        Apply(group);
        const bool keep_going = Recurse();
        Unapply(stack.groups.back());
        stack.Release();
        if (!keep_going) return false;
      } else {
        stack.Release();
      }
      if (!EnumerateAntichains(depth, i + 1)) return false;
      level.chosen.pop_back();
    }
    return true;
  }

  // Seeds the enumeration with an already-chosen prefix. Each group must
  // consist of currently-minor vertices (checked), i.e. be a group the
  // unseeded enumeration could have produced at that depth.
  void SeedPrefix(const std::vector<std::vector<int>>& prefix) {
    for (const std::vector<int>& group : prefix) {
      IODB_CHECK(!group.empty());
      for (int g : group) {
        IODB_CHECK(alive[g]);
        IODB_CHECK_EQ(strict_in[g], 0);
      }
      std::vector<int>& stored = stack.Acquire();
      stored.assign(group.begin(), group.end());
      Apply(stored);
    }
  }

  bool Run(const std::vector<std::vector<int>>& prefix) {
    SeedPrefix(prefix);
    const bool completed = Recurse();
    if (visitor.stats != nullptr) {
      visitor.stats->AddReachProbes(rstats);
      visitor.stats->index_rebuilds =
          std::max(visitor.stats->index_rebuilds, ctx.index_rebuilds());
    }
    return completed;
  }
};

// Word-mask enumerator for databases of at most 64 points: the alive
// set, the minor test, antichain independence, and group down-closures
// all become single-word operations on the context's index-derived
// masks. Visits exactly the same group sequences as the general
// enumerator (candidates and group members are produced in increasing
// vertex order either way).
struct MaskEnumerator {
  const NormDb& db;
  const ModelVisitor& visitor;
  const EnumerationContext& ctx;
  uint64_t alive_mask;
  ReachProbeStats rstats;
  GroupStack stack;

  struct Level {
    std::vector<int> candidates;
    uint64_t minors = 0;
  };
  std::vector<Level> levels;

  MaskEnumerator(const NormDb& d, const EnumerationContext& c,
                 const ModelVisitor& v)
      : db(d),
        visitor(v),
        ctx(c),
        alive_mask(d.num_points() == 64
                       ? ~uint64_t{0}
                       : (uint64_t{1} << d.num_points()) - 1),
        levels(d.num_points() + 1) {
    stack.groups.reserve(d.num_points());
    stack.spare.reserve(d.num_points());
  }

  bool GroupRespectsInequalities(uint64_t group_mask) const {
    for (const auto& [u, v] : db.inequalities) {
      if (((group_mask >> u) & 1) && ((group_mask >> v) & 1)) return false;
    }
    return true;
  }

  bool Recurse() {
    if (alive_mask == 0) {
      return visitor.on_model == nullptr || visitor.on_model(stack.groups);
    }
    const int depth = static_cast<int>(stack.groups.size());
    Level& level = levels[depth];
    level.candidates.clear();
    uint64_t minors = 0;
    for (uint64_t rest = alive_mask; rest != 0; rest &= rest - 1) {
      const int v = std::countr_zero(rest);
      ++rstats.probes;
      ++rstats.fast_hits;
      if ((ctx.strict_anc_mask[v] & alive_mask) == 0) {
        minors |= rest & (~rest + 1);
        level.candidates.push_back(v);
      }
    }
    // A consistent database always has a minor vertex while nonempty.
    IODB_CHECK(minors != 0);
    level.minors = minors;
    return EnumerateAntichains(depth, 0, /*incompat=*/0, /*chosen_anc=*/0);
  }

  // `incompat` accumulates everything comparable to the chosen antichain
  // (so independence is one bit test); `chosen_anc` accumulates the
  // ancestor masks of the chosen vertices (so the group down-closure is
  // one AND against the minor set).
  bool EnumerateAntichains(int depth, size_t next, uint64_t incompat,
                           uint64_t chosen_anc) {
    Level& level = levels[depth];
    for (size_t i = next; i < level.candidates.size(); ++i) {
      const int v = level.candidates[i];
      ++rstats.probes;
      ++rstats.fast_hits;
      if ((incompat >> v) & 1) continue;
      const uint64_t anc_with_v = chosen_anc | ctx.anc_mask[v];
      const uint64_t group_mask = level.minors & anc_with_v;
      if (GroupRespectsInequalities(group_mask)) {
        std::vector<int>& group = stack.Acquire();
        for (uint64_t g = group_mask; g != 0; g &= g - 1) {
          group.push_back(std::countr_zero(g));
        }
        if (visitor.on_group == nullptr ||
            visitor.on_group(depth, group)) {
          alive_mask &= ~group_mask;
          const bool keep_going = Recurse();
          alive_mask |= group_mask;
          stack.Release();
          if (!keep_going) return false;
        } else {
          stack.Release();
        }
      }
      if (!EnumerateAntichains(
              depth, i + 1,
              incompat | ctx.desc_mask[v] | ctx.anc_mask[v], anc_with_v)) {
        return false;
      }
    }
    return true;
  }

  void SeedPrefix(const std::vector<std::vector<int>>& prefix) {
    for (const std::vector<int>& group : prefix) {
      IODB_CHECK(!group.empty());
      uint64_t group_mask = 0;
      for (int g : group) {
        IODB_CHECK((alive_mask >> g) & 1);
        IODB_CHECK_EQ(ctx.strict_anc_mask[g] & alive_mask, 0u);
        group_mask |= uint64_t{1} << g;
      }
      std::vector<int>& stored = stack.Acquire();
      stored.assign(group.begin(), group.end());
      alive_mask &= ~group_mask;
    }
  }

  bool Run(const std::vector<std::vector<int>>& prefix) {
    SeedPrefix(prefix);
    const bool completed = Recurse();
    if (visitor.stats != nullptr) {
      visitor.stats->AddReachProbes(rstats);
      visitor.stats->index_rebuilds =
          std::max(visitor.stats->index_rebuilds, ctx.index_rebuilds());
    }
    return completed;
  }
};

bool RunEnumeration(const NormDb& db, const EnumerationContext& context,
                    const std::vector<std::vector<int>>& prefix,
                    const ModelVisitor& visitor) {
  if (context.has_masks) {
    MaskEnumerator e(db, context, visitor);
    return e.Run(prefix);
  }
  Enumerator e(db, context, visitor);
  return e.Run(prefix);
}

}  // namespace

EnumerationContext::EnumerationContext(const NormDb& db)
    : num_points(db.num_points()) {
  const int n = num_points;
  strict_in_all_alive.assign(n, 0);
  strict_out_off.assign(n + 1, 0);
  // Mask-width dags: the dense closure is cheaper to build than the
  // interval-list index (a fresh tiny database costs ~1 closure vs ~2-10
  // index builds — and containment reductions evaluate thousands of
  // them), and the word masks answer every probe afterwards either way.
  // The index takes over where its near-linear build and incremental
  // maintenance actually pay.
  if (n <= 64) {
    DeriveFromClosure(ComputeReachability(db.dag));
    return;
  }
  index = std::make_shared<ReachabilityIndex>(db.dag);
  DeriveFromIndex();
}

EnumerationContext::EnumerationContext(
    const NormDb& db, std::shared_ptr<const ReachabilityIndex> grown)
    : num_points(db.num_points()) {
  IODB_CHECK_EQ(grown->num_vertices(), num_points);
  const int n = num_points;
  strict_in_all_alive.assign(n, 0);
  strict_out_off.assign(n + 1, 0);
  index = std::move(grown);
  DeriveFromIndex();
}

void EnumerationContext::DeriveFromIndex() {
  const int n = num_points;
  has_masks = n <= 64;
  if (has_masks) {
    desc_mask.assign(n, 0);
    anc_mask.assign(n, 0);
    strict_anc_mask.assign(n, 0);
  }
  std::vector<uint8_t> scratch;
  std::vector<int> weak;
  std::vector<int> strict;
  for (int u = 0; u < n; ++u) {
    weak.clear();
    strict.clear();
    index->CollectReachable(u, &weak, &strict, &scratch);
    strict_out_off[u + 1] = strict_out_off[u] + static_cast<int>(strict.size());
    strict_out.insert(strict_out.end(), strict.begin(), strict.end());
    for (int v : strict) ++strict_in_all_alive[v];
    if (has_masks) {
      const uint64_t u_bit = uint64_t{1} << u;
      uint64_t down = u_bit;
      for (int v : weak) {
        down |= uint64_t{1} << v;
        anc_mask[v] |= u_bit;
      }
      desc_mask[u] = down;
      anc_mask[u] |= u_bit;
      for (int v : strict) strict_anc_mask[v] |= u_bit;
    }
  }
}

void EnumerationContext::DeriveFromClosure(const Reachability& closure) {
  const int n = num_points;
  has_masks = true;
  desc_mask.assign(n, 0);
  anc_mask.assign(n, 0);
  strict_anc_mask.assign(n, 0);
  for (int u = 0; u < n; ++u) {
    const uint64_t u_bit = uint64_t{1} << u;
    uint64_t down = 0;
    int degree = 0;
    for (int v = 0; v < n; ++v) {
      if (closure.reach.Get(u, v)) {  // diagonal set: self included
        down |= uint64_t{1} << v;
        anc_mask[v] |= u_bit;
      }
      if (closure.strict.Get(u, v)) {
        ++degree;
        strict_anc_mask[v] |= u_bit;
      }
    }
    desc_mask[u] = down;
    strict_out_off[u + 1] = strict_out_off[u] + degree;
  }
  strict_out.resize(strict_out_off[n]);
  for (int u = 0, k = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (closure.strict.Get(u, v)) {
        strict_out[k++] = v;
        ++strict_in_all_alive[v];
      }
    }
  }
}

bool EnumerationContext::Reaches(int u, int v, ReachProbeStats* stats) const {
  if (has_masks) {
    if (stats != nullptr) {
      ++stats->probes;
      ++stats->fast_hits;
    }
    return (desc_mask[u] >> v) & 1;
  }
  return index->Reaches(u, v, stats);
}

bool EnumerationContext::Comparable(int u, int v,
                                    ReachProbeStats* stats) const {
  if (has_masks) {
    if (stats != nullptr) {
      ++stats->probes;
      ++stats->fast_hits;
    }
    return (((desc_mask[u] >> v) | (desc_mask[v] >> u)) & 1) != 0;
  }
  return index->Comparable(u, v, stats);
}

namespace {

// Cross-revision reuse: when the new dag extends the dag the previous
// revision's index was built for (same leading vertices, the old edge
// log a prefix of the new edge list — the shape a service APPEND or WAL
// replay produces), grow a copy of that index by the appended vertices
// and edges instead of rebuilding from scratch. Returns null when the
// dags diverged (points merged, edges upgraded or reordered).
std::shared_ptr<const EnumerationContext> TryExtendPreviousContext(
    const NormDb& db) {
  auto prev = std::static_pointer_cast<const EnumerationContext>(
      db.prev_order_context);
  if (prev->index == nullptr) return nullptr;
  const std::vector<LabeledEdge>& log = prev->index->edge_log();
  const std::vector<LabeledEdge>& edges = db.dag.edges();
  if (db.num_points() < prev->index->num_vertices() ||
      edges.size() < log.size()) {
    return nullptr;
  }
  for (size_t i = 0; i < log.size(); ++i) {
    if (edges[i].from != log[i].from || edges[i].to != log[i].to ||
        edges[i].rel != log[i].rel) {
      return nullptr;
    }
  }
  auto grown = std::make_shared<ReachabilityIndex>(*prev->index);
  while (grown->num_vertices() < db.num_points()) grown->AddVertex();
  grown->AppendEdges(std::span<const LabeledEdge>(edges).subspan(log.size()));
  return std::make_shared<const EnumerationContext>(db, std::move(grown));
}

}  // namespace

std::shared_ptr<const EnumerationContext> SharedEnumerationContext(
    const NormDb& db) {
  if (db.order_context_cache != nullptr) {
    return std::static_pointer_cast<const EnumerationContext>(
        db.order_context_cache);
  }
  std::shared_ptr<const EnumerationContext> context;
  if (db.prev_order_context != nullptr) {
    context = TryExtendPreviousContext(db);
    db.prev_order_context = nullptr;  // one hop; release the old context
  }
  if (context == nullptr) {
    context = std::make_shared<const EnumerationContext>(db);
  }
  db.order_context_cache = context;
  return context;
}

bool ForEachMinimalModel(const NormDb& db, const ModelVisitor& visitor) {
  return RunEnumeration(db, *SharedEnumerationContext(db), {}, visitor);
}

bool ForEachMinimalModelFrom(const NormDb& db,
                             const EnumerationContext& context,
                             const std::vector<std::vector<int>>& prefix,
                             const ModelVisitor& visitor) {
  return RunEnumeration(db, context, prefix, visitor);
}

bool ForEachMinimalModelFrom(const NormDb& db,
                             const std::vector<std::vector<int>>& prefix,
                             const ModelVisitor& visitor) {
  return RunEnumeration(db, *SharedEnumerationContext(db), prefix, visitor);
}

long long CountMinimalModels(const NormDb& db, long long limit) {
  long long count = 0;
  ModelVisitor visitor;
  visitor.on_model = [&](const std::vector<std::vector<int>>&) {
    ++count;
    return limit < 0 || count < limit;
  };
  ForEachMinimalModel(db, visitor);
  return count;
}

}  // namespace iodb
