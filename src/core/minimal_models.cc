#include "core/minimal_models.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/region.h"
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

// The enumerator, written once over the region form (core/region.h).
// Each level finds the minors of the region and walks the next groups;
// a group passing the "!=" test and the visitor is removed, the levels
// below are enumerated, and the group is restored.
template <class Region>
struct Enumerator {
  const ModelVisitor& visitor;
  const EnumerationContext& ctx;
  Region region;
  GroupStack stack;
  // Per-depth walk scratch, sized up front so references stay valid
  // across recursion.
  std::vector<typename Region::Level> levels;

  Enumerator(const NormDb& d, const EnumerationContext& c,
             const ModelVisitor& v)
      : visitor(v), ctx(c), region(d, c), levels(d.num_points() + 1) {
    stack.groups.reserve(d.num_points());
    stack.spare.reserve(d.num_points());
  }

  // Returns false iff the enumeration was stopped by on_model.
  bool Recurse() {
    if (region.empty()) {
      return visitor.on_model == nullptr || visitor.on_model(stack.groups);
    }
    const int depth = static_cast<int>(stack.groups.size());
    typename Region::Level& level = levels[depth];
    region.FindMinors(level);
    return region.ForEachGroup(
        level, [&](const auto& group) { return Place(depth, group); });
  }

  // Places `group` as point `depth` and enumerates below it; false iff
  // on_model stopped. Kept out of line: inlined into the group walk's
  // recursion, the word form ran about 40% slower (bench_fig1_models).
  [[gnu::noinline]] bool Place(int depth,
                               const typename Region::Group& group) {
    if (!region.Respects(group)) return true;
    std::vector<int>& members = stack.Acquire();
    region.AppendMembers(group, &members);
    if (visitor.on_group != nullptr && !visitor.on_group(depth, members)) {
      stack.Release();
      return true;
    }
    const typename Region::Mark mark = region.mark();
    region.RemoveGroup(group);
    const bool keep_going = Recurse();
    region.RestoreTo(mark);
    stack.Release();
    return keep_going;
  }

  // Seeds the enumeration with an already-chosen prefix. Each group must
  // consist of currently-minor points (checked), i.e. be a group the
  // unseeded enumeration could have produced at that depth.
  bool Run(const std::vector<std::vector<int>>& prefix) {
    for (const std::vector<int>& group : prefix) {
      region.SeedGroup(group);
      stack.Acquire().assign(group.begin(), group.end());
    }
    const bool completed = Recurse();
    if (visitor.stats != nullptr) {
      visitor.stats->AddReachProbes(region.probes());
      visitor.stats->index_rebuilds =
          std::max(visitor.stats->index_rebuilds, ctx.index_rebuilds());
    }
    return completed;
  }
};

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
  std::vector<uint8_t> scratch;
  std::vector<int> strict;
  for (int u = 0; u < num_points; ++u) {
    strict.clear();
    index->CollectReachable(u, /*weak=*/nullptr, &strict, &scratch);
    strict_out_off[u + 1] = strict_out_off[u] + static_cast<int>(strict.size());
    strict_out.insert(strict_out.end(), strict.begin(), strict.end());
    for (int v : strict) ++strict_in_all_alive[v];
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

namespace internal {

template <class Region>
bool ForEachMinimalModelOn(const NormDb& db, const EnumerationContext& context,
                           const std::vector<std::vector<int>>& prefix,
                           const ModelVisitor& visitor) {
  Enumerator<Region> e(db, context, visitor);
  return e.Run(prefix);
}
template bool ForEachMinimalModelOn<WordRegion>(
    const NormDb&, const EnumerationContext&,
    const std::vector<std::vector<int>>&, const ModelVisitor&);
template bool ForEachMinimalModelOn<CounterRegion>(
    const NormDb&, const EnumerationContext&,
    const std::vector<std::vector<int>>&, const ModelVisitor&);

}  // namespace internal

bool ForEachMinimalModel(const NormDb& db, const ModelVisitor& visitor) {
  return ForEachMinimalModelFrom(db, *SharedEnumerationContext(db), {},
                                 visitor);
}

bool ForEachMinimalModelFrom(const NormDb& db,
                             const EnumerationContext& context,
                             const std::vector<std::vector<int>>& prefix,
                             const ModelVisitor& visitor) {
  return WithRegion(context, [&]<class Region>(std::type_identity<Region>) {
    return internal::ForEachMinimalModelOn<Region>(db, context, prefix,
                                                   visitor);
  });
}

bool ForEachMinimalModelFrom(const NormDb& db,
                             const std::vector<std::vector<int>>& prefix,
                             const ModelVisitor& visitor) {
  return ForEachMinimalModelFrom(db, *SharedEnumerationContext(db), prefix,
                                 visitor);
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
