#include "stats/stats.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "graph/topo.h"
#include "stats/cost_model.h"
// Header-only byte codec shared by every on-disk format (no link
// dependency on the storage layer, which sits above this one).
#include "storage/codec.h"

namespace iodb::stats {

namespace {

constexpr uint8_t kStatsFormatVersion = 1;
// Bytes of [version u8][uid u64][revision u64]: the identity prefix
// excluded from ContentFingerprint().
constexpr size_t kIdentityPrefixBytes = 1 + 8 + 8;

// Up to this many distinct labels in one database, label pairs are
// counted in a dense table (64 x 64 counters at most) instead of sorted.
constexpr size_t kDenseLabelPairs = 64;

// Union-find over dag vertices for the component histogram.
struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(int n) : parent(n) {
    for (int i = 0; i < n; ++i) parent[i] = i;
  }
  int Find(int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void Union(int a, int b) { parent[Find(a)] = Find(b); }
};

}  // namespace

DatabaseStats CollectStats(const Database& db) {
  DatabaseStats s;
  s.db_uid = db.uid();
  s.db_revision = db.revision();
  s.proper_atoms = static_cast<long long>(db.proper_atoms().size());
  s.order_atoms = static_cast<long long>(db.order_atoms().size());
  s.inequality_atoms = static_cast<long long>(db.inequalities().size());
  s.object_constants = db.num_object_constants();
  s.order_constants = db.num_order_constants();

  // Per-predicate cardinalities + distinct-argument counts (raw facts).
  // Each (predicate, position) gets a slot; every argument becomes the
  // packed key (slot << 32 | id), and after one sort the distinct values
  // of a slot are the runs of its keys.
  const int npreds = db.vocab()->num_predicates();
  std::vector<long long> tuples(npreds, 0);
  std::vector<uint32_t> arity(npreds, 0);
  size_t num_args = 0;
  for (const ProperAtom& atom : db.proper_atoms()) {
    ++tuples[atom.pred];
    arity[atom.pred] = static_cast<uint32_t>(atom.args.size());
    num_args += atom.args.size();
  }
  std::vector<uint32_t> first_slot(npreds, 0);
  uint32_t num_slots = 0;
  for (int p = 0; p < npreds; ++p) {
    first_slot[p] = num_slots;
    num_slots += arity[p];
  }
  std::vector<uint64_t> keys;
  keys.reserve(num_args);
  for (const ProperAtom& atom : db.proper_atoms()) {
    const uint64_t slot = first_slot[atom.pred];
    for (size_t i = 0; i < atom.args.size(); ++i) {
      keys.push_back((slot + i) << 32 |
                     static_cast<uint32_t>(atom.args[i].id));
    }
  }
  std::sort(keys.begin(), keys.end());
  std::vector<long long> distinct(num_slots, 0);
  for (size_t k = 0; k < keys.size(); ++k) {
    if (k == 0 || keys[k] != keys[k - 1]) ++distinct[keys[k] >> 32];
  }
  s.predicates.reserve(static_cast<size_t>(
      npreds - std::count(tuples.begin(), tuples.end(), 0)));
  for (int p = 0; p < npreds; ++p) {
    if (tuples[p] == 0) continue;
    PredicateStats ps;
    ps.pred = p;
    ps.tuples = tuples[p];
    ps.distinct_args.assign(distinct.begin() + first_slot[p],
                            distinct.begin() + first_slot[p] + arity[p]);
    s.predicates.push_back(std::move(ps));
  }

  // Order-graph shape, measured on the normalized view. An inconsistent
  // database has no view; fact-level stats remain valid.
  Result<const NormDb*> view = db.NormView();
  if (!view.ok()) return s;
  const NormDb& ndb = *view.value();
  s.order_stats_valid = true;
  s.points = ndb.num_points();
  s.edges = ndb.dag.num_edges();
  for (const LabeledEdge& e : ndb.dag.edges()) {
    if (e.rel == OrderRel::kLt) ++s.strict_edges;
  }

  // Longest-path depth and level width (levels = longest path from any
  // source, a cheap proxy for the antichain structure).
  if (s.points > 0) {
    std::vector<int> topo = TopologicalOrder(ndb.dag);
    std::vector<int> level(s.points, 1);
    for (int v : topo) {
      for (const Digraph::Arc& arc : ndb.dag.in(v)) {
        level[v] = std::max(level[v], level[arc.vertex] + 1);
      }
      s.dag_depth = std::max(s.dag_depth, level[v]);
    }
    std::vector<int> per_level(s.dag_depth + 1, 0);
    for (int v = 0; v < s.points; ++v) {
      s.level_width = std::max(s.level_width, ++per_level[level[v]]);
    }

    // Weakly connected components and their log2 size histogram.
    UnionFind uf(s.points);
    for (const LabeledEdge& e : ndb.dag.edges()) uf.Union(e.from, e.to);
    std::vector<long long> size_of(s.points, 0);
    for (int v = 0; v < s.points; ++v) ++size_of[uf.Find(v)];
    for (int v = 0; v < s.points; ++v) {
      const long long size = size_of[v];
      if (size == 0) continue;
      ++s.components;
      int bucket = 0;
      while ((1LL << (bucket + 1)) <= size) ++bucket;
      if (static_cast<size_t>(bucket) >= s.component_log2_histogram.size()) {
        s.component_log2_histogram.resize(bucket + 1, 0);
      }
      ++s.component_log2_histogram[bucket];
    }
  }

  // Label cardinalities and the pairwise co-occurrence sketch, in
  // ascending (p, q). The labels of each point come out ascending.
  std::vector<long long> label_count(npreds, 0);
  std::vector<int> flat_labels;  // every point's labels, point by point
  std::vector<size_t> point_end(s.points, 0);
  for (int p = 0; p < s.points; ++p) {
    const std::vector<uint64_t>& words = ndb.labels[p].words();
    for (size_t w = 0; w < words.size(); ++w) {
      for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        const int label = static_cast<int>(w) * 64 + std::countr_zero(bits);
        ++label_count[label];
        flat_labels.push_back(label);
      }
    }
    point_end[p] = flat_labels.size();
  }
  // The labels in use, renumbered densely in ascending order.
  std::vector<int> used;
  std::vector<int> dense(npreds, -1);
  for (int p = 0; p < npreds; ++p) {
    if (label_count[p] == 0) continue;
    s.label_points.emplace_back(p, label_count[p]);
    dense[p] = static_cast<int>(used.size());
    used.push_back(p);
  }
  std::vector<LabelPairStats> pairs;
  const size_t k = used.size();
  if (k <= kDenseLabelPairs) {
    // Few labels in use: count into a k x k table and read its upper
    // triangle in order. No comparison sort, whose data-dependent
    // branches cost more than the counting (docs/STATISTICS.md).
    std::vector<long long> counts(k * k, 0);
    size_t begin = 0;
    for (int p = 0; p < s.points; ++p) {
      for (size_t i = begin; i < point_end[p]; ++i) {
        const size_t row = static_cast<size_t>(dense[flat_labels[i]]) * k;
        for (size_t j = i + 1; j < point_end[p]; ++j) {
          ++counts[row + static_cast<size_t>(dense[flat_labels[j]])];
        }
      }
      begin = point_end[p];
    }
    for (size_t a = 0; a < k; ++a) {
      for (size_t b = a + 1; b < k; ++b) {
        if (counts[a * k + b] > 0) {
          pairs.push_back({used[a], used[b], counts[a * k + b]});
        }
      }
    }
  } else {
    // Each co-occurring pair is the packed key (p << 32 | q); after one
    // sort a pair's count is the length of its run.
    std::vector<uint64_t> pair_keys;
    size_t begin = 0;
    for (int p = 0; p < s.points; ++p) {
      for (size_t i = begin; i < point_end[p]; ++i) {
        for (size_t j = i + 1; j < point_end[p]; ++j) {
          pair_keys.push_back(static_cast<uint64_t>(flat_labels[i]) << 32 |
                              static_cast<uint32_t>(flat_labels[j]));
        }
      }
      begin = point_end[p];
    }
    std::sort(pair_keys.begin(), pair_keys.end());
    for (size_t i = 0; i < pair_keys.size(); ++i) {
      if (i > 0 && pair_keys[i] == pair_keys[i - 1]) {
        ++pairs.back().points;
      } else {
        pairs.push_back({static_cast<int>(pair_keys[i] >> 32),
                         static_cast<int>(pair_keys[i] & 0xFFFFFFFFu), 1});
      }
    }
  }
  if (pairs.size() > DatabaseStats::kMaxLabelPairs) {
    // Keep the heaviest pairs; ties break on (p, q) so the sketch is a
    // deterministic function of the content. `pairs` is in (p, q) order,
    // so that is: every pair above a threshold count, then the first
    // pairs at the threshold, kept in place. The threshold comes from a
    // histogram of the counts (each at most the number of points), not
    // from a comparison select.
    std::vector<size_t> with_count(static_cast<size_t>(s.points) + 1, 0);
    for (const LabelPairStats& pair : pairs) ++with_count[pair.points];
    size_t threshold = with_count.size() - 1;
    size_t above = 0;  // pairs with a count over the threshold
    while (above + with_count[threshold] < DatabaseStats::kMaxLabelPairs) {
      above += with_count[threshold--];
    }
    size_t at_threshold = DatabaseStats::kMaxLabelPairs - above;
    size_t kept = 0;
    for (const LabelPairStats& pair : pairs) {
      const size_t count = static_cast<size_t>(pair.points);
      if (count == threshold && at_threshold > 0) {
        --at_threshold;
        pairs[kept++] = pair;
      } else if (count > threshold) {
        pairs[kept++] = pair;
      }
    }
    pairs.resize(kept);
  }
  s.label_pairs = std::move(pairs);
  return s;
}

std::string EncodeStats(const DatabaseStats& s) {
  using storage::AppendU32;
  using storage::AppendU64;
  using storage::AppendU8;
  std::string out;
  AppendU8(&out, kStatsFormatVersion);
  AppendU64(&out, s.db_uid);
  AppendU64(&out, s.db_revision);
  AppendU64(&out, static_cast<uint64_t>(s.proper_atoms));
  AppendU64(&out, static_cast<uint64_t>(s.order_atoms));
  AppendU64(&out, static_cast<uint64_t>(s.inequality_atoms));
  AppendU32(&out, static_cast<uint32_t>(s.object_constants));
  AppendU32(&out, static_cast<uint32_t>(s.order_constants));
  AppendU32(&out, static_cast<uint32_t>(s.predicates.size()));
  for (const PredicateStats& ps : s.predicates) {
    AppendU32(&out, static_cast<uint32_t>(ps.pred));
    AppendU64(&out, static_cast<uint64_t>(ps.tuples));
    AppendU32(&out, static_cast<uint32_t>(ps.distinct_args.size()));
    for (long long d : ps.distinct_args) {
      AppendU64(&out, static_cast<uint64_t>(d));
    }
  }
  AppendU8(&out, s.order_stats_valid ? 1 : 0);
  AppendU32(&out, static_cast<uint32_t>(s.points));
  AppendU32(&out, static_cast<uint32_t>(s.edges));
  AppendU32(&out, static_cast<uint32_t>(s.strict_edges));
  AppendU32(&out, static_cast<uint32_t>(s.dag_depth));
  AppendU32(&out, static_cast<uint32_t>(s.level_width));
  AppendU32(&out, static_cast<uint32_t>(s.components));
  AppendU32(&out, static_cast<uint32_t>(s.component_log2_histogram.size()));
  for (long long count : s.component_log2_histogram) {
    AppendU64(&out, static_cast<uint64_t>(count));
  }
  AppendU32(&out, static_cast<uint32_t>(s.label_points.size()));
  for (const auto& [pred, count] : s.label_points) {
    AppendU32(&out, static_cast<uint32_t>(pred));
    AppendU64(&out, static_cast<uint64_t>(count));
  }
  AppendU32(&out, static_cast<uint32_t>(s.label_pairs.size()));
  for (const LabelPairStats& pair : s.label_pairs) {
    AppendU32(&out, static_cast<uint32_t>(pair.p));
    AppendU32(&out, static_cast<uint32_t>(pair.q));
    AppendU64(&out, static_cast<uint64_t>(pair.points));
  }
  return out;
}

Result<DatabaseStats> DecodeStats(std::string_view bytes) {
  storage::ByteReader reader(bytes);
  DatabaseStats s;
  uint8_t version = 0;
  Status status = reader.ReadU8(&version);
  if (!status.ok()) return status;
  if (version != kStatsFormatVersion) {
    return Status::InvalidArgument("unsupported statistics format version " +
                                   std::to_string(version));
  }
  uint64_t u64 = 0;
  uint32_t u32 = 0;
  auto read_u64 = [&](long long* out) {
    Status st = reader.ReadU64(&u64);
    if (st.ok()) *out = static_cast<long long>(u64);
    return st;
  };
  auto read_int = [&](int* out) {
    Status st = reader.ReadU32(&u32);
    if (st.ok()) *out = static_cast<int>(u32);
    return st;
  };
  if (!(status = reader.ReadU64(&s.db_uid)).ok()) return status;
  if (!(status = reader.ReadU64(&s.db_revision)).ok()) return status;
  if (!(status = read_u64(&s.proper_atoms)).ok()) return status;
  if (!(status = read_u64(&s.order_atoms)).ok()) return status;
  if (!(status = read_u64(&s.inequality_atoms)).ok()) return status;
  if (!(status = read_int(&s.object_constants)).ok()) return status;
  if (!(status = read_int(&s.order_constants)).ok()) return status;
  uint32_t npreds = 0;
  if (!(status = reader.ReadU32(&npreds)).ok()) return status;
  // Every element of a count-prefixed list is at least this long, so an
  // inflated count on corrupt input fails fast instead of reserving.
  if (npreds > reader.remaining() / 16) {
    return Status::InvalidArgument("statistics predicate count exceeds input");
  }
  s.predicates.reserve(npreds);
  for (uint32_t i = 0; i < npreds; ++i) {
    PredicateStats ps;
    if (!(status = read_int(&ps.pred)).ok()) return status;
    if (!(status = read_u64(&ps.tuples)).ok()) return status;
    uint32_t arity = 0;
    if (!(status = reader.ReadU32(&arity)).ok()) return status;
    if (arity > reader.remaining() / 8) {
      return Status::InvalidArgument("statistics arity exceeds input");
    }
    ps.distinct_args.resize(arity);
    for (uint32_t a = 0; a < arity; ++a) {
      if (!(status = read_u64(&ps.distinct_args[a])).ok()) return status;
    }
    s.predicates.push_back(std::move(ps));
  }
  uint8_t valid = 0;
  if (!(status = reader.ReadU8(&valid)).ok()) return status;
  s.order_stats_valid = valid != 0;
  if (!(status = read_int(&s.points)).ok()) return status;
  if (!(status = read_int(&s.edges)).ok()) return status;
  if (!(status = read_int(&s.strict_edges)).ok()) return status;
  if (!(status = read_int(&s.dag_depth)).ok()) return status;
  if (!(status = read_int(&s.level_width)).ok()) return status;
  if (!(status = read_int(&s.components)).ok()) return status;
  uint32_t nhist = 0;
  if (!(status = reader.ReadU32(&nhist)).ok()) return status;
  if (nhist > reader.remaining() / 8) {
    return Status::InvalidArgument("statistics histogram exceeds input");
  }
  s.component_log2_histogram.resize(nhist);
  for (uint32_t i = 0; i < nhist; ++i) {
    if (!(status = read_u64(&s.component_log2_histogram[i])).ok()) {
      return status;
    }
  }
  uint32_t nlabels = 0;
  if (!(status = reader.ReadU32(&nlabels)).ok()) return status;
  if (nlabels > reader.remaining() / 12) {
    return Status::InvalidArgument("statistics label count exceeds input");
  }
  s.label_points.reserve(nlabels);
  for (uint32_t i = 0; i < nlabels; ++i) {
    int pred = 0;
    long long count = 0;
    if (!(status = read_int(&pred)).ok()) return status;
    if (!(status = read_u64(&count)).ok()) return status;
    s.label_points.emplace_back(pred, count);
  }
  uint32_t npairs = 0;
  if (!(status = reader.ReadU32(&npairs)).ok()) return status;
  if (npairs > reader.remaining() / 16) {
    return Status::InvalidArgument("statistics pair count exceeds input");
  }
  s.label_pairs.reserve(npairs);
  for (uint32_t i = 0; i < npairs; ++i) {
    LabelPairStats pair;
    if (!(status = read_int(&pair.p)).ok()) return status;
    if (!(status = read_int(&pair.q)).ok()) return status;
    if (!(status = read_u64(&pair.points)).ok()) return status;
    s.label_pairs.push_back(pair);
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after statistics payload");
  }
  return s;
}

uint64_t DatabaseStats::ContentFingerprint() const {
  const std::string bytes = EncodeStats(*this);
  return storage::Fnv1a64(
      std::string_view(bytes).substr(kIdentityPrefixBytes));
}

std::string RenderStats(const DatabaseStats& s) {
  auto line = [](const std::string& name, const std::string& value) {
    std::string out = "  " + name;
    while (out.size() < 26) out += ' ';
    return out + value + "\n";
  };
  std::string out;
  out += line("stats-revision",
              std::to_string(s.db_uid) + "@" + std::to_string(s.db_revision));
  out += line("fact-atoms", "proper=" + std::to_string(s.proper_atoms) +
                                " order=" + std::to_string(s.order_atoms) +
                                " neq=" + std::to_string(s.inequality_atoms));
  out += line("constants",
              "object=" + std::to_string(s.object_constants) +
                  " order=" + std::to_string(s.order_constants));
  for (const PredicateStats& ps : s.predicates) {
    std::string detail = "tuples=" + std::to_string(ps.tuples) + " distinct=";
    for (size_t i = 0; i < ps.distinct_args.size(); ++i) {
      if (i > 0) detail += "/";
      detail += std::to_string(ps.distinct_args[i]);
    }
    out += line("predicate #" + std::to_string(ps.pred), detail);
  }
  if (!s.order_stats_valid) {
    out += line("order-graph", "invalid (inconsistent database)");
    return out;
  }
  std::string density = "0";
  if (s.points > 1) {
    const double d = static_cast<double>(s.edges) /
                     (static_cast<double>(s.points) * (s.points - 1) / 2);
    density = std::to_string(d);
  }
  out += line("order-graph",
              "points=" + std::to_string(s.points) +
                  " edges=" + std::to_string(s.edges) +
                  " strict=" + std::to_string(s.strict_edges) +
                  " density=" + density);
  out += line("dag-shape", "depth=" + std::to_string(s.dag_depth) +
                               " level-width=" + std::to_string(s.level_width) +
                               " components=" + std::to_string(s.components));
  for (const auto& [pred, count] : s.label_points) {
    out += line("label #" + std::to_string(pred),
                "points=" + std::to_string(count));
  }
  for (const LabelPairStats& pair : s.label_pairs) {
    out += line("label-pair #" + std::to_string(pair.p) + ",#" +
                    std::to_string(pair.q),
                "points=" + std::to_string(pair.points));
  }
  return out;
}

namespace {

// The memoized entry held by the Database stats slot: the stats plus
// the cost model built over them (one per content version, shared by
// every request that evaluates against it).
struct StatsEntry {
  std::shared_ptr<const DatabaseStats> stats;
  std::shared_ptr<const QueryPlanner> planner;
};

std::shared_ptr<const StatsEntry> EntryFor(const Database& db) {
  const Database::StatsSlot& slot = db.stats_slot();
  if (slot.value != nullptr && slot.revision == db.revision()) {
    return std::static_pointer_cast<const StatsEntry>(slot.value);
  }
  auto stats = std::make_shared<const DatabaseStats>(CollectStats(db));
  auto entry = std::make_shared<const StatsEntry>(
      StatsEntry{stats, std::make_shared<const CostModel>(stats)});
  db.set_stats_slot(entry, db.revision(), /*from_snapshot=*/false);
  return entry;
}

}  // namespace

std::shared_ptr<const DatabaseStats> StatsFor(const Database& db) {
  return EntryFor(db)->stats;
}

std::shared_ptr<const QueryPlanner> PlannerFor(const Database& db) {
  return EntryFor(db)->planner;
}

bool StatsArePersisted(const Database& db) {
  const Database::StatsSlot& slot = db.stats_slot();
  return slot.value != nullptr && slot.revision == db.revision() &&
         slot.from_snapshot;
}

Status InstallPersistedStats(const Database& db, DatabaseStats stats) {
  if (stats.db_uid != db.uid() || stats.db_revision != db.revision()) {
    return Status::InvalidArgument(
        "persisted statistics describe " + std::to_string(stats.db_uid) +
        "@" + std::to_string(stats.db_revision) + " but the database is " +
        std::to_string(db.uid()) + "@" + std::to_string(db.revision()));
  }
  auto sp = std::make_shared<const DatabaseStats>(std::move(stats));
  auto entry = std::make_shared<const StatsEntry>(
      StatsEntry{sp, std::make_shared<const CostModel>(sp)});
  db.set_stats_slot(entry, db.revision(), /*from_snapshot=*/true);
  return Status::Ok();
}

}  // namespace iodb::stats
