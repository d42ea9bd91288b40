// The sort region: the database points a search has not yet placed while
// it builds a minimal model point by point (Proposition 2.8).
//
// The brute-force enumerator (Corollary 2.9), the bounded-width engine
// (Theorem 4.7) and the disjunctive engine (Theorem 5.3) walk the same
// object. The region is always an up-set of the precedence dag. A step
// finds its minimal points (no alive direct predecessor) or minor points
// (no alive strict ancestor, condition S1) and removes a group: the
// down-closure, within the minors, of an antichain of minors (S2), never
// holding both endpoints of a "!=" atom (Section 7).
//
// Two forms with the same operations; each engine writes its search once
// as a template over the form, and WithRegion picks the form once per
// search from the EnumerationContext. Only this module reads the
// context's masks and strict adjacency.
//   * WordRegion (at most 64 points): one alive word; every test is a
//     word operation on the context's reachability masks.
//   * CounterRegion (any size): alive flags plus per-point alive direct
//     and strict in-degrees (minimal ⇔ 0, minor ⇔ 0), kept under LIFO
//     remove/restore.
// The probe counters are form-specific; docs/REACHABILITY_INDEX.md lists
// what each form counts.

#ifndef IODB_CORE_REGION_H_
#define IODB_CORE_REGION_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/minimal_models.h"
#include "core/types.h"
#include "util/check.h"

namespace iodb {

/// Word form: the region as one 64-bit alive word (at most 64 points).
class WordRegion {
 public:
  /// Memo key: the alive word itself.
  using Key = uint64_t;
  /// A group, and the minor set, as a word.
  using Group = uint64_t;
  /// Restore point: the alive word to return to.
  using Mark = uint64_t;
  /// Per-state scratch of the group walk: the minors of the state.
  struct Level {
    Group minors = 0;
  };

  WordRegion(const NormDb& db, const EnumerationContext& ctx)
      : db_(db), ctx_(ctx) {
    IODB_CHECK(ctx.has_masks);
    const int n = db.num_points();
    alive_ = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  }

  bool empty() const { return alive_ == 0; }
  const ReachProbeStats& probes() const { return probes_; }
  Key key() const { return alive_; }
  Mark mark() const { return alive_; }
  void Remove(int v) { alive_ &= ~(uint64_t{1} << v); }
  void RemoveGroup(Group group) { alive_ &= ~group; }
  void RestoreTo(Mark mark) { alive_ = mark; }

  /// The first minimal point, in ascending order, for which `pred` holds;
  /// -1 if none. Counts one probe per alive point.
  template <class Pred>
  int FirstMinimal(Pred pred) {
    Count(std::popcount(alive_));
    for (uint64_t rest = alive_; rest != 0; rest &= rest - 1) {
      const int v = std::countr_zero(rest);
      const bool minimal =
          (ctx_.anc_mask[v] & alive_ & ~(uint64_t{1} << v)) == 0;
      if (minimal && pred(v)) return v;
    }
    return -1;
  }

  /// Fills `level` with the minor points of the (nonempty) region.
  void FindMinors(Level& level) {
    uint64_t minors = 0;
    for (uint64_t rest = alive_; rest != 0; rest &= rest - 1) {
      const int v = std::countr_zero(rest);
      if ((ctx_.strict_anc_mask[v] & alive_) == 0) minors |= rest & (~rest + 1);
    }
    Count(std::popcount(alive_));
    // A consistent database always has a minor point while nonempty.
    IODB_CHECK(minors != 0);
    level.minors = minors;
  }

  /// Calls visit(group) for the down-closure (within the minors) of every
  /// nonempty antichain of minors, in preorder over antichains listed by
  /// ascending point. Stops, returning false, when visit returns false.
  template <class Visit>
  bool ForEachGroup(const Level& level, Visit&& visit) {
    return Walk(level.minors, level.minors, 0, 0, visit);
  }

  /// The word form's closure is one AND; an engine that counts one probe
  /// per minor tested for each group it tries charges them here.
  void ChargeGroupClosure(const Level& level) {
    Count(std::popcount(level.minors));
  }

  /// False iff the group holds both endpoints of a "!=" atom.
  bool Respects(Group group) const {
    for (const auto& [u, v] : db_.inequalities) {
      if (((group >> u) & 1) && ((group >> v) & 1)) return false;
    }
    return true;
  }

  /// Appends the group's points in ascending order.
  void AppendMembers(Group group, std::vector<int>* out) const {
    for (; group != 0; group &= group - 1) {
      out->push_back(std::countr_zero(group));
    }
  }

  /// Removes a sort-prefix group; each point must be alive and minor.
  void SeedGroup(const std::vector<int>& group) {
    IODB_CHECK(!group.empty());
    uint64_t group_mask = 0;
    for (int g : group) {
      IODB_CHECK((alive_ >> g) & 1);
      IODB_CHECK_EQ(ctx_.strict_anc_mask[g] & alive_, 0u);
      group_mask |= uint64_t{1} << g;
    }
    alive_ &= ~group_mask;
  }

 private:
  void Count(long long n) {
    probes_.probes += n;
    probes_.fast_hits += n;
  }

  // `rest` iterates the candidates in ascending order; `incompat` holds
  // every point comparable to a chosen one (independence is one bit
  // test); `chosen_anc` is the union of the chosen points' ancestor masks
  // (the down-closure is one AND against the minors).
  template <class Visit>
  bool Walk(uint64_t minors, uint64_t rest, uint64_t incompat,
            uint64_t chosen_anc, Visit& visit) {
    for (; rest != 0; rest &= rest - 1) {
      const int v = std::countr_zero(rest);
      Count(1);
      if ((incompat >> v) & 1) continue;
      const uint64_t anc_with_v = chosen_anc | ctx_.anc_mask[v];
      if (!visit(Group{minors & anc_with_v})) return false;
      if (!Walk(minors, rest & (rest - 1),
                incompat | ctx_.desc_mask[v] | ctx_.anc_mask[v], anc_with_v,
                visit)) {
        return false;
      }
    }
    return true;
  }

  const NormDb& db_;
  const EnumerationContext& ctx_;
  uint64_t alive_;
  ReachProbeStats probes_;
};

/// Counter form: alive flags and per-point alive in-degree counters (any
/// number of points). The region is an up-set, so a strict path between
/// two alive points never crosses a removed one: "minor in the region" is
/// exactly "no alive strict ancestor", i.e. strict_in_[v] == 0.
class CounterRegion {
 public:
  /// Memo key: the ascending list of minimal points, which generates the
  /// region as its up-closure.
  using Key = std::vector<int>;
  /// A group, and the minor set, as an ascending point list.
  using Group = std::vector<int>;
  /// Restore point: a position in the removal log.
  using Mark = size_t;
  /// Per-state scratch of the group walk.
  struct Level {
    Group minors;
    std::vector<int> chosen;
    Group group;
  };

  CounterRegion(const NormDb& db, const EnumerationContext& ctx)
      : db_(db),
        ctx_(ctx),
        alive_(db.num_points(), 1),
        in_deg_(db.num_points(), 0),
        strict_in_(ctx.strict_in_all_alive),
        alive_count_(db.num_points()) {
    for (const LabeledEdge& e : db.dag.edges()) ++in_deg_[e.to];
    log_.reserve(db.num_points());
  }

  bool empty() const { return alive_count_ == 0; }
  Mark mark() const { return log_.size(); }
  const ReachProbeStats& probes() const { return probes_; }

  /// The minimal points; one counter read (probe) per alive point. The
  /// list is kept for FirstMinimal until the region changes.
  const Key& key() {
    ScanMinimals();
    return minimals_;
  }

  void Remove(int v) {
    Shift(v, -1);
    log_.push_back(v);
  }

  void RemoveGroup(const Group& group) {
    for (int v : group) Remove(v);
  }

  void RestoreTo(Mark mark) {
    for (; log_.size() > mark; log_.pop_back()) Shift(log_.back(), +1);
  }

  template <class Pred>
  int FirstMinimal(Pred pred) {
    if (!minimals_fresh_) ScanMinimals();
    for (int v : minimals_) {
      if (pred(v)) return v;
    }
    return -1;
  }

  void FindMinors(Level& level) {
    level.minors.clear();
    for (int v = 0; v < db_.num_points(); ++v) {
      if (alive_[v] && strict_in_[v] == 0) level.minors.push_back(v);
    }
    Count(alive_count_);
    IODB_CHECK(!level.minors.empty());
  }

  template <class Visit>
  bool ForEachGroup(Level& level, Visit&& visit) {
    level.chosen.clear();
    return Walk(level, 0, visit);
  }

  /// The counter form's closure probes are counted by the walk itself.
  void ChargeGroupClosure(const Level&) {}

  bool Respects(const Group& group) const {
    for (const auto& [u, v] : db_.inequalities) {
      if (std::binary_search(group.begin(), group.end(), u) &&
          std::binary_search(group.begin(), group.end(), v)) {
        return false;
      }
    }
    return true;
  }

  void AppendMembers(const Group& group, std::vector<int>* out) const {
    out->insert(out->end(), group.begin(), group.end());
  }

  void SeedGroup(const std::vector<int>& group) {
    IODB_CHECK(!group.empty());
    for (int g : group) {
      IODB_CHECK(alive_[g]);
      IODB_CHECK_EQ(strict_in_[g], 0);
    }
    RemoveGroup(group);
  }

 private:
  void Count(long long n) {
    probes_.probes += n;
    probes_.fast_hits += n;
  }

  // Puts `v` in (d = +1) or out of (d = -1) the region: its flag, and the
  // in-degree counters of its direct and strict successors.
  void Shift(int v, int d) {
    alive_[v] = d > 0;
    alive_count_ += d;
    for (const Digraph::Arc& arc : db_.dag.out(v)) in_deg_[arc.vertex] += d;
    for (int k = ctx_.strict_out_off[v]; k < ctx_.strict_out_off[v + 1]; ++k) {
      strict_in_[ctx_.strict_out[k]] += d;
    }
    minimals_fresh_ = false;
  }

  void ScanMinimals() {
    minimals_.clear();
    for (int v = 0; v < db_.num_points(); ++v) {
      if (alive_[v] && in_deg_[v] == 0) minimals_.push_back(v);
    }
    Count(alive_count_);
    minimals_fresh_ = true;
  }

  template <class Visit>
  bool Walk(Level& level, size_t next, Visit& visit) {
    for (size_t i = next; i < level.minors.size(); ++i) {
      const int v = level.minors[i];
      bool independent = true;
      for (int u : level.chosen) {
        if (ctx_.Comparable(u, v, &probes_)) {
          independent = false;
          break;
        }
      }
      if (!independent) continue;
      level.chosen.push_back(v);
      level.group.clear();
      for (int m : level.minors) {
        for (int a : level.chosen) {
          if (ctx_.Reaches(m, a, &probes_)) {
            level.group.push_back(m);
            break;
          }
        }
      }
      if (!visit(std::as_const(level.group))) return false;
      if (!Walk(level, i + 1, visit)) return false;
      level.chosen.pop_back();
    }
    return true;
  }

  const NormDb& db_;
  const EnumerationContext& ctx_;
  std::vector<uint8_t> alive_;
  std::vector<int> in_deg_;
  std::vector<int> strict_in_;
  std::vector<int> log_;           // removed points, in removal order
  std::vector<int> minimals_;
  bool minimals_fresh_ = false;
  int alive_count_;
  ReachProbeStats probes_;
};

/// Runs `search` (a generic callable taking std::type_identity<Region>)
/// on the form the context supports: the word form at mask width, the
/// counter form above it.
template <class Search>
decltype(auto) WithRegion(const EnumerationContext& ctx, Search&& search) {
  if (ctx.has_masks) return search(std::type_identity<WordRegion>{});
  return search(std::type_identity<CounterRegion>{});
}

/// A search state: the region's memo key plus the query-side position.
template <class Region>
using StateKey = std::pair<typename Region::Key, uint64_t>;

template <class Region>
struct StateKeyHash {
  size_t operator()(const StateKey<Region>& k) const {
    uint64_t h;
    if constexpr (std::is_same_v<typename Region::Key, uint64_t>) {
      h = k.first * 0x9e3779b97f4a7c15ULL;
    } else {
      h = IntVectorHash{}(k.first);
    }
    h ^= k.second + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

}  // namespace iodb

#endif  // IODB_CORE_REGION_H_
