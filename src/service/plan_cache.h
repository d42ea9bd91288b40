// Bounded LRU cache of compiled query plans, shared across a database
// fleet.
//
// The serving layer compiles queries once (core/prepare.h) and reuses the
// plan across requests; this cache is the reuse point. It is looked up
// BEFORE the query is parsed, so a hit runs neither ParseQuery, Prepare
// nor the planner.
//
// Key. The exact request inputs Prepare() reads, compared field by field
// (no hash stands in for equality): the vocabulary uid, the raw query
// text, the semantics, the forced engine, the countermodel request and
// the inequality-rewrite budget. A plan is database-independent, so the
// key names no database; plans compiled against different vocabularies,
// whose predicate ids are incomparable, never meet.
//
// Plans. Cost-based planning (core/planner.h) may build different plans
// for one key, depending on each database's statistics. Under a key the
// cache keeps the DISTINCT plans, identified by what the cost-plan pass
// accepted (PreparedQuery::cost_outcome()): two plans with equal outcomes
// differ only in estimates and provenance text, so one serves both. A
// small bounded route table per key maps a planner fingerprint (or
// "costing off") to the plan it led to. The fingerprint is a shortcut,
// not part of plan identity: a planner with a new fingerprint costs one
// miss — the caller runs Prepare once and Put() either files a new
// distinct plan or routes the fingerprint to the equal plan it holds.
//
// Admission. Filing a plan in a full cache takes the mutex and evicts
// (and frees) a plan some other request compiled. When most texts are
// one-shot, that buys no hit and serializes the compile path across
// threads. So the caller asks Admit() before Put(): while the cache has
// room every plan is filed; once it is full, only a plan whose key's
// previous miss is still recorded in the doorkeeper, a fixed array of
// key hashes (as in TinyLFU). A declined plan is served unfiled and
// freed when its request ends. A hash collision can only file a plan:
// Get() still compares the exact key.
//
// Counting. Every Get() is one hit or one miss. The capacity, the entry
// count and evictions count distinct plans; evicting a plan drops the
// routes to it. Values are shared immutable plans: a returned shared_ptr
// stays valid after its entry is evicted, so in-flight evaluations never
// race an eviction.
//
// Thread-safe: Get, Put, Clear and the snapshots take an internal mutex;
// Admit takes none (the doorkeeper and the entry count are atomics).
// Evicted plans are freed after the mutex is released. PreparedQuery's own
// evaluation caches are internally synchronized as well, so a cached plan
// may be evaluated from many workers concurrently (against distinct
// Database objects).

#ifndef IODB_SERVICE_PLAN_CACHE_H_
#define IODB_SERVICE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/prepare.h"

namespace iodb {

/// Counter snapshot; see PlanCache::stats().
struct PlanCacheStats {
  long long hits = 0;
  long long misses = 0;
  long long evictions = 0;
  long long declined = 0;  // misses whose plan Admit() kept out
  long long entries = 0;   // distinct plans held
  long long capacity = 0;  // configured bound on distinct plans
};

/// Bounded, thread-safe LRU cache of shared compiled plans. See the file
/// comment for the key and the sharing rule.
class PlanCache {
 public:
  /// `capacity` is the maximum number of distinct plans; must be positive.
  explicit PlanCache(size_t capacity);

  /// The plan serving `query_text` under `options` (whose planner picks
  /// the route), refreshing its recency on a hit. Counts one hit or one
  /// miss. Returns nullptr on a miss.
  std::shared_ptr<const PreparedQuery> Get(uint64_t vocab_uid,
                                           std::string_view query_text,
                                           const EntailOptions& options);

  /// Records a miss of this key in the doorkeeper and says whether the
  /// plan compiled for it should be filed with Put(): yes while the cache
  /// has room, and once it is full only when the key's previous miss is
  /// still recorded. A "no" is counted as declined; the caller serves
  /// the plan unfiled.
  bool Admit(uint64_t vocab_uid, std::string_view query_text,
             const EntailOptions& options);

  /// Files `plan`, which Prepare() built from exactly these inputs, and
  /// returns the plan to serve them with. If a held plan under the same
  /// key has an equal cost-plan outcome, the route goes to that plan, it
  /// is returned and `plan` is dropped (`*added` = false). Otherwise
  /// `plan` becomes a new distinct entry, the most recent one, and
  /// least-recently-used plans are evicted while over capacity.
  std::shared_ptr<const PreparedQuery> Put(
      uint64_t vocab_uid, std::string_view query_text,
      const EntailOptions& options, std::shared_ptr<const PreparedQuery> plan,
      bool* added = nullptr);

  /// Drops every entry (stats are kept; no evictions are counted).
  void Clear();

  /// The query text of each distinct plan, most recently used first (test
  /// hook for asserting the LRU order).
  std::vector<std::string> TextsByRecency() const;

  PlanCacheStats stats() const;
  size_t capacity() const { return capacity_; }

 private:
  // The exact key; Ref is its non-owning lookup form, so a Get() never
  // copies the query text.
  struct Key {
    uint64_t vocab_uid;
    std::string text;
    OrderSemantics semantics;
    EngineKind engine;
    bool want_countermodel;
    int max_rewritten_disjuncts;
  };
  struct KeyRef {
    uint64_t vocab_uid;
    std::string_view text;
    OrderSemantics semantics;
    EngineKind engine;
    bool want_countermodel;
    int max_rewritten_disjuncts;

    friend bool operator==(const KeyRef&, const KeyRef&) = default;
  };
  static KeyRef RefOf(const Key& key);
  static KeyRef RefOf(uint64_t vocab_uid, std::string_view text,
                      const EntailOptions& options);
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const KeyRef& ref) const;
    size_t operator()(const Key& key) const { return (*this)(RefOf(key)); }
  };
  struct KeyEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return Ref(a) == Ref(b);
    }
    static KeyRef Ref(const KeyRef& ref) { return ref; }
    static KeyRef Ref(const Key& key) { return RefOf(key); }
  };

  // Most planner routes kept per key; the oldest route goes first. A
  // fleet with up to this many distinct planner fingerprints keeps every
  // route once warm.
  static constexpr size_t kMaxRoutesPerKey = 256;

  // Which planner a request carries: none (costing off), or one with
  // this fingerprint.
  struct Route {
    bool planned;
    uint64_t planner_fingerprint;

    friend bool operator==(const Route&, const Route&) = default;
  };
  static Route RouteOf(const EntailOptions& options);

  struct KeyEntry;
  // One distinct plan; `owner` is the key it is filed under.
  struct Held {
    std::pair<const Key, KeyEntry>* owner;
    std::shared_ptr<const PreparedQuery> plan;
  };
  using Lru = std::list<Held>;  // front = most recently used
  struct KeyEntry {
    std::vector<Lru::iterator> plans;                    // distinct plans
    std::vector<std::pair<Route, Lru::iterator>> routes;  // oldest first
  };

  // Removes the least recently used plan and every route to it, and
  // hands the plan back so the caller can free it after unlocking.
  std::shared_ptr<const PreparedQuery> EvictOldest();

  // Bound on doorkeeper slots (8 MiB), for very large capacities.
  static constexpr size_t kMaxDoorkeeperSlots = size_t{1} << 20;

  const size_t capacity_;

  // The doorkeeper: 8 slots per plan, rounded up to a power of two; a
  // key's hash lives in the slot its low bits name.
  const size_t doorkeeper_mask_;
  const std::unique_ptr<std::atomic<uint64_t>[]> doorkeeper_;
  // lru_.size(), written under mu_ and read without it by Admit().
  std::atomic<size_t> entries_{0};
  std::atomic<long long> declined_{0};

  mutable std::mutex mu_;
  Lru lru_;
  std::unordered_map<Key, KeyEntry, KeyHash, KeyEq> index_;
  long long hits_ = 0;
  long long misses_ = 0;
  long long evictions_ = 0;
};

}  // namespace iodb

#endif  // IODB_SERVICE_PLAN_CACHE_H_
