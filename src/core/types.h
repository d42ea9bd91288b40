// Core vocabulary types for the two-sorted language of the paper
// (Section 2): an object sort and an order sort, proper predicates with
// typed argument lists, and dense predicate-set bitsets used by the
// monadic engines.

#ifndef IODB_CORE_TYPES_H_
#define IODB_CORE_TYPES_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace iodb {

/// The two sorts of the language. Order-sort terms denote points of a
/// linearly ordered domain; object-sort terms denote ordinary individuals.
enum class Sort : uint8_t { kObject = 0, kOrder = 1 };

/// Returns "object" or "order".
const char* SortName(Sort sort);

/// Signature of a proper predicate.
struct PredicateInfo {
  std::string name;
  std::vector<Sort> arg_sorts;

  int arity() const { return static_cast<int>(arg_sorts.size()); }
  /// True if the predicate is monadic with an order-sort argument — the
  /// shape required by the monadic engines of Sections 4-6.
  bool IsMonadicOrder() const {
    return arg_sorts.size() == 1 && arg_sorts[0] == Sort::kOrder;
  }
};

/// Interns proper predicate symbols. A vocabulary is shared (by
/// shared_ptr) between the databases and queries that talk about the same
/// predicates, so predicate ids are directly comparable.
///
/// Thread-safety: fully synchronized. Registration
/// (GetOrAddPredicate / MustAddPredicate) may race lookups from any
/// number of threads — the serving layer parses queries and mutations
/// concurrently against one shared vocabulary. References returned by
/// predicate() stay valid forever (predicates are append-only in stable
/// storage), so engines can hold them across later registrations.
class Vocabulary {
 public:
  Vocabulary();
  Vocabulary(const Vocabulary& other);
  Vocabulary& operator=(const Vocabulary& other);

  /// Identity of this vocabulary object. Unique per live object (copies
  /// get a fresh uid), so external caches keyed by (vocabulary uid, query
  /// fingerprint) never confuse plans compiled against different
  /// vocabularies. Predicate registration does NOT change the uid:
  /// registering new predicates only extends the id space, it never
  /// re-means an existing id. Lock-free: the service reads it on every
  /// request.
  uint64_t uid() const { return uid_.load(std::memory_order_acquire); }

  /// Registers `name` with the given signature, or returns the existing id.
  /// Fails (via Result) if `name` exists with a different signature.
  Result<int> GetOrAddPredicate(const std::string& name,
                                std::vector<Sort> arg_sorts);

  /// As GetOrAddPredicate but aborts on signature mismatch. Convenient for
  /// programmatic construction where the caller controls all names.
  int MustAddPredicate(const std::string& name, std::vector<Sort> arg_sorts);

  /// Looks up a predicate id by name.
  std::optional<int> FindPredicate(const std::string& name) const;

  /// Storage-layer hook: adopts a persisted identity. The process-wide uid
  /// counter is advanced past `uid`, so vocabularies constructed later can
  /// never collide with a restored identity. Only the storage layer should
  /// call this, and only on a vocabulary whose plans/caches have not been
  /// published yet (re-identifying a vocabulary re-keys every cache).
  void RestoreUid(uint64_t uid);

  /// The reference is stable: it survives later registrations (deque
  /// storage, append-only) and any concurrent GetOrAddPredicate.
  const PredicateInfo& predicate(int id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    IODB_CHECK_GE(id, 0);
    IODB_CHECK_LT(id, static_cast<int>(predicates_.size()));
    return predicates_[id];
  }
  int num_predicates() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return static_cast<int>(predicates_.size());
  }

  /// True if every predicate is monadic over the order sort.
  bool AllMonadicOrder() const;

 private:
  // Guards every member but uid_. A deque (not vector) holds the
  // predicates so references handed out by predicate() never move under a
  // concurrent registration's growth.
  mutable std::shared_mutex mu_;
  // Changes only at construction, assignment and RestoreUid.
  std::atomic<uint64_t> uid_;
  std::deque<PredicateInfo> predicates_;
  std::unordered_map<std::string, int> index_;
};

using VocabularyPtr = std::shared_ptr<Vocabulary>;

/// A set of predicate ids, stored densely. This is the alphabet letter of
/// the flexi-word machinery of Section 4: labels D[u] and Φ[t] are
/// PredSets, and the central operation is the subset test.
class PredSet {
 public:
  PredSet() = default;

  /// Creates an empty set able to hold ids 0..num_predicates-1 without
  /// reallocation (it grows on demand anyway).
  explicit PredSet(int num_predicates) {
    words_.resize((num_predicates + 63) / 64, 0);
  }

  /// Adds predicate `id`.
  void Add(int id);
  /// Removes predicate `id` if present.
  void Remove(int id);
  /// Removes every predicate, keeping the allocated capacity (so label
  /// slots can be refilled in place by the incremental model builder).
  void Clear();
  /// Membership test.
  bool Contains(int id) const;
  /// True if no predicate is in the set.
  bool Empty() const;
  /// Number of predicates in the set.
  int Count() const;

  /// Subset test: every id of *this is in `other`.
  bool IsSubsetOf(const PredSet& other) const;
  /// In-place union.
  void UnionWith(const PredSet& other);

  /// The ids in increasing order.
  std::vector<int> Elements() const;

  /// Value hash for container keys.
  size_t Hash() const;

  /// Raw 64-bit words (bit i of word w = membership of predicate 64w+i).
  /// Trailing zero words may be absent; exposed so index structures can
  /// iterate members without materializing Elements().
  const std::vector<uint64_t>& words() const { return words_; }

  friend bool operator==(const PredSet& a, const PredSet& b);

 private:
  // Invariant: trailing zero words are permitted; comparisons normalize.
  std::vector<uint64_t> words_;
};

/// Hash functor for PredSet keys.
struct PredSetHash {
  size_t operator()(const PredSet& s) const { return s.Hash(); }
};

/// Combines a hash into a seed (boost-style).
inline void HashCombine(size_t& seed, size_t value) {
  seed ^= value + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2);
}

/// Hash for small int vectors (state keys in the search engines).
struct IntVectorHash {
  size_t operator()(const std::vector<int>& v) const {
    size_t seed = v.size();
    for (int x : v) HashCombine(seed, static_cast<size_t>(x) * 0x9E3779B1u);
    return seed;
  }
};

}  // namespace iodb

#endif  // IODB_CORE_TYPES_H_
