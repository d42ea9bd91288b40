// Core vocabulary types for the two-sorted language of the paper
// (Section 2): an object sort and an order sort, proper predicates with
// typed argument lists, and dense predicate-set bitsets used by the
// monadic engines.

#ifndef IODB_CORE_TYPES_H_
#define IODB_CORE_TYPES_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
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
/// Thread-safety: reads never lock. predicate(), num_predicates(),
/// FindPredicate() and AllMonadicOrder() are lock-free, and so is
/// GetOrAddPredicate() when the name is already registered; only a
/// registration that adds a predicate takes the writer mutex, and
/// writers serialize on it. Any number of threads may read while one
/// registers: the serving layer parses queries, mutations and LOADed
/// databases concurrently against one shared vocabulary.
///
/// How: predicates live in an append-only table of doubling segments
/// behind an atomic size. Names resolve through an insert-only
/// open-addressing index whose slots are atomic; on growth the writer
/// builds a larger index and publishes it with one pointer store. A
/// writer fills the table slot, files the name in the index, and
/// publishes the size last, with release: a reader that sees the size
/// (acquire) sees both, so every id below num_predicates() is found by
/// name, and a lookup ignores ids at or past the size. Segments and
/// superseded indexes are freed only when the vocabulary dies, so a
/// reader on an old index still probes valid memory. A predicate's name
/// and signature never change once registered, so references returned
/// by predicate() stay valid for the vocabulary's lifetime and engines
/// can hold them across later registrations.
///
/// Copy assignment is NOT safe against concurrent readers of the
/// assigned-to vocabulary: it replaces the tables, so references from
/// its predicate() dangle. Assign only a vocabulary no other thread
/// uses.
class Vocabulary {
 public:
  Vocabulary();
  Vocabulary(const Vocabulary& other);
  Vocabulary& operator=(const Vocabulary& other);
  ~Vocabulary();

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
  std::optional<int> FindPredicate(std::string_view name) const;

  /// GetOrAddPredicate without the add: the id if `name` is registered
  /// with `arg_sorts`, the error GetOrAddPredicate gives if it is
  /// registered with another signature, and nullopt if it is not
  /// registered. Registers nothing.
  Result<std::optional<int>> FindPredicate(
      std::string_view name, const std::vector<Sort>& arg_sorts) const;

  /// Storage-layer hook: adopts a persisted identity. The process-wide uid
  /// counter is advanced past `uid`, so vocabularies constructed later can
  /// never collide with a restored identity. Only the storage layer should
  /// call this, and only on a vocabulary whose plans/caches have not been
  /// published yet (re-identifying a vocabulary re-keys every cache).
  void RestoreUid(uint64_t uid);

  /// The reference is stable for the vocabulary's lifetime: it survives
  /// later registrations, concurrent or not.
  const PredicateInfo& predicate(int id) const {
    IODB_CHECK_GE(id, 0);
    IODB_CHECK_LT(id, num_predicates());
    int offset = 0;
    const int segment = SegmentOf(id, &offset);
    return segments_[segment].load(std::memory_order_acquire)[offset];
  }
  int num_predicates() const {
    return size_.load(std::memory_order_acquire);
  }

  /// True if every predicate is monadic over the order sort.
  bool AllMonadicOrder() const;

 private:
  // Segment s holds ids [kFirstSegment * (2^s - 1), kFirstSegment *
  // (2^(s+1) - 1)); kSegments of them address more ids than an int has.
  static constexpr int kFirstSegment = 16;
  static constexpr int kSegments = 28;
  // The name index: slot = 0 (empty) or the high 32 bits of the name's
  // hash over (id + 1). Insert-only; at most half full.
  struct NameIndex {
    explicit NameIndex(size_t capacity);
    size_t mask;
    std::unique_ptr<std::atomic<uint64_t>[]> slots;
  };

  static int SegmentOf(int id, int* offset) {
    const unsigned block = static_cast<unsigned>(id / kFirstSegment) + 1;
    const int segment = std::bit_width(block) - 1;
    *offset = id - kFirstSegment * ((1 << segment) - 1);
    return segment;
  }
  static uint64_t HashName(std::string_view name);
  // The id of `name` in the published index, or -1.
  int Lookup(std::string_view name) const;
  // Writer side (mu_ held): appends a predicate the index lacks.
  int Append(std::string name, std::vector<Sort> arg_sorts);
  // Writer side (mu_ held): files id under `hash` in `index`.
  static void Insert(NameIndex* index, uint64_t hash, int id);
  // Drops every table (destruction and assignment; no reader may run).
  void Clear();
  // Appends every predicate of `other` (mu_ held or no reader yet).
  void CopyPredicatesFrom(const Vocabulary& other);

  // Changes only at construction, assignment and RestoreUid.
  std::atomic<uint64_t> uid_;
  // Serializes registrations; readers never take it.
  std::mutex mu_;
  std::atomic<int> size_{0};
  std::atomic<PredicateInfo*> segments_[kSegments] = {};
  std::atomic<NameIndex*> index_{nullptr};
  // Every index ever published (the live one last); freed by Clear().
  std::vector<std::unique_ptr<NameIndex>> indexes_;
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
