// Indefinite order databases (Section 2 of the paper).
//
// A database is a finite set of ground proper atoms plus order atoms
// (u < v, u <= v, optionally u != v) over "order constants" — null-like
// values denoting unknown points of a linearly ordered domain.
//
// `Database` is the mutable fact store. `NormDb` is the normalized view
// used by all engines: order constants that are forced equal by rule N1
// (cycles of "<=" atoms) are merged into canonical *points*, trivial atoms
// are dropped (rule N2), the remaining order atoms form a dag with deduped
// edges ("<" dominates "<="), and monadic-order facts become per-point
// label sets.

#ifndef IODB_CORE_DATABASE_H_
#define IODB_CORE_DATABASE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/atom.h"
#include "core/types.h"
#include "graph/digraph.h"
#include "graph/topo.h"
#include "util/status.h"

namespace iodb {

struct NormDb;

/// Mutable indefinite order database.
///
/// The database memoizes its normalized view (see NormView): repeated
/// evaluations of prepared queries against the same unmutated database
/// skip re-normalization. Copies receive a fresh identity (uid) so caches
/// keyed by (uid, revision) never confuse two objects.
class Database {
 public:
  explicit Database(VocabularyPtr vocab);

  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&& other) noexcept;
  Database& operator=(Database&& other) noexcept;

  const VocabularyPtr& vocab() const { return vocab_; }

  /// Identity of this database object. Unique per live object: copies get
  /// a fresh uid, moves transfer it (and re-identify the source).
  uint64_t uid() const { return uid_; }

  /// Mutation counter: bumped by every constant/atom addition. A (uid,
  /// revision) pair identifies immutable database content, so it can key
  /// external caches of derived structures.
  uint64_t revision() const { return revision_; }

  /// Interns the constant `name` with the given sort; returns its id within
  /// that sort. Aborts if `name` already exists with the other sort (a
  /// name denotes one typed constant).
  int GetOrAddConstant(const std::string& name, Sort sort);

  /// Looks up a constant id; nullopt if absent or of the other sort.
  std::optional<int> FindConstant(const std::string& name, Sort sort) const;

  int num_object_constants() const {
    return static_cast<int>(object_names_.size());
  }
  int num_order_constants() const {
    return static_cast<int>(order_names_.size());
  }
  const std::string& object_name(int id) const { return object_names_[id]; }
  const std::string& order_name(int id) const { return order_names_[id]; }

  /// Adds a ground proper atom; argument sorts must match the predicate
  /// signature (checked).
  void AddProperAtom(int pred, std::vector<Term> args);

  /// Convenience: adds `pred_name(constants...)`, registering the predicate
  /// (inferring sorts from existing constants: known order constants are
  /// order-sort, everything else object-sort) and interning constants.
  /// Fails if `pred_name` exists with an incompatible signature.
  Status AddFact(const std::string& pred_name,
                 const std::vector<std::string>& constant_names);

  /// Adds the order atom `u rel v` by order-constant id.
  void AddOrderAtom(int u, int v, OrderRel rel);

  /// Convenience: interns the names as order constants and adds the atom.
  void AddOrder(const std::string& u, OrderRel rel, const std::string& v);

  /// Adds the inequality `u != v` by order-constant id (Section 7).
  void AddInequality(int u, int v);

  /// Convenience variant of AddInequality by name.
  void AddNotEqual(const std::string& u, const std::string& v);

  const std::vector<ProperAtom>& proper_atoms() const { return proper_atoms_; }
  const std::vector<OrderAtom>& order_atoms() const { return order_atoms_; }
  const std::vector<InequalityAtom>& inequalities() const {
    return inequalities_;
  }

  /// |D|: the total number of atoms.
  int SizeAtoms() const {
    return static_cast<int>(proper_atoms_.size() + order_atoms_.size() +
                            inequalities_.size());
  }

  /// Memoized normalized view: Normalize(*this), recomputed only when the
  /// database has been mutated since the last call. The returned pointer
  /// (and any references into the view) stays valid until the next
  /// mutation. Normalization failures (inconsistent order atoms) are
  /// memoized too. NOT thread-safe: the lazy fill mutates cache state
  /// under const, so concurrent NormView/Evaluate calls on one Database
  /// need external synchronization.
  Result<const NormDb*> NormView() const;

  /// Number of times NormView() actually ran Normalize (test/bench hook
  /// for asserting cache reuse).
  long long norm_view_computations() const { return norm_view_computations_; }

  /// Storage-layer hook: pre-sizes the atom tables for a bulk restore.
  void ReserveAtoms(size_t proper_atoms, size_t order_atoms,
                    size_t inequalities);

  /// Bulk-load hook (snapshot restore, the parser): sets both constant
  /// tables wholesale on a database that has no constants yet (ids are
  /// the vector indices — the interning order). Equivalent to
  /// GetOrAddConstant per name (including revision bumps) minus the
  /// per-call overhead; a duplicate name across or within the tables is
  /// a Status error, so corrupt input never trips an internal invariant.
  Status RestoreConstantTables(std::vector<std::string> object_names,
                               std::vector<std::string> order_names);

  /// Storage-layer hook: bulk-appends one predicate-bucketed fact
  /// segment — `count` ground facts of `pred` with argument ids
  /// flattened in signature order (the snapshot segment layout).
  /// Equivalent to `count` AddProperAtom calls (including one revision
  /// bump each) without per-call overhead; ids are range-checked per
  /// segment, so callers decoding untrusted bytes must validate first.
  void AppendFactSegment(int pred, const int* flat_args, size_t count);

  /// Bulk-load hook (the parser): appends whole atom tables whose ids
  /// index this database's constant tables and whose proper atoms match
  /// their predicates' signatures. Equivalent to one AddProperAtom /
  /// AddOrderAtom / AddInequality call per atom in table order (one
  /// revision bump each) without the per-call signature lookups; ids are
  /// range-checked.
  void AppendAtoms(std::vector<ProperAtom> proper_atoms,
                   std::vector<OrderAtom> order_atoms,
                   std::vector<InequalityAtom> inequalities);

  /// Storage-layer hook: adopts a persisted (uid, revision) identity, so
  /// caches keyed by (uid, revision) recognize a database restored from a
  /// snapshot as the same content they saw before the restart. The
  /// process-wide uid counter is advanced past `uid` (fresh databases can
  /// never collide with a restored identity) and the memoized NormView is
  /// dropped. Only the storage layer should call this, and only right
  /// after reconstructing the content the identity describes — or the
  /// serving layer, to give a just-parsed database a uid from NextUid().
  void RestoreIdentity(uint64_t uid, uint64_t revision);

  /// Draws a fresh uid from the process-wide counter constructors use.
  /// The serving layer mints the uids of a group of LOADs up front, in
  /// command order, and parses the group on several threads.
  static uint64_t NextUid();

  /// Type-erased memo slot for the statistics layer (src/stats): one
  /// entry describing this database's content at `revision`. The core
  /// layer only stores it; iodb::stats owns the concrete type. Same
  /// thread contract as NormView: the slot fills lazily under const, so
  /// the first fill must not race concurrent readers (the service
  /// pre-materializes it on the writer before publishing a version).
  struct StatsSlot {
    std::shared_ptr<const void> value;
    /// The revision `value` describes; a mismatch means stale.
    uint64_t revision = 0;
    /// True if the entry was installed from persisted snapshot bytes
    /// (vs rebuilt in-process) — surfaced by `iodb_serve INFO`.
    bool from_snapshot = false;
  };
  const StatsSlot& stats_slot() const { return stats_slot_; }
  void set_stats_slot(std::shared_ptr<const void> value, uint64_t revision,
                      bool from_snapshot) const {
    stats_slot_ = {std::move(value), revision, from_snapshot};
  }

  /// Serving-layer hook: a copy that KEEPS this database's uid (unlike the
  /// copy constructor, which mints a fresh one). The fork is the next
  /// version of the same logical database: mutating it bumps the shared
  /// revision line, and because it inherits the memoized NormView it also
  /// inherits the previous version's enumeration context, so the
  /// reachability index grows incrementally across published versions
  /// instead of rebuilding. The caller must retire the original from
  /// further mutation (two live mutable objects with one uid would fork
  /// the revision line) — the MVCC publish path does so by construction,
  /// as the original is frozen behind shared_ptr<const Database>.
  Database ForkNextVersion() const;

 private:
  void BumpRevision() { ++revision_; }

  VocabularyPtr vocab_;
  uint64_t uid_;
  uint64_t revision_ = 0;
  std::vector<std::string> object_names_;
  std::vector<std::string> order_names_;
  // name -> (sort, id)
  std::unordered_map<std::string, std::pair<Sort, int>> constant_index_;
  std::vector<ProperAtom> proper_atoms_;
  std::vector<OrderAtom> order_atoms_;
  std::vector<InequalityAtom> inequalities_;

  // NormView memoization. shared_ptr so database copies share the cached
  // view until either side mutates (each object replaces only its own
  // pointer). The revision stamp says which content the view reflects.
  mutable std::shared_ptr<const Result<NormDb>> norm_cache_;
  mutable uint64_t norm_cache_revision_ = 0;
  mutable long long norm_view_computations_ = 0;
  // Statistics memo (see StatsSlot). Copies share the entry like the
  // NormView cache — the revision stamp makes staleness detectable.
  mutable StatsSlot stats_slot_;
};

/// Normalized database: the labelled dag view of Sections 2 and 4.
struct NormDb {
  VocabularyPtr vocab;

  /// Canonical points after N1 merging. `point_members[p]` lists the names
  /// of the order constants merged into point p; `point_of_constant[c]`
  /// maps an order-constant id of the source database to its point.
  std::vector<std::vector<std::string>> point_members;
  std::vector<int> point_of_constant;

  /// The order dag over points; edges deduplicated, "<" dominating "<=".
  Digraph dag{0};

  /// labels[p]: the monadic-order predicates asserted of point p (D[u] in
  /// the paper's notation).
  std::vector<PredSet> labels;

  /// Proper atoms that are not monadic-order (pure object facts and mixed
  /// n-ary facts). Order-sort argument ids are point ids.
  std::vector<ProperAtom> other_atoms;

  /// Inequality constraints over points, normalized with lhs < rhs
  /// (index-wise) and deduplicated.
  std::vector<std::pair<int, int>> inequalities;

  /// Object constant names (ids are shared with the source database).
  std::vector<std::string> object_names;

  /// Lazily-built shared order-reachability context, owned by
  /// SharedEnumerationContext() (minimal_models.h); type-erased so the
  /// core-layer type stays out of this header. Same thread contract as
  /// Database::NormView: the lazy fill mutates under const, so the first
  /// build on a given NormDb must not race concurrent readers (the
  /// parallel engines build it once before spawning workers).
  mutable std::shared_ptr<const void> order_context_cache;

  /// The previous revision's order context, carried over by NormView on
  /// re-normalization (the service APPEND / WAL-replay pattern mutates
  /// the database and evaluates again). When this revision's dag is a
  /// prefix-extension of the predecessor's, SharedEnumerationContext
  /// grows the predecessor's reachability index by the appended edges
  /// instead of rebuilding it; either way the slot is cleared after the
  /// first context build.
  mutable std::shared_ptr<const void> prev_order_context;

  int num_points() const { return dag.num_vertices(); }

  /// Display name for a point ("u" or "u=v=w" for merged constants).
  std::string PointName(int p) const;

  /// True if every proper atom involving a point is a monadic label.
  /// (Pure object facts may still be present in other_atoms.)
  bool OrderFactsAreMonadic() const;

  /// |D| measured on the normalized form.
  int SizeAtoms() const;
};

/// Applies normalization rules N1/N2 and builds the dag view. Fails with
/// kInconsistent if the order atoms entail u < u for some constant or an
/// inequality collapses (u != v with u, v identified).
Result<NormDb> Normalize(const Database& db);

/// Width of the normalized database: the maximum antichain of its dag
/// (Section 2). Width 0 means there are no points.
int Width(const NormDb& db);

}  // namespace iodb

#endif  // IODB_CORE_DATABASE_H_
