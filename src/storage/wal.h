// Write-ahead log of database mutations.
//
// A WAL file sits next to a snapshot and records the mutations applied
// to the database SINCE that snapshot, as name-based records (predicate
// and constant names, not ids), grouped into atomic BEGIN ... COMMIT
// units. Opening a database is: decode the snapshot, then replay the
// WAL's committed groups through the exact same application path the
// live mutation used — so the restored database has the same facts, the
// same interned ids, and (because every mutator bump is replayed) the
// same revision counter the live one had.
//
// Crash-recovery contract (tested byte-by-byte in
// tests/storage_wal_test.cc): for ANY prefix of a WAL file, replay
// either
//   * applies a clean prefix of the committed groups (a torn tail — an
//     incomplete record or an uncommitted group — is discarded and
//     reported via WalReplayStats::truncated_tail), or
//   * fails with a checksum/format Status.
// It never crashes and never applies a partial group.
//
// Durability: AppendWalGroup writes the group in one write() and, when
// `sync` is set, fsync()s before returning — a committed group then
// survives power loss, not just process death. Callers that batch
// durability (WalSyncPolicy::kNone / kInterval in the registry) pass
// sync=false and call SyncWal at their flush points. The crash-recovery
// contract above covers both shapes: an unsynced torn tail is discarded
// on replay exactly like a torn synced append.

#ifndef IODB_STORAGE_WAL_H_
#define IODB_STORAGE_WAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "graph/digraph.h"
#include "util/status.h"

namespace iodb::storage {

/// One logged mutation, by name (ids are process-local; names are the
/// durable identity). Kind values are the on-disk record type bytes.
struct WalRecord {
  enum class Kind : uint8_t {
    kBegin = 1,     // group delimiter (internal to the file format)
    kFact = 2,      // pred(args...): Database::AddFact
    kOrder = 3,     // lhs rel rhs:   Database::AddOrder
    kNotEqual = 4,  // lhs != rhs:    Database::AddNotEqual
    kCommit = 5,    // group delimiter (internal to the file format)
  };

  Kind kind = Kind::kFact;
  // kFact:
  std::string pred;
  std::vector<std::string> args;
  // kOrder / kNotEqual:
  std::string lhs;
  std::string rhs;
  OrderRel rel = OrderRel::kLt;

  friend bool operator==(const WalRecord&, const WalRecord&) = default;
};

/// Parses database-format statement text (facts, order chains,
/// inequalities, predicate declarations) into mutation records,
/// registering any new predicates into `vocab`. This is the shared
/// front half of every WAL-logged mutation: the serving APPEND verb and
/// DurableRegistry::AppendText both parse through here, and replay
/// applies the identical records.
Result<std::vector<WalRecord>> ParseMutationText(const std::string& text,
                                                 VocabularyPtr vocab);

/// Applies mutation records to `db` in order. All failures (unknown
/// sort clashes, arity mismatches) are reported as Status — never a
/// crash — and may leave a prefix of `records` applied; WAL-logged
/// callers apply to the durable state first, so a failed apply is a
/// corrupt-input error, not a torn transaction.
Status ApplyWalRecords(const std::vector<WalRecord>& records, Database* db);

/// Creates (or truncates) the WAL at `path` with a header binding it to
/// the snapshot identity it applies on top of.
Status CreateWal(const std::string& path, uint64_t db_uid,
                 uint64_t base_revision);

/// When appended WAL groups reach the disk platter (the --wal-sync
/// serving flag; enforced by DurableRegistry).
enum class WalSyncPolicy {
  kNone,     // never fsync (fastest; durability = filesystem's promise)
  kCommit,   // fsync every committed group (the default)
  kInterval  // fsync on the first append after interval_ms, and on Flush()
};

struct WalSyncOptions {
  WalSyncPolicy policy = WalSyncPolicy::kCommit;
  /// kInterval: the minimum milliseconds between fsync rounds. There is
  /// no timer: the interval is checked on the next AppendText, so an
  /// acknowledged group stays un-fsynced until a later append finds the
  /// interval passed, or until Flush() / shutdown.
  long long interval_ms = 50;
};

/// Parses "none" / "commit" / "interval"; nullopt otherwise.
std::optional<WalSyncPolicy> ParseWalSyncPolicy(const std::string& name);
const char* WalSyncPolicyName(WalSyncPolicy policy);

/// Appends one committed group (BEGIN, records..., COMMIT) to an
/// existing WAL. The group bytes are written in one write(); with
/// `sync` the file is fsync()ed before returning (power-loss durable),
/// without it the bytes are only in the page cache until SyncWal.
Status AppendWalGroup(const std::string& path,
                      const std::vector<WalRecord>& records,
                      bool sync = true);

/// fsync()s the WAL file (the kNone/kInterval flush point).
Status SyncWal(const std::string& path);

/// The snapshot identity a WAL is bound to (its header fields).
struct WalHeaderInfo {
  uint64_t db_uid = 0;
  uint64_t base_revision = 0;
};

/// Reads and validates just the header of the WAL at `path`. Used by the
/// registry to detect a stale WAL generation (crash between snapshot
/// write and WAL reset) before committing to a full replay.
Result<WalHeaderInfo> InspectWalHeader(const std::string& path);

/// Replay summary.
struct WalReplayStats {
  long long groups_applied = 0;
  long long records_applied = 0;
  /// True if the file ended inside a record or an uncommitted group
  /// (the torn tail was discarded — the normal crash shape).
  bool truncated_tail = false;
  /// File offset just past the last committed group (the header alone
  /// when none committed). When `truncated_tail` is set the caller must
  /// truncate the file to this length before appending again — a group
  /// appended after torn bytes would be unreachable garbage that turns
  /// the next open into a checksum error.
  uint64_t clean_prefix_bytes = 0;
};

/// Replays the committed groups of the WAL at `path` onto `db`. The
/// header must match the identity of the snapshot `db` was restored
/// from (`expect_db_uid`, `expect_base_revision`); a mismatch means the
/// WAL belongs to a different snapshot generation and is a hard error.
Result<WalReplayStats> ReplayWal(const std::string& path,
                                 uint64_t expect_db_uid,
                                 uint64_t expect_base_revision, Database* db);

}  // namespace iodb::storage

#endif  // IODB_STORAGE_WAL_H_
