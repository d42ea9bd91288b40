// DurableRegistry: the persistence layer under EvaluationService.
//
// A registry binds an EvaluationService to a directory:
//
//   <dir>/vocab.iodb      the shared vocabulary (predicates in id order
//                         + the persisted vocabulary uid, so plan-cache
//                         keys — (vocab uid, plan fingerprint) — mean
//                         the same thing after a restart)
//   <dir>/<name>.snap     one snapshot per named database
//                         (storage/snapshot.h; carries the database's
//                         (uid, revision) identity)
//   <dir>/<name>.wal      the mutations appended since that snapshot
//                         (storage/wal.h; replayed on open)
//
// Open(dir) restores the vocabulary, then every named database
// (snapshot decode + WAL replay) into a fresh service — after a
// kill-and-restart, LOADed databases are back under their names with
// the identities every (uid, revision)-keyed cache expects. Database
// names are percent-encoded into file names, so any name the line
// protocol accepts is storable.
//
// Mutations flow through the registry (Load / AppendText / Compact), so
// the on-disk state always describes the in-memory state. Evaluations
// go straight to service() — the registry adds no overhead on the read
// path.
//
// Thread-safety: the registry is the one writer seam of durable
// serving. Any number of threads may call Load / Register / AppendText /
// Compact / CompactAll / Flush concurrently (with each other and with
// readers of service()); each holds the registry's writer mutex for its
// whole sequence — the mutation's parse or the persist, then the
// service's publish, then the persistence bookkeeping — so no append can
// land between a snapshot write and the fresh WAL that follows it, and
// callers supply no lock of their own. Load parses and materializes its
// database before it takes the mutex: a LOADed database is new, so no
// one can see it until it is published. The mutex admits writers in
// arrival order, so a thread that appends in a loop cannot starve a
// Compact or Flush. Lock order: the registry mutex, then
// EvaluationService's writer mutex, then its map lock. No hook the
// registry passes into the service calls back into the registry.

#ifndef IODB_STORAGE_DURABLE_REGISTRY_H_
#define IODB_STORAGE_DURABLE_REGISTRY_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "service/service.h"
#include "storage/wal.h"
#include "util/fifo_mutex.h"
#include "util/status.h"

namespace iodb::storage {

class DurableRegistry {
 public:
  /// Opens (creating the directory if needed) and restores every
  /// persisted database. Returns a pointer so the service's address is
  /// stable for the registry's lifetime. `sync` sets the WAL flush
  /// policy for appends (see WalSyncPolicy).
  ///
  /// Stale-WAL rule: a crash between a snapshot write and the WAL reset
  /// that follows it (Load / Compact are snapshot-then-WAL) leaves a new
  /// snapshot beside the previous generation's WAL. Open detects this —
  /// the WAL header's uid differs from the snapshot's, or its base
  /// revision is BEHIND the snapshot's — and discards the WAL: every
  /// group in it was applied to the live database before the snapshot
  /// captured it, so the snapshot subsumes it. A WAL whose base revision
  /// is AHEAD of the snapshot cannot arise from any crash of the
  /// snapshot-then-WAL order and stays a hard error.
  static Result<std::unique_ptr<DurableRegistry>> Open(
      const std::string& dir, ServiceOptions options = {},
      WalSyncOptions sync = {});

  /// The serving layer over the restored databases. Evaluations,
  /// batches and stats go through here unchanged.
  EvaluationService& service() { return service_; }
  const EvaluationService& service() const { return service_; }

  const std::string& dir() const { return dir_; }

  /// Parses and registers a database under `name` (replacing any
  /// previous registration) and persists it: fresh snapshot, fresh
  /// (empty) WAL, updated vocabulary sidecar. The parse and the derived
  /// structures are built first, outside the writer mutex
  /// (EvaluationService::Materialize); then Register publishes.
  Result<DbInfo> Load(const std::string& name, const std::string& text);

  /// Load's second step: publishes a database built against the service
  /// vocabulary (usually by EvaluationService::Materialize) under `name`
  /// and persists it as Load does, under the writer mutex.
  Result<DbInfo> Register(const std::string& name, Database db);

  /// Appends database-format statements to the registered database
  /// `name` as one WAL group: parses, applies to the live database, and
  /// logs the group — replay-on-open reapplies exactly the same
  /// records, so a restarted registry converges to the same content and
  /// revision.
  Result<DbInfo> AppendText(const std::string& name, const std::string& text);

  /// Folds the WAL into a fresh snapshot (write current state, reset the
  /// WAL to empty on the new base identity).
  Result<DbInfo> Compact(const std::string& name);

  /// Compacts every registered database.
  Status CompactAll();

  /// fsyncs every WAL with un-synced appends (kNone / kInterval
  /// policies; a no-op under kCommit). The serving shutdown path, and
  /// the step before a registry is dropped: the registry does not flush
  /// on destruction.
  Status Flush();

  /// Current WAL size in bytes (test/inspection hook).
  Result<uint64_t> WalBytes(const std::string& name) const;

  std::string SnapshotPath(const std::string& name) const;
  std::string WalPath(const std::string& name) const;

  /// Percent-encodes a database name into a file stem (bytes outside
  /// [A-Za-z0-9_-] become %XX), and back. Decode returns nullopt for a
  /// malformed encoding.
  static std::string EncodeDbFileName(const std::string& name);
  static std::optional<std::string> DecodeDbFileName(const std::string& stem);

 private:
  DurableRegistry(std::string dir, ServiceOptions options,
                  WalSyncOptions sync)
      : dir_(std::move(dir)),
        service_(options),
        sync_(sync),
        last_interval_flush_(std::chrono::steady_clock::now()) {}

  // The helpers below run with write_mu_ held by their public caller.
  Status PersistVocabulary();
  /// Snapshot + fresh WAL + vocabulary for the registered database.
  Result<DbInfo> PersistDatabase(const std::string& name);
  Status FlushLocked();

  std::string dir_;
  EvaluationService service_;
  WalSyncOptions sync_;
  // Serializes the writers end to end, first come first served, and
  // guards every member below.
  FifoMutex write_mu_;
  // Per database: the (uid, revision) base identity of the snapshot on
  // disk — the identity the WAL header is bound to.
  std::map<std::string, std::pair<uint64_t, uint64_t>> base_;
  // Databases whose WAL has appends not yet fsynced (kNone / kInterval).
  std::set<std::string> dirty_;
  // How many predicates the vocabulary file on disk holds; -1 when no
  // file has been read or written yet. AppendText rewrites the file only
  // when the live vocabulary holds more.
  int persisted_predicates_ = -1;
  std::chrono::steady_clock::time_point last_interval_flush_;
};

}  // namespace iodb::storage

#endif  // IODB_STORAGE_DURABLE_REGISTRY_H_
