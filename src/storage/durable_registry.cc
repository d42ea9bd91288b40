#include "storage/durable_registry.h"

#include <algorithm>
#include <filesystem>

#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/failpoint.h"

namespace iodb::storage {

namespace fs = std::filesystem;

namespace {

constexpr char kVocabFileName[] = "vocab.iodb";
constexpr char kSnapshotSuffix[] = ".snap";
constexpr char kWalSuffix[] = ".wal";

bool IsPlainByte(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

std::string DurableRegistry::EncodeDbFileName(const std::string& name) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if (IsPlainByte(c)) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xF]);
      out.push_back(kHex[static_cast<unsigned char>(c) & 0xF]);
    }
  }
  return out;
}

std::optional<std::string> DurableRegistry::DecodeDbFileName(
    const std::string& stem) {
  std::string out;
  out.reserve(stem.size());
  for (size_t i = 0; i < stem.size(); ++i) {
    char c = stem[i];
    if (c == '%') {
      if (i + 2 >= stem.size()) return std::nullopt;
      int hi = HexValue(stem[i + 1]);
      int lo = HexValue(stem[i + 2]);
      if (hi < 0 || lo < 0) return std::nullopt;
      out.push_back(static_cast<char>((hi << 4) | lo));
      i += 2;
    } else if (IsPlainByte(c)) {
      out.push_back(c);
    } else {
      return std::nullopt;
    }
  }
  return out;
}

std::string DurableRegistry::SnapshotPath(const std::string& name) const {
  return (fs::path(dir_) / (EncodeDbFileName(name) + kSnapshotSuffix))
      .string();
}

std::string DurableRegistry::WalPath(const std::string& name) const {
  return (fs::path(dir_) / (EncodeDbFileName(name) + kWalSuffix)).string();
}

Result<std::unique_ptr<DurableRegistry>> DurableRegistry::Open(
    const std::string& dir, ServiceOptions options, WalSyncOptions sync) {
  Status fp = failpoint::CheckAndMaybeFail("registry-open");
  if (!fp.ok()) return fp;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::InvalidArgument("cannot create directory '" + dir +
                                   "': " + ec.message());
  }
  std::unique_ptr<DurableRegistry> registry(
      new DurableRegistry(dir, options, sync));

  // 1. The vocabulary sidecar pins predicate ids and the vocabulary uid
  //    before any database or plan touches the service vocabulary.
  const std::string vocab_path =
      (fs::path(dir) / kVocabFileName).string();
  if (fs::exists(vocab_path)) {
    Status status = RestoreVocabularyInto(
        vocab_path, registry->service_.vocab().get());
    if (!status.ok()) return status;
    registry->persisted_predicates_ =
        registry->service_.vocab()->num_predicates();
  }

  // 2. Restore databases in sorted-name order (deterministic open).
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& path = entry.path();
    if (path.extension() != kSnapshotSuffix) continue;
    std::optional<std::string> name = DecodeDbFileName(path.stem().string());
    if (!name.has_value()) {
      return Status::InvalidArgument("unrecognized snapshot file name '" +
                                     path.filename().string() + "'");
    }
    names.push_back(std::move(*name));
  }
  std::sort(names.begin(), names.end());

  for (const std::string& name : names) {
    Result<Database> db = OpenSnapshotInto(registry->SnapshotPath(name),
                                           registry->service_.vocab());
    if (!db.ok()) {
      return Status(db.status().code(), "database '" + name + "': " +
                                            db.status().message());
    }
    const uint64_t base_uid = db.value().uid();
    const uint64_t base_revision = db.value().revision();
    const std::string wal_path = registry->WalPath(name);
    bool have_wal = fs::exists(wal_path);
    if (have_wal) {
      // Stale-generation check (see the Open doc comment): a crash
      // between SaveSnapshot and CreateWal leaves the previous
      // generation's WAL beside the new snapshot. Its groups were all
      // applied to the live database before the snapshot captured it,
      // so the snapshot subsumes them: discard and start a fresh WAL. A
      // base revision AHEAD of the snapshot is impossible under the
      // snapshot-then-WAL write order and stays a hard error (it falls
      // through to ReplayWal's identity check).
      Result<WalHeaderInfo> header = InspectWalHeader(wal_path);
      if (!header.ok()) {
        return Status(header.status().code(), "database '" + name + "': " +
                                                  header.status().message());
      }
      if (header.value().db_uid != base_uid ||
          header.value().base_revision < base_revision) {
        have_wal = false;
      }
    }
    if (have_wal) {
      Result<WalReplayStats> replay =
          ReplayWal(wal_path, base_uid, base_revision, &db.value());
      if (!replay.ok()) {
        return Status(replay.status().code(), "database '" + name + "': " +
                                                  replay.status().message());
      }
      if (replay.value().truncated_tail) {
        // Drop the torn bytes NOW: an append after them would commit a
        // group the next open can never reach past the damage.
        fs::resize_file(wal_path, replay.value().clean_prefix_bytes, ec);
        if (ec) {
          return Status::InvalidArgument(
              "database '" + name + "': cannot truncate torn WAL tail: " +
              ec.message());
        }
      }
    } else {
      Status status = CreateWal(wal_path, base_uid, base_revision);
      if (!status.ok()) return status;
    }
    Result<DbInfo> info =
        registry->service_.Register(name, std::move(db.value()));
    if (!info.ok()) return info.status();
    registry->base_[name] = {base_uid, base_revision};
  }
  return registry;
}

Status DurableRegistry::PersistVocabulary() {
  // Count first: a predicate registered while the file is encoded may or
  // may not be in it, and must count as not persisted.
  const int predicates = service_.vocab()->num_predicates();
  Status status = SaveVocabulary(*service_.vocab(),
                                 (fs::path(dir_) / kVocabFileName).string());
  if (status.ok()) persisted_predicates_ = predicates;
  return status;
}

Result<DbInfo> DurableRegistry::PersistDatabase(const std::string& name) {
  // Pin the published version: the snapshot on disk must be internally
  // consistent even if a writer publishes while we serialize.
  EvaluationService::DatabasePtr db = service_.Snapshot(name);
  if (db == nullptr) {
    return Status::InvalidArgument("unknown database '" + name + "'");
  }
  Status status = SaveSnapshot(*db, SnapshotPath(name));
  if (!status.ok()) return status;
  status = CreateWal(WalPath(name), db->uid(), db->revision());
  if (!status.ok()) return status;
  status = PersistVocabulary();
  if (!status.ok()) return status;
  base_[name] = {db->uid(), db->revision()};
  // The fresh WAL was written atomically and fsynced; nothing un-synced
  // remains for this database.
  dirty_.erase(name);
  return DbInfo{name, db->SizeAtoms(), db->uid(), db->revision()};
}

Result<DbInfo> DurableRegistry::Load(const std::string& name,
                                     const std::string& text) {
  if (name.empty()) {
    return Status::InvalidArgument("database name must be nonempty");
  }
  Result<Database> db = service_.Materialize(text);
  if (!db.ok()) return db.status();
  return Register(name, std::move(db.value()));
}

Result<DbInfo> DurableRegistry::Register(const std::string& name,
                                         Database db) {
  std::lock_guard<FifoMutex> lock(write_mu_);
  Result<DbInfo> info = service_.Register(name, std::move(db));
  if (!info.ok()) return info;
  return PersistDatabase(name);
}

Result<DbInfo> DurableRegistry::AppendText(const std::string& name,
                                           const std::string& text) {
  std::lock_guard<FifoMutex> lock(write_mu_);
  Result<std::vector<WalRecord>> records =
      ParseMutationText(text, service_.vocab());
  if (!records.ok()) return records.status();
  // Persist the vocabulary before anything that could reference a new
  // predicate is durable. The test is against what the file last held,
  // not against what this parse registered: a save that failed on an
  // earlier append is retried here.
  if (service_.vocab()->num_predicates() > persisted_predicates_) {
    Status status = PersistVocabulary();
    if (!status.ok()) return status;
  }
  // Single-writer publish path: the mutation is applied to a fork of the
  // published version first (a record the database rejects — e.g. a sort
  // clash with existing constants — must never reach the log, or replay
  // would diverge), WAL-logged once it is known good, and only then
  // republished. A group that fails to log never becomes visible to
  // readers; a crash between log and publish re-applies the group from
  // the WAL on the next open, converging to the same content. Readers
  // keep serving the old version throughout.
  Result<DbInfo> info = service_.Mutate(
      name,
      [&](Database* db) { return ApplyWalRecords(records.value(), db); },
      [&](const Database&) {
        return AppendWalGroup(WalPath(name), records.value(),
                              sync_.policy == WalSyncPolicy::kCommit);
      });
  if (!info.ok()) return info;
  if (sync_.policy != WalSyncPolicy::kCommit) {
    dirty_.insert(name);
    if (sync_.policy == WalSyncPolicy::kInterval &&
        std::chrono::steady_clock::now() - last_interval_flush_ >=
            std::chrono::milliseconds(sync_.interval_ms)) {
      Status flush = FlushLocked();
      if (!flush.ok()) return flush;
    }
  }
  return info;
}

Status DurableRegistry::Flush() {
  std::lock_guard<FifoMutex> lock(write_mu_);
  return FlushLocked();
}

Status DurableRegistry::FlushLocked() {
  while (!dirty_.empty()) {
    const std::string name = *dirty_.begin();
    Status status = SyncWal(WalPath(name));
    if (!status.ok()) return status;
    dirty_.erase(name);
  }
  last_interval_flush_ = std::chrono::steady_clock::now();
  return Status::Ok();
}

Result<DbInfo> DurableRegistry::Compact(const std::string& name) {
  std::lock_guard<FifoMutex> lock(write_mu_);
  return PersistDatabase(name);
}

Status DurableRegistry::CompactAll() {
  std::lock_guard<FifoMutex> lock(write_mu_);
  for (const std::string& name : service_.database_names()) {
    Result<DbInfo> info = PersistDatabase(name);
    if (!info.ok()) return info.status();
  }
  return Status::Ok();
}

Result<uint64_t> DurableRegistry::WalBytes(const std::string& name) const {
  std::error_code ec;
  uint64_t size = fs::file_size(WalPath(name), ec);
  if (ec) {
    return Status::InvalidArgument("cannot stat WAL of '" + name +
                                   "': " + ec.message());
  }
  return size;
}

}  // namespace iodb::storage
