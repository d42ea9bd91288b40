// DurableRegistry tests (storage/durable_registry.h): kill-and-restart
// semantics. A registry opened on the directory of a previous registry
// must restore every named database with identical content AND
// identical identity — database (uid, revision) and the shared
// vocabulary uid — so plan fingerprints and every (uid, revision)-keyed
// cache mean the same thing after the restart.

#include "storage/durable_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/snapshot.h"
#include "util/failpoint.h"
#include "util/fifo_mutex.h"

namespace iodb {
namespace {

namespace fs = std::filesystem;

using storage::DurableRegistry;

// Fresh directory per test, removed on destruction.
struct TempStore {
  explicit TempStore(const std::string& name)
      : path(testing::TempDir() + "/iodb_registry_" + name) {
    fs::remove_all(path);
  }
  ~TempStore() { fs::remove_all(path); }
  std::string path;
};

Result<std::unique_ptr<DurableRegistry>> OpenStore(const TempStore& store) {
  return DurableRegistry::Open(store.path);
}

constexpr char kBaseText[] = "P(u)\nQ(v)\nu < v\n";
constexpr char kQuery[] = "exists t1 t2: P(t1) & t1 < t2 & Q(t2)";

TEST(DurableRegistry, LoadPersistsAndReopenRestoresIdentity) {
  TempStore store("load_reopen");
  uint64_t uid = 0, revision = 0, vocab_uid = 0;
  {
    Result<std::unique_ptr<DurableRegistry>> registry = OpenStore(store);
    ASSERT_TRUE(registry.ok()) << registry.status().ToString();
    Result<DbInfo> info = registry.value()->Load("base", kBaseText);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info.value().atoms, 3);
    uid = info.value().uid;
    revision = info.value().revision;
    vocab_uid = registry.value()->service().vocab()->uid();

    EvalRequest request;
    request.db = "base";
    request.query = kQuery;
    Result<EvalResponse> response = registry.value()->service().Eval(request);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response.value().entailed);
  }  // registry destroyed = process killed

  Result<std::unique_ptr<DurableRegistry>> reopened = OpenStore(store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->service().database_names(),
            std::vector<std::string>{"base"});
  EvaluationService::DatabasePtr db =
      reopened.value()->service().Snapshot("base");
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->uid(), uid);
  EXPECT_EQ(db->revision(), revision);
  EXPECT_EQ(reopened.value()->service().vocab()->uid(), vocab_uid);

  EvalRequest request;
  request.db = "base";
  request.query = kQuery;
  Result<EvalResponse> response = reopened.value()->service().Eval(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response.value().entailed);
}

TEST(DurableRegistry, AppendTextIsWalLoggedAndReplayed) {
  TempStore store("append_replay");
  uint64_t live_revision = 0;
  int live_atoms = 0;
  {
    Result<std::unique_ptr<DurableRegistry>> registry = OpenStore(store);
    ASSERT_TRUE(registry.ok());
    ASSERT_TRUE(registry.value()->Load("base", kBaseText).ok());
    Result<DbInfo> info =
        registry.value()->AppendText("base", "R(w)\nv < w\n");
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info.value().atoms, 5);
    Result<DbInfo> info2 = registry.value()->AppendText("base", "P(w)\n");
    ASSERT_TRUE(info2.ok());
    live_revision = info2.value().revision;
    live_atoms = info2.value().atoms;
    // Two groups in the WAL beyond the header.
    Result<uint64_t> wal_bytes = registry.value()->WalBytes("base");
    ASSERT_TRUE(wal_bytes.ok());
    EXPECT_GT(wal_bytes.value(), 40u);
  }

  Result<std::unique_ptr<DurableRegistry>> reopened = OpenStore(store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EvaluationService::DatabasePtr db =
      reopened.value()->service().Snapshot("base");
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->SizeAtoms(), live_atoms);
  EXPECT_EQ(db->revision(), live_revision);

  EvalRequest request;
  request.db = "base";
  request.query = "exists t: R(t) & P(t)";
  Result<EvalResponse> response = reopened.value()->service().Eval(request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().entailed);  // w carries both R and P
}

// The vocabulary file is rewritten only when the live vocabulary holds
// predicates the file lacks, and a failed rewrite is retried by the next
// append even when that append registers nothing new.
TEST(DurableRegistry, VocabularySaveRetriedAfterFailure) {
  TempStore store("vocab_retry");
  // The vocabulary save is the append path's only atomic file write.
  const char* kVocabWrite = "snapshot-write-before-tmp";
  {
    Result<std::unique_ptr<DurableRegistry>> registry = OpenStore(store);
    ASSERT_TRUE(registry.ok());
    ASSERT_TRUE(registry.value()->Load("base", kBaseText).ok());
    {
      failpoint::Scoped fail(kVocabWrite, failpoint::Action::kError);
      // R is new: the save fails, so the append must fail unlogged.
      EXPECT_FALSE(
          registry.value()->AppendText("base", "R(w)\nv < w\n").ok());
    }
    const long long hits = failpoint::Hits(kVocabWrite);
    // R is registered now, but the file still lacks it: rewritten here.
    Result<DbInfo> retried =
        registry.value()->AppendText("base", "R(v)\nu < v\n");
    ASSERT_TRUE(retried.ok()) << retried.status().ToString();
    EXPECT_EQ(failpoint::Hits(kVocabWrite), hits + 1);
    Vocabulary on_disk;
    ASSERT_TRUE(
        storage::RestoreVocabularyInto(store.path + "/vocab.iodb", &on_disk)
            .ok());
    EXPECT_EQ(on_disk.FindPredicate("R"),
              registry.value()->service().vocab()->FindPredicate("R"));
    // Nothing new: the file is left alone.
    ASSERT_TRUE(registry.value()->AppendText("base", "P(v)\nu < v\n").ok());
    EXPECT_EQ(failpoint::Hits(kVocabWrite), hits + 1);
  }
  failpoint::DisarmAll();

  Result<std::unique_ptr<DurableRegistry>> reopened = OpenStore(store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EvaluationService::DatabasePtr db =
      reopened.value()->service().Snapshot("base");
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->SizeAtoms(), 7);  // the failed append left no trace
  EvalRequest request;
  request.db = "base";
  request.query = "exists t: R(t) & P(t) & Q(t)";
  Result<EvalResponse> response = reopened.value()->service().Eval(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response.value().entailed);  // v carries R, P and Q
}

TEST(DurableRegistry, CompactFoldsWalAndPreservesState) {
  TempStore store("compact");
  int live_atoms = 0;
  uint64_t live_revision = 0;
  {
    Result<std::unique_ptr<DurableRegistry>> registry = OpenStore(store);
    ASSERT_TRUE(registry.ok());
    ASSERT_TRUE(registry.value()->Load("base", kBaseText).ok());
    ASSERT_TRUE(registry.value()->AppendText("base", "R(w)\nv < w\n").ok());
    Result<uint64_t> before = registry.value()->WalBytes("base");
    ASSERT_TRUE(before.ok());
    Result<DbInfo> info = registry.value()->Compact("base");
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    live_atoms = info.value().atoms;
    live_revision = info.value().revision;
    Result<uint64_t> after = registry.value()->WalBytes("base");
    ASSERT_TRUE(after.ok());
    EXPECT_LT(after.value(), before.value());  // log folded into snapshot
  }
  Result<std::unique_ptr<DurableRegistry>> reopened = OpenStore(store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EvaluationService::DatabasePtr db =
      reopened.value()->service().Snapshot("base");
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->SizeAtoms(), live_atoms);
  EXPECT_EQ(db->revision(), live_revision);
}

TEST(DurableRegistry, MultipleDatabasesShareOneVocabulary) {
  TempStore store("multi");
  {
    Result<std::unique_ptr<DurableRegistry>> registry = OpenStore(store);
    ASSERT_TRUE(registry.ok());
    // `u <= u` marks u as an order constant, so P registers as an
    // order predicate both databases can share.
    ASSERT_TRUE(registry.value()->Load("alpha", "P(u)\nu <= u\n").ok());
    ASSERT_TRUE(registry.value()->Load("beta", "P(x)\nQ(y)\nx < y\n").ok());
  }
  Result<std::unique_ptr<DurableRegistry>> reopened = OpenStore(store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->service().database_names(),
            (std::vector<std::string>{"alpha", "beta"}));
  // One shared vocabulary: predicate ids comparable across databases.
  EXPECT_EQ(reopened.value()->service().Snapshot("alpha")->vocab().get(),
            reopened.value()->service().Snapshot("beta")->vocab().get());
  // A plan compiled once serves both (smoke: both answer).
  EvalRequest request;
  request.db = "alpha";
  request.query = "exists t: P(t)";
  EXPECT_TRUE(reopened.value()->service().Eval(request).ok());
  request.db = "beta";
  EXPECT_TRUE(reopened.value()->service().Eval(request).ok());
}

TEST(DurableRegistry, LoadReplacesAndRestartSeesTheReplacement) {
  TempStore store("replace");
  uint64_t second_uid = 0;
  {
    Result<std::unique_ptr<DurableRegistry>> registry = OpenStore(store);
    ASSERT_TRUE(registry.ok());
    ASSERT_TRUE(registry.value()->Load("base", kBaseText).ok());
    Result<DbInfo> info = registry.value()->Load("base", "P(only)\n");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.value().atoms, 1);
    second_uid = info.value().uid;
  }
  Result<std::unique_ptr<DurableRegistry>> reopened = OpenStore(store);
  ASSERT_TRUE(reopened.ok());
  EvaluationService::DatabasePtr db =
      reopened.value()->service().Snapshot("base");
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->SizeAtoms(), 1);
  EXPECT_EQ(db->uid(), second_uid);
}

TEST(DurableRegistry, HostileDatabaseNamesAreEncodedSafely) {
  TempStore store("names");
  const std::string hostile = "../we ird/na%me.snap";
  {
    Result<std::unique_ptr<DurableRegistry>> registry = OpenStore(store);
    ASSERT_TRUE(registry.ok());
    Result<DbInfo> info = registry.value()->Load(hostile, "P(u)\n");
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    // The file landed INSIDE the store directory.
    EXPECT_TRUE(fs::exists(registry.value()->SnapshotPath(hostile)));
    EXPECT_EQ(fs::path(registry.value()->SnapshotPath(hostile))
                  .parent_path()
                  .string(),
              store.path);
  }
  Result<std::unique_ptr<DurableRegistry>> reopened = OpenStore(store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_NE(reopened.value()->service().Snapshot(hostile), nullptr);
}

TEST(DurableRegistry, FileNameEncodingRoundTrips) {
  const std::string names[] = {"base", "a b", "../x", "emoji\xF0\x9F\x8C\x90",
                               "%25", "UPPER_lower-123"};
  for (const std::string& name : names) {
    const std::string encoded = DurableRegistry::EncodeDbFileName(name);
    for (char c : encoded) {
      EXPECT_TRUE((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '%')
          << "unsafe byte in encoding of '" << name << "'";
    }
    EXPECT_EQ(DurableRegistry::DecodeDbFileName(encoded), name);
  }
  EXPECT_FALSE(DurableRegistry::DecodeDbFileName("bad%zz").has_value());
  EXPECT_FALSE(DurableRegistry::DecodeDbFileName("trunc%4").has_value());
  EXPECT_FALSE(DurableRegistry::DecodeDbFileName("sp ace").has_value());
}

TEST(DurableRegistry, AppendToUnknownDatabaseFails) {
  TempStore store("unknown");
  Result<std::unique_ptr<DurableRegistry>> registry = OpenStore(store);
  ASSERT_TRUE(registry.ok());
  EXPECT_FALSE(registry.value()->AppendText("nosuch", "P(u)\n").ok());
  EXPECT_FALSE(registry.value()->Compact("nosuch").ok());
}

TEST(DurableRegistry, TornWalTailIsTruncatedSoAppendsStayReachable) {
  // Crash model: a group append torn mid-write. Open must drop the torn
  // bytes, so a post-recovery append lands after the clean prefix and
  // the NEXT open still succeeds — an append after garbage would be
  // acknowledged and then unreachable forever.
  TempStore store("torn_tail");
  {
    Result<std::unique_ptr<DurableRegistry>> registry = OpenStore(store);
    ASSERT_TRUE(registry.ok());
    ASSERT_TRUE(registry.value()->Load("base", kBaseText).ok());
    ASSERT_TRUE(registry.value()->AppendText("base", "R(w)\nv < w\n").ok());
  }
  const std::string wal_path =
      (fs::path(store.path) / "base.wal").string();
  const uint64_t full_size = fs::file_size(wal_path);
  fs::resize_file(wal_path, full_size - 3);  // tear the last record

  int recovered_atoms = 0;
  {
    Result<std::unique_ptr<DurableRegistry>> reopened = OpenStore(store);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    recovered_atoms = reopened.value()->service().Snapshot("base")->SizeAtoms();
    EXPECT_LT(fs::file_size(wal_path), full_size - 3);  // tail dropped
    Result<DbInfo> info =
        reopened.value()->AppendText("base", "S(x)\nw < x\n");
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info.value().atoms, recovered_atoms + 2);
  }
  // The open after the post-recovery append must see everything.
  Result<std::unique_ptr<DurableRegistry>> again = OpenStore(store);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value()->service().Snapshot("base")->SizeAtoms(),
            recovered_atoms + 2);
  EvalRequest request;
  request.db = "base";
  request.query = "exists t: S(t)";
  Result<EvalResponse> response = again.value()->service().Eval(request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().entailed);
}

TEST(DurableRegistry, CorruptSnapshotSurfacesAsAnOpenError) {
  TempStore store("corrupt");
  {
    Result<std::unique_ptr<DurableRegistry>> registry = OpenStore(store);
    ASSERT_TRUE(registry.ok());
    ASSERT_TRUE(registry.value()->Load("base", kBaseText).ok());
  }
  // Flip a byte in the snapshot body.
  const std::string snap_path =
      (fs::path(store.path) / "base.snap").string();
  Result<std::string> bytes = storage::ReadFileBytes(snap_path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = bytes.value();
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x5A);
  ASSERT_TRUE(storage::WriteFileAtomic(snap_path, corrupt).ok());
  Result<std::unique_ptr<DurableRegistry>> reopened = OpenStore(store);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().message().find("base"), std::string::npos);
}

// The registry serializes its own writes, so concurrent callers need no
// lock: appenders on two databases, a Compact loop on one of them and a
// Flush loop under kInterval race, and the reopened registry must
// restore exactly the live state. An append that lands between a
// Compact's snapshot and the fresh WAL after it would be lost on
// restart (the WAL reset drops it, the snapshot never saw it).
// The registry's writer mutex admits waiters in arrival order: a thread
// that holds the mutex for a while, unlocks and at once relocks, in a
// loop, queues behind a waiter instead of overtaking it. With std::mutex
// such a loop can shut a waiter out for good; the test below then never
// sees its compacts through. The loop gives up after kMaxLaps.
TEST(FifoMutexTest, ARelockingLoopDoesNotStarveAWaiter) {
  constexpr int kMaxLaps = 5000;
  FifoMutex mu;
  std::atomic<bool> waiter_done{false};
  std::atomic<int> laps{0};
  std::thread looper([&] {
    while (!waiter_done.load() && laps.load() < kMaxLaps) {
      std::lock_guard<FifoMutex> lock(mu);
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::microseconds(100);
      while (std::chrono::steady_clock::now() < until) {
      }
      ++laps;
    }
  });
  while (laps.load() == 0) std::this_thread::yield();
  {
    std::lock_guard<FifoMutex> lock(mu);
    waiter_done = true;
  }
  looper.join();
  EXPECT_LT(laps.load(), kMaxLaps);
}

TEST(DurableRegistry, ConcurrentWritersRestoreTheLiveState) {
  TempStore store("concurrent_writers");
  storage::WalSyncOptions sync;
  sync.policy = storage::WalSyncPolicy::kInterval;
  sync.interval_ms = 1;
  Result<std::unique_ptr<DurableRegistry>> registry =
      DurableRegistry::Open(store.path, ServiceOptions{}, sync);
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  DurableRegistry& live = *registry.value();
  const std::vector<std::string> names = {"left", "right"};
  for (const std::string& name : names) {
    ASSERT_TRUE(live.Load(name, kBaseText).ok());
  }

  // The appenders keep going until the compactor is done, so every
  // Compact races appends in flight; the Flush loop runs throughout.
  constexpr int kAppends = 200;
  constexpr int kCompacts = 40;
  std::atomic<int> failures{0};
  std::atomic<int> compacts{0};
  std::atomic<bool> appending{true};
  std::vector<std::thread> appenders;
  for (const std::string& name : names) {
    appenders.emplace_back([&, name] {
      for (int i = 0; i < kAppends || compacts.load() < kCompacts; ++i) {
        const std::string text = "P(" + name + std::to_string(i) + ")\n";
        if (!live.AppendText(name, text).ok()) ++failures;
      }
    });
  }
  std::thread compactor([&] {
    while (compacts.load() < kCompacts) {
      if (!live.Compact("left").ok()) ++failures;
      ++compacts;
    }
  });
  std::thread flusher([&] {
    while (appending.load(std::memory_order_acquire)) {
      if (!live.Flush().ok()) ++failures;
      std::this_thread::yield();
    }
  });
  compactor.join();
  for (std::thread& appender : appenders) appender.join();
  appending.store(false, std::memory_order_release);
  flusher.join();
  EXPECT_EQ(failures.load(), 0);

  std::vector<DbInfo> expected;
  for (const std::string& name : names) {
    EvaluationService::DatabasePtr db = live.service().Snapshot(name);
    ASSERT_NE(db, nullptr);
    EXPECT_GE(db->SizeAtoms(), 3 + kAppends);
    expected.push_back(DbInfo{name, db->SizeAtoms(), db->uid(),
                              db->revision()});
  }
  ASSERT_TRUE(live.Flush().ok());
  registry.value().reset();

  Result<std::unique_ptr<DurableRegistry>> reopened = OpenStore(store);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (const DbInfo& info : expected) {
    EvaluationService::DatabasePtr db =
        reopened.value()->service().Snapshot(info.name);
    ASSERT_NE(db, nullptr) << info.name;
    EXPECT_EQ(db->SizeAtoms(), info.atoms) << info.name;
    EXPECT_EQ(db->uid(), info.uid) << info.name;
    EXPECT_EQ(db->revision(), info.revision) << info.name;
  }
}

}  // namespace
}  // namespace iodb
