// Failpoint framework semantics (util/failpoint.h) and its wiring into
// the storage I/O seams: skip counts, hit accounting, RAII scoping,
// injected-error unwinding through DurableRegistry, and the crash action
// (exercised via gtest death tests — the child produced by the death
// test takes the _exit(86) so this process survives).

#include "util/failpoint.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "storage/durable_registry.h"

namespace iodb {
namespace {

namespace fs = std::filesystem;

constexpr char kBaseText[] = "P(u)\nQ(v)\nu < v\n";

struct TempStore {
  std::string dir;
  explicit TempStore(const std::string& name)
      : dir((fs::path(testing::TempDir()) / name).string()) {
    fs::remove_all(dir);
  }
  ~TempStore() { fs::remove_all(dir); }
};

class FailpointTest : public testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(FailpointTest, DisarmedCheckIsOff) {
  EXPECT_EQ(failpoint::Check("never-armed"), failpoint::Action::kOff);
  EXPECT_TRUE(failpoint::CheckAndMaybeFail("never-armed").ok());
  EXPECT_EQ(failpoint::Hits("never-armed"), 0);
}

TEST_F(FailpointTest, SkipCountDelaysTrigger) {
  failpoint::Arm("fp-skip", failpoint::Action::kError, /*skip=*/2);
  EXPECT_TRUE(failpoint::CheckAndMaybeFail("fp-skip").ok());
  EXPECT_TRUE(failpoint::CheckAndMaybeFail("fp-skip").ok());
  Status third = failpoint::CheckAndMaybeFail("fp-skip");
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(third.message().find("fp-skip"), std::string::npos)
      << third.message();
  // Once triggered it keeps firing.
  EXPECT_FALSE(failpoint::CheckAndMaybeFail("fp-skip").ok());
  EXPECT_EQ(failpoint::Hits("fp-skip"), 4);
}

TEST_F(FailpointTest, DisarmStopsTriggerAndRearmResetsHits) {
  failpoint::Arm("fp-rearm", failpoint::Action::kError);
  EXPECT_FALSE(failpoint::CheckAndMaybeFail("fp-rearm").ok());
  failpoint::Disarm("fp-rearm");
  EXPECT_TRUE(failpoint::CheckAndMaybeFail("fp-rearm").ok());
  // Re-arming with a skip starts counting from zero again.
  failpoint::Arm("fp-rearm", failpoint::Action::kError, /*skip=*/1);
  EXPECT_TRUE(failpoint::CheckAndMaybeFail("fp-rearm").ok());
  EXPECT_FALSE(failpoint::CheckAndMaybeFail("fp-rearm").ok());
}

TEST_F(FailpointTest, ScopedArmsAndDisarms) {
  {
    failpoint::Scoped scoped("fp-scoped", failpoint::Action::kError);
    EXPECT_FALSE(failpoint::CheckAndMaybeFail("fp-scoped").ok());
  }
  EXPECT_TRUE(failpoint::CheckAndMaybeFail("fp-scoped").ok());
}

TEST_F(FailpointTest, CrashActionExitsWithDistinctiveCode) {
  EXPECT_EXIT(
      {
        failpoint::Arm("fp-crash", failpoint::Action::kCrash);
        (void)failpoint::CheckAndMaybeFail("fp-crash");
      },
      testing::ExitedWithCode(failpoint::kCrashExitCode), "");
}

TEST_F(FailpointTest, CheckReturnsCrashWithoutExecutingIt) {
  // Torn-write seams must be able to stage a partial write between the
  // decision and the crash: Check() only reports the action.
  failpoint::Arm("fp-torn", failpoint::Action::kCrash);
  EXPECT_EQ(failpoint::Check("fp-torn"), failpoint::Action::kCrash);
  failpoint::Disarm("fp-torn");
}

// --- Storage-seam wiring ---------------------------------------------------

TEST_F(FailpointTest, WalAppendErrorUnwindsThroughRegistry) {
  TempStore store("failpoint_wal_error");
  Result<std::unique_ptr<storage::DurableRegistry>> registry =
      storage::DurableRegistry::Open(store.dir, {});
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  ASSERT_TRUE(registry.value()->Load("t", kBaseText).ok());

  {
    failpoint::Scoped scoped("wal-append-before-write",
                             failpoint::Action::kError);
    Result<DbInfo> info =
        registry.value()->AppendText("t", "P(w)\nv < w\n");
    ASSERT_FALSE(info.ok());
    EXPECT_NE(info.status().message().find("wal-append-before-write"),
              std::string::npos)
        << info.status().ToString();
  }
  // Disarmed, the same append goes through.
  EXPECT_TRUE(registry.value()->AppendText("t", "P(w2)\nv < w2\n").ok());
}

TEST_F(FailpointTest, TornAppendLeavesRecoverablePrefix) {
  TempStore store("failpoint_wal_torn");
  {
    Result<std::unique_ptr<storage::DurableRegistry>> registry =
        storage::DurableRegistry::Open(store.dir, {});
    ASSERT_TRUE(registry.ok()) << registry.status().ToString();
    ASSERT_TRUE(registry.value()->Load("t", kBaseText).ok());
    ASSERT_TRUE(registry.value()->AppendText("t", "P(w)\nv < w\n").ok());
    // The error flavor of the torn seam writes HALF the group bytes,
    // fsyncs them, and reports an injected status — the on-disk WAL now
    // genuinely ends in a torn group.
    failpoint::Scoped scoped("wal-append-torn", failpoint::Action::kError);
    Result<DbInfo> info =
        registry.value()->AppendText("t", "Q(x)\nw < x\n");
    ASSERT_FALSE(info.ok());
    EXPECT_NE(info.status().message().find("wal-append-torn"),
              std::string::npos)
        << info.status().ToString();
  }
  // Reopen: replay must stop at the checksum-clean prefix (the first
  // append survives, the torn group is discarded and truncated away).
  Result<std::unique_ptr<storage::DurableRegistry>> reopened =
      storage::DurableRegistry::Open(store.dir, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EvaluationService::DatabasePtr db = reopened.value()->service().Snapshot("t");
  ASSERT_NE(db, nullptr);
  // Base (u, v) plus the first append's w; the torn x never happened.
  EXPECT_EQ(db->num_order_constants(), 3);
  // The torn tail was truncated, so a fresh append lands cleanly.
  ASSERT_TRUE(reopened.value()->AppendText("t", "Q(y)\nw < y\n").ok());
  Result<std::unique_ptr<storage::DurableRegistry>> again =
      storage::DurableRegistry::Open(store.dir, {});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value()->service().Snapshot("t")->num_order_constants(), 4);
}

TEST_F(FailpointTest, SnapshotErrorLeavesPreviousSnapshotIntact) {
  TempStore store("failpoint_snap_error");
  Result<std::unique_ptr<storage::DurableRegistry>> registry =
      storage::DurableRegistry::Open(store.dir, {});
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  ASSERT_TRUE(registry.value()->Load("t", kBaseText).ok());
  ASSERT_TRUE(registry.value()->AppendText("t", "P(w)\nv < w\n").ok());

  {
    // The torn flavor writes half the tmp file then errors: the real
    // snapshot must be untouched because the write goes to a tmp path
    // that is only renamed over the target after a successful fsync.
    failpoint::Scoped scoped("snapshot-write-torn", failpoint::Action::kError);
    EXPECT_FALSE(registry.value()->Compact("t").ok());
  }
  registry.value().reset();

  Result<std::unique_ptr<storage::DurableRegistry>> reopened =
      storage::DurableRegistry::Open(store.dir, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EvaluationService::DatabasePtr db = reopened.value()->service().Snapshot("t");
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->num_order_constants(), 3);
}

TEST_F(FailpointTest, RegistryOpenFailpointInjects) {
  TempStore store("failpoint_open");
  failpoint::Scoped scoped("registry-open", failpoint::Action::kError);
  Result<std::unique_ptr<storage::DurableRegistry>> registry =
      storage::DurableRegistry::Open(store.dir, {});
  ASSERT_FALSE(registry.ok());
  EXPECT_NE(registry.status().message().find("registry-open"),
            std::string::npos);
}

}  // namespace
}  // namespace iodb
