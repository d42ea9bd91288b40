// Crash-torture harness for the storage layer.
//
// Each schedule forks a child that runs a deterministic seeded workload
// (LOAD + APPENDs + COMPACTs under a seeded WAL flush policy) against a
// fresh directory and dies mid-flight: either a kCrash failpoint from
// the storage catalog armed at a seeded skip position (simulating a
// power cut inside an I/O sequence, torn bytes included), a raw SIGKILL
// between operations, or — some schedules — not at all. The parent then
// asserts the recovery contract:
//
//   1. DurableRegistry::Open succeeds on whatever the child left behind;
//   2. the recovered database is a CONSISTENT PREFIX of the workload:
//      its (revision, canonical text) equals some prefix state of a
//      parent-side mirror replay of the same seeded operations;
//   3. recovery is a fixpoint with identity intact: compact + reopen +
//      recompact re-encodes the snapshot and the vocabulary sidecar
//      byte-identically (the snapshot bytes carry uid and revision, so
//      byte equality pins the identity too).
//
// The schedule count comes from IODB_TORTURE_ITERATIONS (the CI
// crash-torture job runs >= 1000); a failing seed is printed in every
// assertion message and reruns with the same build + seed range.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/parser.h"
#include "core/printer.h"
#include "storage/durable_registry.h"
#include "storage/wal.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace iodb {
namespace {

namespace fs = std::filesystem;

constexpr char kBaseText[] = "P(u)\nQ(v)\nu < v\n";
constexpr char kDbName[] = "t";

// The storage failpoint catalog (docs/ROBUSTNESS.md).
constexpr const char* kCatalog[] = {
    "wal-append-before-write", "wal-append-torn",
    "wal-append-before-sync",  "wal-append-after-sync",
    "snapshot-write-before-tmp", "snapshot-write-torn",
    "snapshot-before-rename",  "snapshot-after-rename",
    "registry-open",
};
constexpr int kCatalogSize = static_cast<int>(std::size(kCatalog));

// One deterministic workload step. The statement text is a function of
// the step index alone, so the parent can mirror the child exactly.
struct Op {
  bool is_compact = false;
  std::string text;
};

std::vector<Op> MakeOps(uint64_t seed) {
  Rng rng(seed);
  const int n = rng.UniformInt(4, 10);
  std::vector<Op> ops;
  for (int i = 0; i < n; ++i) {
    if (rng.UniformInt(0, 3) == 0) {
      ops.push_back({true, ""});
    } else {
      const std::string a = "x" + std::to_string(i) + "a";
      const std::string b = "x" + std::to_string(i) + "b";
      ops.push_back(
          {false, "P(" + a + ")\nQ(" + b + ")\n" + a + " < " + b + "\n"});
    }
  }
  return ops;
}

// The seeded crash schedule (an rng stream independent of MakeOps, so
// the operation list never depends on the fault placement).
struct Schedule {
  storage::WalSyncOptions sync;
  enum class Fault { kFailpoint, kSigkill, kNone } fault = Fault::kNone;
  const char* failpoint = nullptr;
  long long failpoint_skip = 0;
  int kill_before_op = 0;  // kSigkill: raise before this op index
};

Schedule MakeSchedule(uint64_t seed, int num_ops) {
  Rng rng(seed ^ 0xDEADBEEFCAFEF00DULL);
  Schedule schedule;
  switch (rng.UniformInt(0, 2)) {
    case 0:
      schedule.sync.policy = storage::WalSyncPolicy::kCommit;
      break;
    case 1:
      schedule.sync.policy = storage::WalSyncPolicy::kNone;
      break;
    default:
      schedule.sync.policy = storage::WalSyncPolicy::kInterval;
      schedule.sync.interval_ms = rng.UniformInt(0, 20);
      break;
  }
  const int mode = rng.UniformInt(0, 7);
  if (mode <= 5) {
    schedule.fault = Schedule::Fault::kFailpoint;
    schedule.failpoint = kCatalog[rng.UniformInt(0, kCatalogSize - 1)];
    schedule.failpoint_skip = rng.UniformInt(0, 6);
  } else if (mode == 6) {
    schedule.fault = Schedule::Fault::kSigkill;
    schedule.kill_before_op = rng.UniformInt(0, num_ops);
  }
  return schedule;
}

// Child body: never returns. Exit codes — 0 workload completed,
// kCrashExitCode (86) injected crash, SIGKILL self-raised; anything
// else is a genuine child-side failure the parent reports.
[[noreturn]] void RunChild(const std::string& dir, uint64_t seed) {
  const std::vector<Op> ops = MakeOps(seed);
  const Schedule schedule = MakeSchedule(seed, static_cast<int>(ops.size()));
  if (schedule.fault == Schedule::Fault::kFailpoint) {
    failpoint::Arm(schedule.failpoint, failpoint::Action::kCrash,
                   schedule.failpoint_skip);
  }
  Result<std::unique_ptr<storage::DurableRegistry>> registry =
      storage::DurableRegistry::Open(dir, {}, schedule.sync);
  if (!registry.ok()) _exit(11);
  if (!registry.value()->Load(kDbName, kBaseText).ok()) _exit(12);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (schedule.fault == Schedule::Fault::kSigkill &&
        static_cast<int>(i) == schedule.kill_before_op) {
      kill(getpid(), SIGKILL);
    }
    if (ops[i].is_compact) {
      if (!registry.value()->Compact(kDbName).ok()) _exit(13);
    } else {
      if (!registry.value()->AppendText(kDbName, ops[i].text).ok()) _exit(14);
    }
  }
  if (schedule.fault == Schedule::Fault::kSigkill &&
      schedule.kill_before_op == static_cast<int>(ops.size())) {
    kill(getpid(), SIGKILL);
  }
  _exit(0);
}

// Canonical content form: ToString prints facts in intern (insertion)
// order, which legitimately differs between a WAL-replayed database and
// a decoded snapshot (snapshots store the canonical sorted form). The
// CONTENT is a set, so compare sorted lines.
std::string CanonicalText(const Database& db) {
  std::istringstream in(ToString(db));
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

// The (revision, canonical text) states the workload passes through —
// computed in the parent by replaying the same mutations through the
// same parse/apply path the registry logs and replays. uids are
// process-local, so identity across the fork is (revision, text).
struct MirrorState {
  uint64_t revision = 0;
  std::string text;
};

std::vector<MirrorState> MirrorStates(uint64_t seed) {
  auto vocab = std::make_shared<Vocabulary>();
  Result<Database> db = ParseDatabase(kBaseText, vocab);
  EXPECT_TRUE(db.ok());
  std::vector<MirrorState> states;
  states.push_back({db.value().revision(), CanonicalText(db.value())});
  for (const Op& op : MakeOps(seed)) {
    if (op.is_compact) continue;  // compaction never changes content
    Result<std::vector<storage::WalRecord>> records =
        storage::ParseMutationText(op.text, vocab);
    EXPECT_TRUE(records.ok());
    EXPECT_TRUE(storage::ApplyWalRecords(records.value(), &db.value()).ok());
    states.push_back({db.value().revision(), CanonicalText(db.value())});
  }
  return states;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class CrashTortureTest : public testing::Test {
 protected:
  static long long Iterations() {
    const char* env = std::getenv("IODB_TORTURE_ITERATIONS");
    if (env != nullptr) {
      const long long n = std::atoll(env);
      if (n > 0) return n;
    }
    return 250;  // local default; the CI crash-torture job sets >= 1000
  }
};

TEST_F(CrashTortureTest, RecoversToConsistentPrefixWithIdentityIntact) {
  const long long iterations = Iterations();
  const std::string root =
      (fs::path(testing::TempDir()) / "crash_torture").string();
  fs::remove_all(root);
  fs::create_directories(root);

  for (long long seed = 1; seed <= iterations; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed) +
                 " (rerun: IODB_TORTURE_ITERATIONS=" + std::to_string(seed) +
                 " with the failing seed as the last schedule)");
    const std::string dir =
        (fs::path(root) / ("s" + std::to_string(seed))).string();
    fs::remove_all(dir);

    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      RunChild(dir, static_cast<uint64_t>(seed));  // never returns
    }
    int wait_status = 0;
    ASSERT_EQ(waitpid(child, &wait_status, 0), child);
    if (WIFEXITED(wait_status)) {
      const int code = WEXITSTATUS(wait_status);
      ASSERT_TRUE(code == 0 || code == failpoint::kCrashExitCode)
          << "child exited with unexpected code " << code;
    } else {
      ASSERT_TRUE(WIFSIGNALED(wait_status) &&
                  WTERMSIG(wait_status) == SIGKILL)
          << "child died abnormally (status " << wait_status << ")";
    }

    // 1. Whatever the crash left behind must open.
    Result<std::unique_ptr<storage::DurableRegistry>> reopened =
        storage::DurableRegistry::Open(dir, {});
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

    EvaluationService::DatabasePtr db =
        reopened.value()->service().Snapshot(kDbName);
    if (db == nullptr) {
      // The crash landed before the initial LOAD became durable; an
      // empty registry is the k=0 prefix.
      fs::remove_all(dir);
      continue;
    }

    // 2. Consistent prefix: the recovered state must be one the
    //    workload actually passed through.
    const std::vector<MirrorState> mirror =
        MirrorStates(static_cast<uint64_t>(seed));
    const uint64_t revision = db->revision();
    const std::string text = CanonicalText(*db);
    bool matched = false;
    for (const MirrorState& state : mirror) {
      if (state.revision == revision && state.text == text) {
        matched = true;
        break;
      }
    }
    ASSERT_TRUE(matched)
        << "recovered state (revision " << revision
        << ") is not a prefix of the workload:\n"
        << text;

    // 3. Recovery fixpoint with identity intact: compact, reopen,
    //    recompact — snapshot and vocabulary bytes must not move.
    const std::string snap_path = reopened.value()->SnapshotPath(kDbName);
    const std::string vocab_path = (fs::path(dir) / "vocab.iodb").string();
    ASSERT_TRUE(reopened.value()->CompactAll().ok());
    reopened.value().reset();
    const std::string snap_bytes = ReadFileBytes(snap_path);
    const std::string vocab_bytes = ReadFileBytes(vocab_path);
    ASSERT_FALSE(snap_bytes.empty());

    Result<std::unique_ptr<storage::DurableRegistry>> again =
        storage::DurableRegistry::Open(dir, {});
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EvaluationService::DatabasePtr db2 =
        again.value()->service().Snapshot(kDbName);
    ASSERT_NE(db2, nullptr);
    EXPECT_EQ(db2->revision(), revision);
    EXPECT_EQ(CanonicalText(*db2), text);
    ASSERT_TRUE(again.value()->CompactAll().ok());
    again.value().reset();
    EXPECT_EQ(ReadFileBytes(snap_path), snap_bytes)
        << "snapshot re-encode is not byte-identical";
    EXPECT_EQ(ReadFileBytes(vocab_path), vocab_bytes)
        << "vocabulary re-encode is not byte-identical";

    fs::remove_all(dir);
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace iodb
