// In-process evaluation service: the serving layer over the whole
// pipeline.
//
// The service owns the lifecycle every caller used to hand-manage:
//
//   * one shared Vocabulary for all registered databases and parsed
//     queries (predicate ids stay comparable across the fleet, which is
//     what lets one compiled plan serve every database);
//   * named databases published as immutable versions (MVCC): each name
//     maps to a shared_ptr<const Database>, and a mutation forks the
//     current version (Database::ForkNextVersion — same uid, next
//     revisions), applies the change, pre-materializes the derived
//     structures (NormView + enumeration context, grown incrementally
//     from the previous version's reachability index), and atomically
//     republishes. The (uid, revision) identity keys every derived
//     cache, so no request can be served from a stale structure;
//   * a bounded LRU plan cache (service/plan_cache.h), looked up by the
//     raw query text and options before any parsing, that shares one
//     compiled plan across every database whose cost model leads to the
//     same plan, with hit/miss/eviction counters; once full, it files
//     only plans whose text missed before (one-shot texts are served
//     unfiled);
//   * batch scheduling onto the worker pool (util/parallel.h): a batch
//     is grouped by compiled plan, each group is one
//     PreparedQuery::ParallelEvaluateBatch call, which owns the rule for
//     when the group's databases fan out across the workers, and
//     results land in their request slots — the response order is
//     deterministic and independent of scheduling.
//
// Thread-safety: the service is fully synchronized — any number of
// threads may call Eval/EvalBatch concurrently with each other and with
// Load/Materialize/Register/Mutate. Readers never block on a writer:
// Eval pins the published version at request start (one shared_ptr copy
// under a brief shared lock) and runs lock-free against that immutable
// version; the
// single-writer path builds the next version off to the side and
// publishes it with one pointer swap, so readers on the old version
// drain naturally as their requests finish. Writers serialize against
// each other on an internal mutex; Materialize, the parse-and-build half
// of Load, takes no lock at all. The shared Vocabulary is itself
// internally synchronized, and its reads take no lock (concurrent
// query, mutation and database parsing is safe).

#ifndef IODB_SERVICE_SERVICE_H_
#define IODB_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/prepare.h"
#include "service/plan_cache.h"
#include "service/request.h"
#include "util/budget.h"
#include "util/status.h"

namespace iodb {

/// Construction-time knobs.
struct ServiceOptions {
  /// Maximum number of cached plans (distinct plans, however many
  /// databases share each).
  size_t plan_cache_capacity = 128;
  /// Worker threads for batch evaluation; 0 picks DefaultWorkerCount().
  int num_workers = 0;
  /// Default per-request wall-clock deadline in milliseconds, applied when
  /// a request does not set its own (< 0 = unlimited). Unlimited requests
  /// run the zero-overhead ungoverned path.
  long long default_deadline_ms = -1;
  /// Default per-request step budget (< 0 = unlimited).
  long long default_step_budget = -1;
  /// Statistics-backed cost-based planning (src/stats): when on, each
  /// request's effective options carry the pinned version's CostModel,
  /// so Prepare() can reorder conjunct schedules and disjuncts and
  /// suggest engine routes. Advisory only — never changes verdicts.
  /// Requests override per-call with EvalRequest::costing.
  bool use_cost_model = true;
};

/// Registration summary of one database.
struct DbInfo {
  std::string name;
  int atoms = 0;
  uint64_t uid = 0;
  uint64_t revision = 0;
};

/// Aggregate counters; see EvaluationService::stats().
struct ServiceStats {
  /// Evaluation requests served (batch members count individually).
  long long requests = 0;
  /// EvalBatch calls.
  long long batches = 0;
  /// Distinct plans compiled and served. Every plan-cache miss runs
  /// Prepare() once; a miss whose plan equals one already held (same
  /// cost-plan outcome) shares that plan and is not counted here. A plan
  /// the cache declined to file (plan_cache.declined) is counted.
  long long plans_compiled = 0;
  /// Registered databases.
  long long databases = 0;
  /// Database versions published (every Load/Register/Mutate that
  /// swapped a new immutable version in).
  long long publishes = 0;
  PlanCacheStats plan_cache;

  /// Multi-line "name value" rendering (the STATS payload of iodb_serve).
  std::string ToString() const;
};

/// The in-process serving layer. See the file comment for the contract.
class EvaluationService {
 public:
  /// A pinned immutable database version. Holding one keeps that version
  /// alive (and every derived cache valid) regardless of later publishes.
  using DatabasePtr = std::shared_ptr<const Database>;

  explicit EvaluationService(ServiceOptions options = {});

  /// The vocabulary shared by every registered database and parsed query.
  const VocabularyPtr& vocab() const { return vocab_; }

  /// Parses `text` (parser database format) and registers it under
  /// `name`, replacing any previous registration (the replacement is a
  /// fresh Database object, so its uid differs and no cache can confuse
  /// the two). New predicates are registered into the service vocabulary.
  /// The two steps are Materialize and Register.
  Result<DbInfo> Load(const std::string& name, const std::string& text);

  /// Load's first step: parses `text` against the service vocabulary and
  /// pre-materializes what Register would (NormView, enumeration
  /// context, statistics and cost model), so Register's own calls are
  /// memo hits. Takes no lock — the database is visible to no one yet —
  /// so any number of threads may materialize at once. `uid` (nonzero,
  /// from Database::NextUid()) becomes the database's uid before its
  /// statistics are built. `unregistered` (optional) switches the parse
  /// to ParseDatabaseWithoutRegistering: a text that needs a new
  /// predicate fails and names it there, and registers nothing.
  Result<Database> Materialize(const std::string& text, uint64_t uid = 0,
                               std::string* unregistered = nullptr) const;

  /// Registers an externally built database (Load's second step: the
  /// publish). It must share the service vocabulary (build it against
  /// vocab()), or the compiled plans' predicate ids would be meaningless
  /// against it.
  Result<DbInfo> Register(const std::string& name, Database db);

  /// Worker threads for batch evaluation and grouped LOADs.
  int num_workers() const { return num_workers_; }

  /// Pins the currently published version of `name` (nullptr if
  /// unregistered). One shared_ptr copy under a brief shared lock; the
  /// returned version is immutable and survives later publishes.
  DatabasePtr Snapshot(const std::string& name) const;

  /// The single-writer mutation seam. Forks the published version
  /// (Database::ForkNextVersion — the fork keeps the uid, so the
  /// revision line and every cross-revision cache continue), applies
  /// `mutate` to the fork, pre-materializes the derived structures so no
  /// concurrent reader ever pays a lazy build, then runs `before_publish`
  /// (optional; the durability hook — WAL logging goes here, after the
  /// mutation validated but before it becomes visible) and atomically
  /// republishes. On any failure the published version is untouched.
  /// Writers serialize; readers are never blocked.
  Result<DbInfo> Mutate(
      const std::string& name,
      const std::function<Status(Database*)>& mutate,
      const std::function<Status(const Database&)>& before_publish = nullptr);

  /// Registered names in registration-independent (sorted) order.
  std::vector<std::string> database_names() const;

  /// Serves one request: pins the published database version, fetches the
  /// compiled plan from the cache (compiling on a miss), evaluates
  /// lock-free against the pinned version, and renders the optional
  /// explain payload. Governance: the request's deadline/step budget (or
  /// the service defaults) bound the evaluation, and `cancel` (optional,
  /// caller-owned, must outlive the call) aborts it from another thread;
  /// exhaustion surfaces as kDeadlineExceeded / kCancelled. With no
  /// limits and no token the evaluation runs the ungoverned zero-overhead
  /// path.
  Result<EvalResponse> Eval(const EvalRequest& request,
                            const CancelToken* cancel = nullptr);

  /// Serves a batch: requests are grouped by compiled plan, each group is
  /// evaluated by one PreparedQuery::ParallelEvaluateBatch call on the
  /// service's workers (its doc gives the rule for when a group fans
  /// out), and results[i] is always the verdict of requests[i]
  /// regardless of scheduling. Every member pins its database version at
  /// batch start. Per-request failures (unknown database, parse errors)
  /// fail only their own slot.
  ///
  /// Batch governance scope: each plan group shares one ExecBudget — its
  /// deadline is the batch start plus the smallest effective member
  /// deadline, its step limit the smallest effective member budget, and
  /// `cancel` is attached to every group. A trip propagates to the
  /// group's in-flight worker shards at their next stride check, and the
  /// not-yet-finished members of the group fail with the same typed
  /// status (fail-fast is the point of a batch deadline). Members of
  /// all-unlimited groups run ungoverned.
  std::vector<Result<EvalResponse>> EvalBatch(
      std::span<const EvalRequest> requests,
      const CancelToken* cancel = nullptr);

  ServiceStats stats() const;

  /// The plan cache (exposed for tests and tools).
  PlanCache& plan_cache() { return plan_cache_; }

 private:
  /// Returns the cached plan for (query text, options), or parses and
  /// compiles it on a miss, recording whether it was a cache hit.
  Result<std::shared_ptr<const PreparedQuery>> PlanFor(
      const std::string& query_text, const EntailOptions& options,
      bool* cache_hit);

  /// Assembles the response from an evaluation result.
  EvalResponse MakeResponse(const PreparedQuery& plan, const Database& db,
                            EntailResult result, bool cache_hit,
                            const EvalRequest& request) const;

  /// Swaps `db` in as the published version of `name` (caller holds
  /// write_mu_). Pre-materializes the derived structures first.
  DbInfo Publish(const std::string& name, Database db);

  /// Builds every derived structure a reader may touch (memoized in the
  /// database, so a second call is a set of memo hits).
  static void Prematerialize(const Database& db);

  /// The request's effective limits (service defaults filled in).
  long long EffectiveDeadlineMs(const EvalRequest& request) const;
  long long EffectiveStepBudget(const EvalRequest& request) const;

  /// The request's effective EntailOptions: the cost-model planner of
  /// the pinned version injected when costing is enabled for this
  /// request (request override, else the service default).
  EntailOptions EffectiveOptions(const EvalRequest& request,
                                 const Database& db) const;

  VocabularyPtr vocab_;
  int num_workers_;
  long long default_deadline_ms_;
  long long default_step_budget_;
  bool use_cost_model_;
  PlanCache plan_cache_;
  // The published versions. db_mu_ guards the map only (lookup and
  // pointer swap — never held across parsing, evaluation, or version
  // building); write_mu_ serializes the writers end-to-end. Ordered map
  // so database_names() needs no extra sort.
  mutable std::shared_mutex db_mu_;
  std::mutex write_mu_;
  std::map<std::string, DatabasePtr> databases_;
  // Atomic so concurrent Eval calls stay race-free.
  std::atomic<long long> requests_{0};
  std::atomic<long long> batches_{0};
  std::atomic<long long> plans_compiled_{0};
  std::atomic<long long> publishes_{0};
};

}  // namespace iodb

#endif  // IODB_SERVICE_SERVICE_H_
