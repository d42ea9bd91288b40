#include "service/service.h"

#include <chrono>
#include <unordered_map>
#include <utility>

#include "core/minimal_models.h"
#include "core/parser.h"
#include "stats/stats.h"
#include "util/parallel.h"

namespace iodb {

std::string ServiceStats::ToString() const {
  auto line = [](const char* name, long long value) {
    std::string out = name;
    while (out.size() < 22) out += ' ';
    return out + std::to_string(value) + "\n";
  };
  std::string out;
  out += line("requests", requests);
  out += line("batches", batches);
  out += line("plans-compiled", plans_compiled);
  out += line("databases", databases);
  out += line("publishes", publishes);
  out += line("plan-cache-hits", plan_cache.hits);
  out += line("plan-cache-misses", plan_cache.misses);
  out += line("plan-cache-evictions", plan_cache.evictions);
  out += line("plan-cache-declined", plan_cache.declined);
  out += line("plan-cache-entries", plan_cache.entries);
  out += line("plan-cache-capacity", plan_cache.capacity);
  return out;
}

EvaluationService::EvaluationService(ServiceOptions options)
    : vocab_(std::make_shared<Vocabulary>()),
      num_workers_(options.num_workers > 0 ? options.num_workers
                                           : DefaultWorkerCount()),
      default_deadline_ms_(options.default_deadline_ms),
      default_step_budget_(options.default_step_budget),
      use_cost_model_(options.use_cost_model),
      plan_cache_(options.plan_cache_capacity) {}

long long EvaluationService::EffectiveDeadlineMs(
    const EvalRequest& request) const {
  return request.deadline_ms >= 0 ? request.deadline_ms : default_deadline_ms_;
}

long long EvaluationService::EffectiveStepBudget(
    const EvalRequest& request) const {
  return request.step_budget >= 0 ? request.step_budget
                                  : default_step_budget_;
}

EntailOptions EvaluationService::EffectiveOptions(const EvalRequest& request,
                                                 const Database& db) const {
  EntailOptions options = request.options;
  const bool costing =
      request.costing >= 0 ? request.costing > 0 : use_cost_model_;
  // PlannerFor is memoized per published version (pre-materialized at
  // Publish), so this is a shared_ptr copy on the hot path. Its
  // fingerprint routes the request to a cached plan (service/plan_cache.h).
  options.planner = costing ? stats::PlannerFor(db) : nullptr;
  return options;
}

Result<DbInfo> EvaluationService::Load(const std::string& name,
                                       const std::string& text) {
  if (name.empty()) {
    return Status::InvalidArgument("database name must be nonempty");
  }
  Result<Database> db = Materialize(text);
  if (!db.ok()) return db.status();
  return Register(name, std::move(db.value()));
}

Result<Database> EvaluationService::Materialize(const std::string& text,
                                                uint64_t uid,
                                                std::string* unregistered)
    const {
  Result<Database> db =
      unregistered == nullptr
          ? ParseDatabase(text, vocab_)
          : ParseDatabaseWithoutRegistering(text, vocab_, unregistered);
  if (!db.ok()) return db;
  if (uid != 0) db.value().RestoreIdentity(uid, db.value().revision());
  Prematerialize(db.value());
  return db;
}

void EvaluationService::Prematerialize(const Database& db) {
  // NormView and the enumeration context fill under const and are not
  // built for concurrent first-touch, so they are built before anyone
  // can read the database. A database the normalizer rejects publishes
  // anyway — evaluation reports the same error per request.
  Result<const NormDb*> view = db.NormView();
  if (view.ok()) (void)SharedEnumerationContext(*view.value());
  // Statistics + cost model too: readers fetch the memoized entry with
  // one shared_ptr copy, never filling the slot concurrently.
  (void)stats::PlannerFor(db);
}

DbInfo EvaluationService::Publish(const std::string& name, Database db) {
  // On the writer, so no reader of the published version ever triggers a
  // lazy fill; after Materialize (and for a fork whose mutation left the
  // memo current) these are memo hits.
  Prematerialize(db);
  DbInfo info{name, db.SizeAtoms(), db.uid(), db.revision()};
  auto published = std::make_shared<const Database>(std::move(db));
  {
    std::unique_lock<std::shared_mutex> lock(db_mu_);
    databases_[name] = std::move(published);
  }
  ++publishes_;
  return info;
}

Result<DbInfo> EvaluationService::Register(const std::string& name,
                                           Database db) {
  if (name.empty()) {
    return Status::InvalidArgument("database name must be nonempty");
  }
  if (db.vocab() != vocab_) {
    return Status::InvalidArgument(
        "registered databases must share the service vocabulary "
        "(build against vocab())");
  }
  std::lock_guard<std::mutex> write_lock(write_mu_);
  return Publish(name, std::move(db));
}

EvaluationService::DatabasePtr EvaluationService::Snapshot(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(db_mu_);
  auto it = databases_.find(name);
  return it == databases_.end() ? nullptr : it->second;
}

Result<DbInfo> EvaluationService::Mutate(
    const std::string& name, const std::function<Status(Database*)>& mutate,
    const std::function<Status(const Database&)>& before_publish) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  DatabasePtr current = Snapshot(name);
  if (current == nullptr) {
    return Status::InvalidArgument("unknown database '" + name + "'");
  }
  // Build the next version off to the side; readers keep serving from
  // `current` the whole time. The fork keeps the uid and the memoized
  // NormView, so Publish() grows the previous reachability index
  // incrementally instead of rebuilding it.
  Database next = current->ForkNextVersion();
  Status status = mutate(&next);
  if (!status.ok()) return status;
  if (before_publish != nullptr) {
    status = before_publish(next);
    if (!status.ok()) return status;
  }
  return Publish(name, std::move(next));
}

std::vector<std::string> EvaluationService::database_names() const {
  std::shared_lock<std::shared_mutex> lock(db_mu_);
  std::vector<std::string> names;
  names.reserve(databases_.size());
  for (const auto& [name, db] : databases_) names.push_back(name);
  return names;
}

Result<std::shared_ptr<const PreparedQuery>> EvaluationService::PlanFor(
    const std::string& query_text, const EntailOptions& options,
    bool* cache_hit) {
  // The cache is keyed on the raw text: a hit parses nothing.
  if (std::shared_ptr<const PreparedQuery> plan =
          plan_cache_.Get(vocab_->uid(), query_text, options)) {
    *cache_hit = true;
    return plan;
  }
  *cache_hit = false;
  Result<Query> query = ParseQuery(query_text, vocab_);
  if (!query.ok()) return query.status();
  Result<PreparedQuery> prepared = Prepare(vocab_, query.value(), options);
  if (!prepared.ok()) return prepared.status();
  auto plan =
      std::make_shared<const PreparedQuery>(std::move(prepared.value()));
  // On a full cache a first-miss text is served unfiled: filing it would
  // take the cache mutex and evict a plan for a text likely never seen
  // again (PlanCache::Admit).
  if (!plan_cache_.Admit(vocab_->uid(), query_text, options)) {
    ++plans_compiled_;
    return plan;
  }
  bool added = false;
  std::shared_ptr<const PreparedQuery> served = plan_cache_.Put(
      vocab_->uid(), query_text, options, std::move(plan), &added);
  if (added) ++plans_compiled_;
  return served;
}

EvalResponse EvaluationService::MakeResponse(const PreparedQuery& plan,
                                             const Database& db,
                                             EntailResult result,
                                             bool cache_hit,
                                             const EvalRequest& request) const {
  EvalResponse response;
  response.entailed = result.entailed;
  response.engine_used = result.engine_used;
  response.plan_cache_hit = cache_hit;
  response.db_uid = db.uid();
  response.db_revision = db.revision();
  response.report_identity = request.report_identity;
  response.plan_summary = plan.PlanChoiceSummary();
  if (request.explain) {
    // A shared plan carries the estimates of the database it was first
    // costed against; explain this request's database instead.
    response.explain =
        plan.Explain(result, EffectiveOptions(request, db).planner.get());
  }
  response.countermodel = std::move(result.countermodel);
  return response;
}

Result<EvalResponse> EvaluationService::Eval(const EvalRequest& request,
                                             const CancelToken* cancel) {
  ++requests_;
  // Pin the published version for the whole request: everything after
  // this line runs lock-free against an immutable database, however many
  // publishes land meanwhile.
  DatabasePtr db = Snapshot(request.db);
  if (db == nullptr) {
    return Status::InvalidArgument("unknown database '" + request.db + "'");
  }
  bool cache_hit = false;
  Result<std::shared_ptr<const PreparedQuery>> plan =
      PlanFor(request.query, EffectiveOptions(request, *db), &cache_hit);
  if (!plan.ok()) return plan.status();
  ExecBudget budget;
  const long long deadline_ms = EffectiveDeadlineMs(request);
  const long long step_budget = EffectiveStepBudget(request);
  if (deadline_ms >= 0) budget.SetDeadlineAfterMs(deadline_ms);
  if (step_budget >= 0) budget.SetStepLimit(step_budget);
  if (cancel != nullptr) budget.SetCancelToken(cancel);
  Result<EntailResult> result =
      plan.value()->Evaluate(*db, budget.limited() ? &budget : nullptr);
  if (!result.ok()) return result.status();
  return MakeResponse(*plan.value(), *db, std::move(result.value()),
                      cache_hit, request);
}

std::vector<Result<EvalResponse>> EvaluationService::EvalBatch(
    std::span<const EvalRequest> requests, const CancelToken* cancel) {
  ++batches_;
  requests_ += static_cast<long long>(requests.size());
  // Deadlines of batch members count from the batch start, not from the
  // moment their plan group reaches the front of the queue — a batch
  // deadline is an end-to-end promise.
  const std::chrono::steady_clock::time_point batch_start =
      std::chrono::steady_clock::now();

  // Phase 1 (serial): pin database versions and resolve plans. Parsing
  // and compiling touch the shared vocabulary and plan cache; evaluation
  // is the part worth fanning out. The pins are the batch's snapshot:
  // every member evaluates the version published at batch start, however
  // many publishes land while the batch runs. Pins are memoized per
  // name — members naming the same database share ONE pin, so a publish
  // landing mid-loop cannot split a batch across versions.
  struct Slot {
    DatabasePtr db;
    std::shared_ptr<const PreparedQuery> plan;
    bool cache_hit = false;
  };
  std::vector<Result<EvalResponse>> results(
      requests.size(), Result<EvalResponse>(EvalResponse{}));
  std::vector<Slot> slots(requests.size());
  std::unordered_map<std::string, DatabasePtr> pinned;
  for (size_t i = 0; i < requests.size(); ++i) {
    const EvalRequest& request = requests[i];
    Slot& slot = slots[i];
    auto [pin, first_use] = pinned.try_emplace(request.db, nullptr);
    if (first_use) pin->second = Snapshot(request.db);
    slot.db = pin->second;
    if (slot.db == nullptr) {
      results[i] =
          Status::InvalidArgument("unknown database '" + request.db + "'");
      continue;
    }
    Result<std::shared_ptr<const PreparedQuery>> plan =
        PlanFor(request.query, EffectiveOptions(request, *slot.db),
                &slot.cache_hit);
    if (!plan.ok()) {
      results[i] = plan.status();
      continue;
    }
    slot.plan = std::move(plan.value());
  }

  // Phase 2: group the healthy slots by plan (one group = one
  // ParallelEvaluateBatch call over its databases) in first-appearance
  // order, so scheduling is deterministic.
  std::unordered_map<const PreparedQuery*, size_t> group_of;
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].plan == nullptr) continue;
    auto [it, inserted] =
        group_of.try_emplace(slots[i].plan.get(), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  // Phase 3: evaluate group by group. ParallelEvaluateBatch decides
  // whether a group fans out across the workers (its fan-out rule is in
  // core/prepare.h).
  for (const std::vector<size_t>& group : groups) {
    const PreparedQuery& plan = *slots[group[0]].plan;
    std::vector<const Database*> dbs;
    dbs.reserve(group.size());
    for (size_t slot : group) dbs.push_back(slots[slot].db.get());
    // One shared budget per plan group: the tightest member limits govern
    // the whole group, and a trip cancels the group's in-flight shards
    // (see the EvalBatch doc comment for the scope contract).
    long long min_deadline_ms = -1;
    long long min_steps = -1;
    for (size_t slot : group) {
      const long long d = EffectiveDeadlineMs(requests[slot]);
      const long long s = EffectiveStepBudget(requests[slot]);
      if (d >= 0 && (min_deadline_ms < 0 || d < min_deadline_ms)) {
        min_deadline_ms = d;
      }
      if (s >= 0 && (min_steps < 0 || s < min_steps)) min_steps = s;
    }
    ExecBudget budget;
    if (min_deadline_ms >= 0) {
      budget.SetDeadline(DeadlineAfterMs(batch_start, min_deadline_ms));
    }
    if (min_steps >= 0) budget.SetStepLimit(min_steps);
    if (cancel != nullptr) budget.SetCancelToken(cancel);
    std::vector<Result<EntailResult>> verdicts =
        plan.ParallelEvaluateBatch(dbs, num_workers_,
                                   budget.limited() ? &budget : nullptr);
    for (size_t k = 0; k < group.size(); ++k) {
      const size_t i = group[k];
      if (!verdicts[k].ok()) {
        results[i] = verdicts[k].status();
        continue;
      }
      results[i] =
          MakeResponse(plan, *slots[i].db, std::move(verdicts[k].value()),
                       slots[i].cache_hit, requests[i]);
    }
  }
  return results;
}

ServiceStats EvaluationService::stats() const {
  ServiceStats stats;
  stats.requests = requests_;
  stats.batches = batches_;
  stats.plans_compiled = plans_compiled_;
  {
    std::shared_lock<std::shared_mutex> lock(db_mu_);
    stats.databases = static_cast<long long>(databases_.size());
  }
  stats.publishes = publishes_;
  stats.plan_cache = plan_cache_.stats();
  return stats;
}

}  // namespace iodb
