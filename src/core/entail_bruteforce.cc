#include "core/entail_bruteforce.h"

#include <atomic>
#include <limits>
#include <utility>

#include "core/minimal_models.h"
#include "core/model_builder.h"
#include "util/parallel.h"

namespace iodb {
namespace {

// One incremental enumeration run: serial, optionally restricted to the
// subtree below `prefix` (empty = whole forest), optionally aborting when
// `aborted` fires (cross-worker early exit). `context`, when given, is
// the shared read-only enumeration state (the parallel engine builds it
// once instead of once per subtree).
BruteForceOutcome RunIncremental(const NormDb& db, const NormQuery& query,
                                 const BruteForceOptions& options,
                                 const EnumerationContext* context,
                                 const std::vector<std::vector<int>>& prefix,
                                 const std::function<bool()>& aborted) {
  BruteForceOutcome outcome;
  ModelBuilder builder(db);
  QueryMatcher matcher(query, options.compiled);

  // Push (and with pruning on, check) the seeded prefix groups.
  for (const std::vector<int>& group : prefix) {
    builder.PushGroup(builder.depth(), group);
    if (options.prune_satisfied_prefix &&
        matcher.Matches(builder.view(), &builder.index(),
                        &outcome.check_stats)) {
      ++outcome.prefixes_pruned;
      outcome.groups_pushed = builder.groups_pushed();
      outcome.groups_popped = builder.groups_popped();
      return outcome;  // the whole subtree is satisfied
    }
  }

  ModelVisitor visitor;
  visitor.stats = &outcome.check_stats;
  visitor.on_group = [&](int depth, const std::vector<int>& group) {
    if (aborted != nullptr && aborted()) return false;
    if (options.budget != nullptr && !options.budget->Charge()) {
      outcome.exhausted = true;
      return false;
    }
    builder.PushGroup(depth, group);
    if (options.prune_satisfied_prefix &&
        matcher.Matches(builder.view(), &builder.index(),
                        &outcome.check_stats)) {
      ++outcome.prefixes_pruned;
      return false;
    }
    return true;
  };
  visitor.on_model = [&](const std::vector<std::vector<int>>& groups) {
    if (aborted != nullptr && aborted()) return false;
    if (options.budget != nullptr && !options.budget->Charge()) {
      outcome.exhausted = true;
      return false;
    }
    ++outcome.models_enumerated;
    // The builder tracked every on_group append, so the complete model is
    // already materialized and indexed — no rebuild.
    builder.PopToDepth(static_cast<int>(groups.size()));
    bool satisfied =
        options.prune_satisfied_prefix
            ? false
            : matcher.Matches(builder.view(), &builder.index(),
                              &outcome.check_stats);
    if (!satisfied) {
      outcome.entailed = false;
      outcome.countermodel = builder.Snapshot();
      return false;
    }
    if (options.max_models >= 0 &&
        outcome.models_enumerated >= options.max_models) {
      outcome.limit_hit = true;
      return false;
    }
    return true;
  };
  if (context != nullptr) {
    ForEachMinimalModelFrom(db, *context, prefix, visitor);
  } else if (prefix.empty()) {
    ForEachMinimalModel(db, visitor);
  } else {
    ForEachMinimalModelFrom(db, prefix, visitor);
  }
  outcome.groups_pushed = builder.groups_pushed();
  outcome.groups_popped = builder.groups_popped();
  return outcome;
}

void MergeCounters(BruteForceOutcome& into, const BruteForceOutcome& from) {
  into.models_enumerated += from.models_enumerated;
  into.prefixes_pruned += from.prefixes_pruned;
  into.groups_pushed += from.groups_pushed;
  into.groups_popped += from.groups_popped;
  into.check_stats.Accumulate(from.check_stats);
  into.limit_hit = into.limit_hit || from.limit_hit;
  into.exhausted = into.exhausted || from.exhausted;
}

// Root-sharded parallel search: one task per first-group choice.
BruteForceOutcome EntailParallel(const NormDb& db, const NormQuery& query,
                                 const BruteForceOptions& options) {
  // The read-only enumeration state (reachability index + derived masks)
  // is built once per database and shared by the root collection and
  // every subtree worker. Building it here, before any worker spawns,
  // satisfies the lazy-fill thread contract.
  std::shared_ptr<const EnumerationContext> context =
      SharedEnumerationContext(db);

  // Collect the first-level groups; each is the root of an independent
  // enumeration subtree. The depth-0 probes are counted once, here (the
  // subtree workers seed past depth 0), so an entailed parallel run
  // reports exactly the serial counter totals.
  std::vector<std::vector<int>> roots;
  ModelCheckStats root_stats;
  ModelVisitor collect;
  collect.stats = &root_stats;
  collect.on_group = [&](int depth, const std::vector<int>& group) {
    IODB_CHECK_EQ(depth, 0);
    roots.push_back(group);
    return false;  // record the root, skip its subtree
  };
  collect.on_model = [](const std::vector<std::vector<int>>&) {
    return true;
  };
  ForEachMinimalModelFrom(db, *context, {}, collect);

  if (roots.size() <= 1) {
    // Whole forest in one serial run; drop the collection pass counters
    // (that run re-traverses depth 0 itself).
    return RunIncremental(db, query, options, context.get(), {}, nullptr);
  }

  // Lowest subtree index that produced a countermodel so far. A subtree k
  // aborts only when some i < k already found one — then k's outcome can
  // no longer be the reported countermodel — so the final winner is the
  // first countermodel of the lowest-indexed subtree containing any:
  // exactly what the serial search reports.
  std::atomic<int> found_min{std::numeric_limits<int>::max()};
  std::vector<BruteForceOutcome> outcomes(roots.size());
  ParallelFor(static_cast<int>(roots.size()), options.num_threads,
              [&](int k) {
                if (found_min.load(std::memory_order_relaxed) < k) {
                  return;  // a lower subtree already holds the verdict
                }
                auto aborted = [&found_min, k]() {
                  return found_min.load(std::memory_order_relaxed) < k;
                };
                outcomes[k] = RunIncremental(db, query, options, context.get(),
                                             {roots[k]}, aborted);
                if (!outcomes[k].entailed) {
                  int seen = found_min.load(std::memory_order_relaxed);
                  while (k < seen &&
                         !found_min.compare_exchange_weak(
                             seen, k, std::memory_order_relaxed)) {
                  }
                }
              });

  BruteForceOutcome merged;
  merged.check_stats.Accumulate(root_stats);
  const int winner = found_min.load(std::memory_order_relaxed);
  for (size_t k = 0; k < outcomes.size(); ++k) {
    MergeCounters(merged, outcomes[k]);
  }
  if (winner != std::numeric_limits<int>::max()) {
    merged.entailed = false;
    merged.countermodel = std::move(outcomes[winner].countermodel);
    // A found countermodel is a definite "not entailed" even if the
    // budget tripped in sibling subtrees afterwards.
    merged.exhausted = false;
  }
  return merged;
}

}  // namespace

BruteForceOutcome EntailBruteForce(const NormDb& db, const NormQuery& query,
                                   const BruteForceOptions& options) {
  if (query.trivially_true) return BruteForceOutcome{};
  if (options.compiled != nullptr) {
    IODB_CHECK_EQ(options.compiled->size(), query.disjuncts.size());
  }
  // A model budget is a global counter; sharding would make it racy.
  if (options.num_threads > 1 && options.max_models < 0) {
    return EntailParallel(db, query, options);
  }
  return RunIncremental(db, query, options, nullptr, {}, nullptr);
}

}  // namespace iodb
