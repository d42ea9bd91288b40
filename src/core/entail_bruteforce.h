// Brute-force entailment by countermodel search over minimal models.
//
// By Corollary 2.9, D |= Φ iff every minimal model of D satisfies Φ; the
// engine enumerates minimal models and model-checks each. This realizes
// the generic upper bounds of Proposition 3.1 (co-NP data complexity, Π₂ᵖ
// combined complexity) and is the only engine applicable to arbitrary-
// arity queries and to databases carrying "!=" constraints (Section 7).
//
// Monotone prefix pruning: positive existential queries are preserved
// under homomorphisms, and a sort prefix embeds into each of its
// completions, so a branch whose prefix model already satisfies Φ cannot
// produce a countermodel and is cut.
//
// Evaluation is incremental: a ModelBuilder extends/retracts the prefix
// model in place (one group per enumeration edge) with a FactIndex
// maintained alongside, and the query runs through compiled matchers
// (model_matcher.h) so no per-model setup survives.
//
// With `num_threads > 1` the enumeration forest is sharded at the root:
// each first-group subtree is an independent enumeration
// (ForEachMinimalModelFrom) handed to a worker. Verdict and countermodel
// are deterministic (the winning countermodel is the first one of the
// lowest-indexed subtree containing any, i.e. the one the serial search
// reports). Work counters are exact only when the query is entailed
// (every subtree runs to completion); with a countermodel they may
// differ from the serial run in either direction — aborted siblings
// undercount their subtrees, while subtrees past the winner count
// partial work a serial search never starts.

#ifndef IODB_CORE_ENTAIL_BRUTEFORCE_H_
#define IODB_CORE_ENTAIL_BRUTEFORCE_H_

#include <optional>
#include <vector>

#include "core/database.h"
#include "core/model.h"
#include "core/model_check.h"
#include "core/model_matcher.h"
#include "core/query.h"
#include "util/budget.h"

namespace iodb {

/// Options for the brute-force engine.
struct BruteForceOptions {
  /// Cut branches whose prefix already satisfies the query. Usually a
  /// large win; disable to measure the raw model count.
  bool prune_satisfied_prefix = true;
  /// Stop after enumerating this many complete models (-1 = unlimited).
  /// If the limit is hit before a countermodel is found the outcome is
  /// reported as entailed with `limit_hit` set — treat it as unknown.
  long long max_models = -1;
  /// Shard independent root subtrees of the enumeration across this many
  /// workers (a max_models budget forces serial).
  int num_threads = 1;
  /// Optional plan-memoized schedules, parallel to query.disjuncts
  /// (PreparedQuery passes these so the topological variable orders are
  /// computed once at Prepare() time). Null compiles per engine run.
  const std::vector<const CompiledConjunct*>* compiled = nullptr;
  /// Optional execution budget, charged once per enumeration push and
  /// once per complete model; shared across all subtree workers when
  /// sharded. Null (the default) is the zero-overhead ungoverned path.
  /// When the budget trips the outcome reports `exhausted` and the
  /// verdict fields are meaningless — unless a countermodel was found,
  /// which stays a definite "not entailed".
  ExecBudget* budget = nullptr;
};

/// Outcome of a brute-force entailment check.
struct BruteForceOutcome {
  bool entailed = true;
  bool limit_hit = false;
  /// The ExecBudget tripped before the search finished and no definite
  /// verdict was reached; `entailed` must be ignored. Counters hold the
  /// partial work done up to the trip.
  bool exhausted = false;
  long long models_enumerated = 0;
  long long prefixes_pruned = 0;
  /// Incremental-core work counters: group appends/retracts of the
  /// in-place model builder.
  long long groups_pushed = 0;
  long long groups_popped = 0;
  /// Model-check counters summed over every prefix/model check.
  ModelCheckStats check_stats;
  std::optional<FiniteModel> countermodel;
};

/// Decides db |= query over the finite-model semantics.
BruteForceOutcome EntailBruteForce(const NormDb& db, const NormQuery& query,
                                   const BruteForceOptions& options = {});

}  // namespace iodb

#endif  // IODB_CORE_ENTAIL_BRUTEFORCE_H_
