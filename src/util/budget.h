// Cooperative execution governance: deadlines, step budgets, cancellation.
//
// Enumeration over indefinite order databases is coNP-hard (Theorem 3.2),
// so a serving deployment must be able to bound, cancel, and degrade any
// single evaluation. ExecBudget is the shared governance object threaded
// through every engine: it carries an optional wall-clock deadline, an
// optional step budget, and an optional external CancelToken. Engines call
// Charge() once per unit of search work (an enumeration push, a search
// state, a path); when the budget trips, every holder sees a sticky
// exhausted flag on its next charge and unwinds cooperatively.
//
// Cost model: an unlimited budget (no deadline, no step limit, no token)
// short-circuits Charge() to a single predicate test, and engines take a
// null ExecBudget* on the default path, so governance is free when unused.
// A limited budget pays one relaxed atomic increment per step; the
// expensive probes (steady_clock::now, the cancel flag) run only every
// kCheckStride steps, which bounds deadline overshoot to ~kCheckStride
// units of search work.
//
// Determinism contract (pinned by tests/budget_test.cc and the
// conformance fuzzer): a governed run that does NOT exhaust its budget is
// bit-identical to an ungoverned run — verdict, countermodel, and every
// work counter — because a budget is observationally passive until it
// trips. This holds for the sharded-parallel engines too: the budget is
// thread-safe and shared, and a non-tripped budget never changes any
// worker's control flow.

#ifndef IODB_UTIL_BUDGET_H_
#define IODB_UTIL_BUDGET_H_

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>

#include "util/status.h"

namespace iodb {

/// External cancellation flag. The canceller (another thread, a signal
/// handler via a relay, a batch coordinator) calls Cancel(); every
/// ExecBudget holding the token observes it at its next stride check.
class CancelToken {
 public:
  void Cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Why a budget tripped. kNone means the budget is still live.
enum class BudgetExhaustion {
  kNone = 0,
  kDeadline,  // wall-clock deadline passed
  kSteps,     // step budget spent
  kCancelled  // the CancelToken fired
};

/// `start` plus `ms` milliseconds (`ms` >= 0), saturating at
/// time_point::max(): the sum is held in int64 nanoseconds, so a plain
/// `start + milliseconds(ms)` overflows (undefined behaviour, in practice
/// a deadline in the past) from about 9.2e12 ms on.
std::chrono::steady_clock::time_point DeadlineAfterMs(
    std::chrono::steady_clock::time_point start, long long ms);

/// Shared, thread-safe execution budget. Configure before handing it to
/// an evaluation (the setters are not synchronized against Charge());
/// share one instance across all workers of a parallel evaluation.
class ExecBudget {
 public:
  /// Steps between wall-clock / cancel-token probes. Work units are an
  /// enumeration push or a search state — each costs far under 40 µs —
  /// so 256 strides keeps deadline overshoot well under the 10 ms bound.
  static constexpr long long kCheckStride = 256;

  ExecBudget() = default;
  ExecBudget(const ExecBudget&) = delete;
  ExecBudget& operator=(const ExecBudget&) = delete;

  /// Arms a wall-clock deadline `ms` milliseconds from now (< 0 clears).
  void SetDeadlineAfterMs(long long ms);
  void SetDeadline(std::chrono::steady_clock::time_point deadline);
  /// Arms a step budget: Charge() fails after `steps` units (< 0 clears).
  void SetStepLimit(long long steps);
  /// Attaches an external cancellation token (nullptr detaches).
  void SetCancelToken(const CancelToken* token);

  /// True if any limit is armed — the engines' one-branch fast path.
  bool limited() const { return limited_; }

  /// Counts one unit of search work. Returns true to continue, false once
  /// the budget is exhausted (sticky: every later call returns false).
  bool Charge() {
    if (!limited_) return true;
    return ChargeSlow();
  }

  /// Immediate full check (deadline + cancel + steps) without charging a
  /// step — used at evaluation entry so a request that is already over
  /// deadline fails fast instead of starting work. Returns true if live.
  bool Poll();

  /// True once any limit has tripped. Cheap (one relaxed load).
  bool exhausted() const {
    return exhaustion_.load(std::memory_order_relaxed) !=
           static_cast<int>(BudgetExhaustion::kNone);
  }
  BudgetExhaustion exhaustion() const {
    return static_cast<BudgetExhaustion>(
        exhaustion_.load(std::memory_order_relaxed));
  }
  /// Steps charged so far (exact across threads).
  long long steps_charged() const {
    return steps_.load(std::memory_order_relaxed);
  }

  /// Partial work counters salvaged from an exhausted evaluation — the
  /// "partial ModelCheckStats" side channel. The evaluation layer merges
  /// the counters it accumulated before the trip; callers (service,
  /// tools, tests) read them off the budget after a typed failure. Plain
  /// long longs so util/ stays below core/ in the layer DAG.
  struct Partial {
    long long states_visited = 0;
    long long models_enumerated = 0;
    long long groups_pushed = 0;
    long long groups_popped = 0;
    long long reach_probes = 0;
    long long assignments_tried = 0;
  };
  void MergePartial(const Partial& partial);
  Partial partial() const;

  /// Renders the exhausted budget as a typed Status: kCancelled for a
  /// fired token, kDeadlineExceeded for a passed deadline or a spent step
  /// budget (the message tells them apart). `what` names the evaluation
  /// ("engine brute-force", "batch group 2"). Must be exhausted.
  Status ToStatus(const std::string& what) const;

 private:
  bool ChargeSlow();
  /// The stride probe: deadline + token. Trips and returns false on hit.
  bool ProbeDeadlineAndToken();
  void Trip(BudgetExhaustion kind);

  bool limited_ = false;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  long long step_limit_ = -1;
  const CancelToken* cancel_ = nullptr;

  std::atomic<long long> steps_{0};
  std::atomic<int> exhaustion_{static_cast<int>(BudgetExhaustion::kNone)};

  mutable std::mutex partial_mu_;
  Partial partial_{};
};

}  // namespace iodb

#endif  // IODB_UTIL_BUDGET_H_
