#include "util/budget.h"

namespace iodb {

std::chrono::steady_clock::time_point DeadlineAfterMs(
    std::chrono::steady_clock::time_point start, long long ms) {
  using Clock = std::chrono::steady_clock;
  const long long headroom_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::time_point::max() - start)
          .count();
  if (ms >= headroom_ms) return Clock::time_point::max();
  return start + std::chrono::milliseconds(ms);
}

void ExecBudget::SetDeadlineAfterMs(long long ms) {
  if (ms < 0) {
    has_deadline_ = false;
  } else {
    SetDeadline(DeadlineAfterMs(std::chrono::steady_clock::now(), ms));
    return;
  }
  limited_ = has_deadline_ || step_limit_ >= 0 || cancel_ != nullptr;
}

void ExecBudget::SetDeadline(std::chrono::steady_clock::time_point deadline) {
  has_deadline_ = true;
  deadline_ = deadline;
  limited_ = true;
}

void ExecBudget::SetStepLimit(long long steps) {
  step_limit_ = steps < 0 ? -1 : steps;
  limited_ = has_deadline_ || step_limit_ >= 0 || cancel_ != nullptr;
}

void ExecBudget::SetCancelToken(const CancelToken* token) {
  cancel_ = token;
  limited_ = has_deadline_ || step_limit_ >= 0 || cancel_ != nullptr;
}

bool ExecBudget::ChargeSlow() {
  if (exhausted()) return false;
  const long long n = steps_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (step_limit_ >= 0 && n > step_limit_) {
    Trip(BudgetExhaustion::kSteps);
    return false;
  }
  if ((n & (kCheckStride - 1)) == 0) return ProbeDeadlineAndToken();
  return true;
}

bool ExecBudget::Poll() {
  if (!limited_) return true;
  if (exhausted()) return false;
  if (step_limit_ >= 0 &&
      steps_.load(std::memory_order_relaxed) > step_limit_) {
    Trip(BudgetExhaustion::kSteps);
    return false;
  }
  return ProbeDeadlineAndToken();
}

bool ExecBudget::ProbeDeadlineAndToken() {
  if (cancel_ != nullptr && cancel_->cancelled()) {
    Trip(BudgetExhaustion::kCancelled);
    return false;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    Trip(BudgetExhaustion::kDeadline);
    return false;
  }
  return true;
}

void ExecBudget::Trip(BudgetExhaustion kind) {
  int expected = static_cast<int>(BudgetExhaustion::kNone);
  exhaustion_.compare_exchange_strong(expected, static_cast<int>(kind),
                                      std::memory_order_relaxed);
}

void ExecBudget::MergePartial(const Partial& partial) {
  std::lock_guard<std::mutex> lock(partial_mu_);
  partial_.states_visited += partial.states_visited;
  partial_.models_enumerated += partial.models_enumerated;
  partial_.groups_pushed += partial.groups_pushed;
  partial_.groups_popped += partial.groups_popped;
  partial_.reach_probes += partial.reach_probes;
  partial_.assignments_tried += partial.assignments_tried;
}

ExecBudget::Partial ExecBudget::partial() const {
  std::lock_guard<std::mutex> lock(partial_mu_);
  return partial_;
}

Status ExecBudget::ToStatus(const std::string& what) const {
  const Partial p = partial();
  const std::string detail =
      what + " after " + std::to_string(steps_charged()) +
      " step(s); partial: states=" + std::to_string(p.states_visited) +
      " models=" + std::to_string(p.models_enumerated) +
      " pushes=" + std::to_string(p.groups_pushed) +
      " probes=" + std::to_string(p.reach_probes);
  switch (exhaustion()) {
    case BudgetExhaustion::kCancelled:
      return Status::Cancelled("evaluation cancelled: " + detail);
    case BudgetExhaustion::kSteps:
      return Status::DeadlineExceeded("step budget exhausted: " + detail);
    case BudgetExhaustion::kDeadline:
      return Status::DeadlineExceeded("deadline exceeded: " + detail);
    case BudgetExhaustion::kNone:
      break;
  }
  IODB_CHECK(false);  // ToStatus requires an exhausted budget
  return Status::DeadlineExceeded(detail);
}

}  // namespace iodb
