// Service-level governance (service/service.h, service/request.h): the
// wire-form deadline/step-budget flags, ServiceOptions defaults and
// per-request overrides, batch group budgets, and cancellation through
// Eval / EvalBatch.

#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <vector>

#include "service/request.h"
#include "service/service.h"

namespace iodb {
namespace {

constexpr char kDbText[] = "P(u)\nQ(v)\nu < v\n";
constexpr char kQuery[] = "exists t1 t2: P(t1) & t1 < t2 & Q(t2)";

// --- Wire form -------------------------------------------------------------

TEST(EvalRequestGovernanceTest, ParsesDeadlineAndStepBudgetFlags) {
  Result<EvalRequest> request = ParseEvalRequest(
      "db --deadline-ms=250 --step-budget=5000 exists t: P(t)");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.value().db, "db");
  EXPECT_EQ(request.value().deadline_ms, 250);
  EXPECT_EQ(request.value().step_budget, 5000);
  EXPECT_EQ(request.value().query, "exists t: P(t)");
}

TEST(EvalRequestGovernanceTest, DefaultsAreUnlimited) {
  Result<EvalRequest> request = ParseEvalRequest("db exists t: P(t)");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request.value().deadline_ms, -1);
  EXPECT_EQ(request.value().step_budget, -1);
}

TEST(EvalRequestGovernanceTest, RejectsMalformedValues) {
  for (const char* line :
       {"db --deadline-ms= exists t: P(t)", "db --deadline-ms=-5 q",
        "db --deadline-ms=12x q", "db --step-budget=abc q",
        "db --step-budget= q"}) {
    EXPECT_FALSE(ParseEvalRequest(line).ok()) << line;
  }
}

TEST(EvalRequestGovernanceTest, FormatRoundTrips) {
  EvalRequest request;
  request.db = "orders";
  request.query = "exists t: P(t)";
  request.deadline_ms = 75;
  request.step_budget = 123456;
  request.options.want_countermodel = true;
  const std::string line = FormatEvalRequest(request);
  EXPECT_NE(line.find("--deadline-ms=75"), std::string::npos) << line;
  EXPECT_NE(line.find("--step-budget=123456"), std::string::npos) << line;
  Result<EvalRequest> reparsed = ParseEvalRequest(line);
  ASSERT_TRUE(reparsed.ok()) << line << ": " << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().db, request.db);
  EXPECT_EQ(reparsed.value().query, request.query);
  EXPECT_EQ(reparsed.value().deadline_ms, request.deadline_ms);
  EXPECT_EQ(reparsed.value().step_budget, request.step_budget);
  EXPECT_EQ(reparsed.value().options.want_countermodel, true);
  // Unlimited requests render without governance flags.
  request.deadline_ms = -1;
  request.step_budget = -1;
  const std::string plain = FormatEvalRequest(request);
  EXPECT_EQ(plain.find("--deadline-ms"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("--step-budget"), std::string::npos) << plain;
}

// --- Eval ------------------------------------------------------------------

EvalRequest MakeRequest(long long deadline_ms = -1,
                        long long step_budget = -1) {
  EvalRequest request;
  request.db = "t";
  request.query = kQuery;
  request.deadline_ms = deadline_ms;
  request.step_budget = step_budget;
  return request;
}

TEST(ServiceGovernanceTest, UnlimitedRequestSucceeds) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  Result<EvalResponse> response = service.Eval(MakeRequest());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response.value().entailed);
}

TEST(ServiceGovernanceTest, ZeroStepBudgetFailsTyped) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  Result<EvalResponse> response =
      service.Eval(MakeRequest(/*deadline_ms=*/-1, /*step_budget=*/0));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(response.status().message().find("step budget"),
            std::string::npos)
      << response.status().ToString();
}

TEST(ServiceGovernanceTest, ExpiredDeadlineFailsAdmission) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  Result<EvalResponse> response =
      service.Eval(MakeRequest(/*deadline_ms=*/0));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ServiceGovernanceTest, ServiceDefaultAppliesAndRequestOverrides) {
  ServiceOptions options;
  options.default_step_budget = 0;  // everything exhausts by default
  EvaluationService service(options);
  ASSERT_TRUE(service.Load("t", kDbText).ok());

  Result<EvalResponse> defaulted = service.Eval(MakeRequest());
  ASSERT_FALSE(defaulted.ok());
  EXPECT_EQ(defaulted.status().code(), StatusCode::kDeadlineExceeded);

  // A request-level budget overrides the default (and a generous one
  // completes normally).
  Result<EvalResponse> overridden =
      service.Eval(MakeRequest(/*deadline_ms=*/-1, /*step_budget=*/1 << 20));
  ASSERT_TRUE(overridden.ok()) << overridden.status().ToString();
  EXPECT_TRUE(overridden.value().entailed);
}

TEST(ServiceGovernanceTest, PreCancelledTokenFailsWithCancelled) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  CancelToken token;
  token.Cancel();
  Result<EvalResponse> response = service.Eval(MakeRequest(), &token);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCancelled);
}

// A deadline too far off for the clock's int64 nanoseconds saturates
// instead of wrapping into the past: the request, its batch and the
// service default all answer as an ungoverned request does.
TEST(ServiceGovernanceTest, FarDeadlinesAnswerAsUngoverned) {
  for (long long deadline_ms : {10000000000000LL, LLONG_MAX}) {
    EvaluationService service;
    ASSERT_TRUE(service.Load("t", kDbText).ok());
    Result<EvalResponse> plain = service.Eval(MakeRequest());
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(plain.value().entailed);
    auto expect_plain = [&](const Result<EvalResponse>& response,
                            const char* where) {
      ASSERT_TRUE(response.ok())
          << where << " " << deadline_ms << ": "
          << response.status().ToString();
      EXPECT_EQ(response.value().entailed, plain.value().entailed) << where;
      EXPECT_EQ(response.value().engine_used, plain.value().engine_used)
          << where;
    };
    expect_plain(service.Eval(MakeRequest(deadline_ms)), "eval");
    const std::vector<EvalRequest> requests = {MakeRequest(deadline_ms),
                                               MakeRequest()};
    for (const Result<EvalResponse>& response : service.EvalBatch(requests)) {
      expect_plain(response, "batch");
    }

    ServiceOptions options;
    options.default_deadline_ms = deadline_ms;
    EvaluationService defaulted(options);
    ASSERT_TRUE(defaulted.Load("t", kDbText).ok());
    expect_plain(defaulted.Eval(MakeRequest()), "default eval");
    for (const Result<EvalResponse>& response :
         defaulted.EvalBatch(std::vector<EvalRequest>{MakeRequest()})) {
      expect_plain(response, "default batch");
    }
  }
}

// --- EvalBatch -------------------------------------------------------------

TEST(ServiceGovernanceTest, BatchGroupSharesSmallestBudget) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  // Same query => same plan group. One member carries a zero step
  // budget, so the whole group's shared budget is zero and BOTH members
  // fail fast with the typed status.
  std::vector<EvalRequest> requests = {MakeRequest(),
                                       MakeRequest(-1, /*step_budget=*/0)};
  std::vector<Result<EvalResponse>> responses = service.EvalBatch(requests);
  ASSERT_EQ(responses.size(), 2u);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_FALSE(responses[i].ok()) << "member " << i;
    EXPECT_EQ(responses[i].status().code(), StatusCode::kDeadlineExceeded)
        << "member " << i << ": " << responses[i].status().ToString();
  }
}

TEST(ServiceGovernanceTest, BatchGovernanceIsPerPlanGroup) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  // Different query texts compile to different plans, so the exhausted
  // group must not drag the unlimited group down.
  EvalRequest limited = MakeRequest(-1, /*step_budget=*/0);
  EvalRequest unlimited = MakeRequest();
  unlimited.query = "exists t: P(t)";
  std::vector<EvalRequest> requests = {limited, unlimited};
  std::vector<Result<EvalResponse>> responses = service.EvalBatch(requests);
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_FALSE(responses[0].ok());
  EXPECT_EQ(responses[0].status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(responses[1].ok()) << responses[1].status().ToString();
  EXPECT_TRUE(responses[1].value().entailed);
}

TEST(ServiceGovernanceTest, BatchCancelTokenCancelsEveryGroup) {
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  CancelToken token;
  token.Cancel();
  std::vector<EvalRequest> requests = {MakeRequest(), MakeRequest()};
  std::vector<Result<EvalResponse>> responses =
      service.EvalBatch(requests, &token);
  ASSERT_EQ(responses.size(), 2u);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_FALSE(responses[i].ok()) << "member " << i;
    EXPECT_EQ(responses[i].status().code(), StatusCode::kCancelled)
        << "member " << i;
  }
}

TEST(ServiceGovernanceTest, GovernedRequestsDoNotPolluteStats) {
  // Governance is evaluation-time state: a governed and an ungoverned
  // request for the same (query, options) share one cached plan.
  EvaluationService service;
  ASSERT_TRUE(service.Load("t", kDbText).ok());
  ASSERT_TRUE(service.Eval(MakeRequest()).ok());
  Result<EvalResponse> governed =
      service.Eval(MakeRequest(-1, /*step_budget=*/1 << 20));
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(governed.value().plan_cache_hit);
  EXPECT_EQ(service.stats().plans_compiled, 1);
}

}  // namespace
}  // namespace iodb
