// Request/response types of the evaluation service, plus their
// line-oriented wire forms (shared by tools/iodb_serve and
// tools/iodb_replay so the interactive protocol and replayed traces parse
// identically).
//
// Wire form of an EVAL request (one line):
//
//   <db-name> [--semantics=finite|integer|rational] [--engine=NAME]
//             [--deadline-ms=N] [--step-budget=N] [--costing=on|off]
//             [--countermodel] [--explain] [--identity] <query text>
//
// Flags follow the database name; the first token that is not a flag
// starts the query text (query text never begins with "--"). Flag names
// and values match tools/iodb_eval, so request lines and CLI invocations
// stay interchangeable.

#ifndef IODB_SERVICE_REQUEST_H_
#define IODB_SERVICE_REQUEST_H_

#include <optional>
#include <string>

#include "core/engine.h"
#include "core/model.h"
#include "util/status.h"

namespace iodb {

/// One evaluation request against a registered database.
struct EvalRequest {
  /// Name the database was registered under.
  std::string db;
  /// Query text in the parser's format.
  std::string query;
  /// Evaluation options (semantics, forced engine, countermodel request,
  /// rewrite budget). Part of the plan-cache key.
  EntailOptions options;
  /// Wall-clock deadline in milliseconds (< 0 = use the service default).
  /// Evaluation-time governance, NOT part of the plan-cache key: the same
  /// compiled plan serves governed and ungoverned requests.
  long long deadline_ms = -1;
  /// Step budget — units of search work (< 0 = use the service default).
  long long step_budget = -1;
  /// Statistics-backed cost-based planning: 1 = on, 0 = off, -1 = use
  /// the service default (ServiceOptions::use_cost_model). Advisory
  /// only — costing influences schedules and engine routes, never
  /// verdicts. The service injects the pinned version's planner into the
  /// effective EntailOptions; the cache routes on that planner and never
  /// serves a costing-off plan to a costing-on request or the reverse.
  int costing = -1;
  /// Attach the rendered plan + evaluation counters to the response.
  bool explain = false;
  /// Report the pinned database version (uid@revision) in the verdict
  /// line — the observable MVCC handle: concurrent sessions use it to
  /// assert which published version served them.
  bool report_identity = false;
};

/// The verdict payload of one request.
struct EvalResponse {
  bool entailed = false;
  /// The engine that produced the verdict.
  EngineKind engine_used = EngineKind::kAuto;
  /// True if the compiled plan came from the service's plan cache.
  bool plan_cache_hit = false;
  /// Falsifying minimal model, when requested and not entailed.
  std::optional<FiniteModel> countermodel;
  /// PreparedQuery::Explain(result) rendering; nonempty iff requested.
  std::string explain;
  /// PreparedQuery::PlanChoiceSummary() of the plan that served the
  /// request ("default", or "costed(...)" when the cost-based pass
  /// changed the plan). Always filled; iodb_replay tags traces with it.
  std::string plan_summary;
  /// Identity of the published database version the evaluation ran
  /// against (the version pinned at request start).
  uint64_t db_uid = 0;
  uint64_t db_revision = 0;
  /// Mirrors EvalRequest::report_identity so FormatResponseLine knows
  /// whether to render the version handle.
  bool report_identity = false;
};

/// Parses the wire form above. Fails on an empty line, a missing query,
/// or an unknown flag/semantics/engine value.
Result<EvalRequest> ParseEvalRequest(const std::string& line);

/// Renders the wire form of `request` (canonical flag order; a parse
/// round-trips).
std::string FormatEvalRequest(const EvalRequest& request);

/// Renders the one-line verdict, e.g.
/// "ENTAILED [engine: bounded-width, cache: hit]". Countermodel and
/// explain payloads are multi-line and rendered by the caller.
std::string FormatResponseLine(const EvalResponse& response);

}  // namespace iodb

#endif  // IODB_SERVICE_REQUEST_H_
