// iodb_replay: replays a JSON trace of requests through the
// EvaluationService and reports throughput and latency percentiles
// (the bench-style counterpart of iodb_serve — same requests, measured).
//
// Trace format: a JSON array of operation objects.
//
//   {"op": "load", "db": "<name>", "text": "<parser database text>"}
//   {"op": "eval", "db": "<name>", "query": "<parser query text>",
//    "semantics": "finite|integer|rational",   (optional)
//    "engine": "<engine name>",                (optional)
//    "countermodel": true|false,               (optional)
//    "costing": true|false,                    (optional; cost-based plan)
//    "deadline_ms": N,                         (optional; governance)
//    "step_budget": N}                         (optional; governance)
//
// Loads execute up front (untimed); evals replay in order. Usage:
//
//   iodb_replay TRACE.json [--batch=N] [--repeat=K]
//               [--workers=N] [--plan-cache=N] [--trace-plans]
//               [--db-snapshot=NAME=PATH ...]
//
// --trace-plans prints one plan-choice line per request of the first
// round ("plan: #<i> db=<name> engine=<engine> schedule=<summary>"), the
// observable record of what the cost-based planner picked per request.
//
// --db-snapshot registers the binary snapshot at PATH (written by
// iodb_pack or the durable registry) under NAME before the trace's own
// loads run, so a replay against a large database skips the text parser
// entirely. The flag repeats.
//
// --batch=N groups consecutive evals into batches of N served through the
// worker pool (default 1: individual Eval calls); a batched request's
// latency is its batch's duration. --repeat=K replays the eval sequence K
// times, so steady-state cached-plan throughput is measurable separately
// from the cold first pass. Exit code: 0 on success (even if some
// requests fail — failures are counted and reported), 2 on a malformed
// trace or flags.
//
// Reporting: the "verdicts:" line counts every non-ok response as an
// error (stable across versions); the "outcomes:" line splits responses
// by status — ok / deadline-exceeded / cancelled / other errors — and
// the latency percentiles cover only requests that ran to completion
// (an exhausted request's latency is its budget, not the service's);
// when no request completed, the percentiles print "n/a".

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/semantics.h"
#include "service/service.h"
#include "storage/snapshot.h"

namespace {

using namespace iodb;

int Fail(const std::string& message) {
  std::fprintf(stderr, "iodb_replay: %s\n", message.c_str());
  return 2;
}

// --- Minimal JSON reader ---------------------------------------------------
// Supports exactly what traces need: objects, arrays, strings (with the
// common escapes), numbers, booleans, null. No dependencies.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    Result<JsonValue> value = ParseValue();
    if (!value.ok()) return value;
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  Status Error(const std::string& message) {
    return Status::InvalidArgument("JSON error at offset " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    if (Consume('}')) return value;
    while (true) {
      SkipSpace();
      Result<JsonValue> key = ParseString();
      if (!key.ok()) return key.status();
      if (!Consume(':')) return Error("expected ':'");
      Result<JsonValue> member = ParseValue();
      if (!member.ok()) return member.status();
      value.object[key.value().string] = std::move(member.value());
      if (Consume(',')) continue;
      if (Consume('}')) return value;
      return Error("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    if (Consume(']')) return value;
    while (true) {
      Result<JsonValue> element = ParseValue();
      if (!element.ok()) return element.status();
      value.array.push_back(std::move(element.value()));
      if (Consume(',')) continue;
      if (Consume(']')) return value;
      return Error("expected ',' or ']'");
    }
  }

  Result<JsonValue> ParseString() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        value.string += c;
        continue;
      }
      if (pos_ >= text_.size()) return Error("bad escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': value.string += '"'; break;
        case '\\': value.string += '\\'; break;
        case '/': value.string += '/'; break;
        case 'n': value.string += '\n'; break;
        case 't': value.string += '\t'; break;
        case 'r': value.string += '\r'; break;
        case 'b': value.string += '\b'; break;
        case 'f': value.string += '\f'; break;
        default: return Error("unsupported escape '\\" + std::string(1, e) +
                              "'");
      }
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    ++pos_;  // closing quote
    return value;
  }

  Result<JsonValue> ParseBool() {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value.boolean = true;
      pos_ += 4;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return value;
    }
    return Error("expected boolean");
  }

  Result<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{};
    }
    return Error("expected null");
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected value");
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    // The character scan accepts non-numbers like "-" or "1e999"; stod is
    // the actual validator, and its failure is a trace error, not a crash.
    try {
      value.number = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      return Error("malformed number");
    }
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// --- Trace interpretation --------------------------------------------------

const JsonValue* Field(const JsonValue& object, const std::string& name) {
  auto it = object.object.find(name);
  return it == object.object.end() ? nullptr : &it->second;
}

Result<std::string> StringField(const JsonValue& object,
                                const std::string& name) {
  const JsonValue* field = Field(object, name);
  if (field == nullptr || field->kind != JsonValue::Kind::kString) {
    return Status::InvalidArgument("operation needs string field '" + name +
                                   "'");
  }
  return field->string;
}

// One parsed trace: the loads to apply up front and the evals to replay.
struct Trace {
  std::vector<std::pair<std::string, std::string>> loads;  // (name, text)
  std::vector<EvalRequest> evals;
};

Result<Trace> InterpretTrace(const JsonValue& root) {
  if (root.kind != JsonValue::Kind::kArray) {
    return Status::InvalidArgument("trace must be a JSON array");
  }
  Trace trace;
  for (const JsonValue& op : root.array) {
    if (op.kind != JsonValue::Kind::kObject) {
      return Status::InvalidArgument("trace entries must be objects");
    }
    Result<std::string> kind = StringField(op, "op");
    if (!kind.ok()) return kind.status();
    Result<std::string> db = StringField(op, "db");
    if (!db.ok()) return db.status();
    if (kind.value() == "load") {
      Result<std::string> text = StringField(op, "text");
      if (!text.ok()) return text.status();
      trace.loads.emplace_back(db.value(), text.value());
    } else if (kind.value() == "eval") {
      EvalRequest request;
      request.db = db.value();
      Result<std::string> query = StringField(op, "query");
      if (!query.ok()) return query.status();
      request.query = query.value();
      if (const JsonValue* semantics = Field(op, "semantics")) {
        if (semantics->kind != JsonValue::Kind::kString) {
          return Status::InvalidArgument("'semantics' must be a string");
        }
        std::optional<OrderSemantics> parsed =
            ParseOrderSemantics(semantics->string);
        if (!parsed.has_value()) {
          return Status::InvalidArgument("unknown semantics '" +
                                         semantics->string + "'");
        }
        request.options.semantics = *parsed;
      }
      if (const JsonValue* engine = Field(op, "engine")) {
        if (engine->kind != JsonValue::Kind::kString) {
          return Status::InvalidArgument("'engine' must be a string");
        }
        std::optional<EngineKind> parsed = ParseEngineKind(engine->string);
        if (!parsed.has_value()) {
          return Status::InvalidArgument("unknown engine '" + engine->string +
                                         "'");
        }
        request.options.engine = *parsed;
      }
      if (const JsonValue* countermodel = Field(op, "countermodel")) {
        if (countermodel->kind != JsonValue::Kind::kBool) {
          return Status::InvalidArgument("'countermodel' must be a boolean");
        }
        request.options.want_countermodel = countermodel->boolean;
      }
      if (const JsonValue* costing = Field(op, "costing")) {
        if (costing->kind != JsonValue::Kind::kBool) {
          return Status::InvalidArgument("'costing' must be a boolean");
        }
        request.costing = costing->boolean ? 1 : 0;
      }
      if (const JsonValue* deadline = Field(op, "deadline_ms")) {
        if (deadline->kind != JsonValue::Kind::kNumber ||
            deadline->number < 0) {
          return Status::InvalidArgument(
              "'deadline_ms' must be a non-negative number");
        }
        request.deadline_ms = static_cast<long long>(deadline->number);
      }
      if (const JsonValue* steps = Field(op, "step_budget")) {
        if (steps->kind != JsonValue::Kind::kNumber || steps->number < 0) {
          return Status::InvalidArgument(
              "'step_budget' must be a non-negative number");
        }
        request.step_budget = static_cast<long long>(steps->number);
      }
      trace.evals.push_back(std::move(request));
    } else {
      return Status::InvalidArgument("unknown op '" + kind.value() + "'");
    }
  }
  return trace;
}

double Percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0;
  size_t index = static_cast<size_t>(q * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[index];
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Fail("usage: iodb_replay TRACE.json [--batch=N] [--repeat=K] "
                "[--workers=N] [--plan-cache=N] [--trace-plans] "
                "[--db-snapshot=NAME=PATH ...]");
  }
  ServiceOptions options;
  int batch_size = 1;
  int repeat = 1;
  bool trace_plans = false;
  int plan_cache = static_cast<int>(options.plan_cache_capacity);
  std::vector<std::pair<std::string, std::string>> snapshots;  // (name, path)
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--batch=", 0) == 0) {
      batch_size = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::atoi(arg.c_str() + 9);
    } else if (arg.rfind("--workers=", 0) == 0) {
      options.num_workers = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--plan-cache=", 0) == 0) {
      plan_cache = std::atoi(arg.c_str() + 13);
    } else if (arg == "--trace-plans") {
      trace_plans = true;
    } else if (arg.rfind("--db-snapshot=", 0) == 0) {
      const std::string value = arg.substr(14);
      const size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == value.size()) {
        return Fail("--db-snapshot needs NAME=PATH");
      }
      snapshots.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else {
      return Fail("unknown flag '" + arg + "'");
    }
  }
  if (batch_size <= 0 || repeat <= 0 || plan_cache <= 0) {
    return Fail("--batch, --repeat and --plan-cache must be positive");
  }
  options.plan_cache_capacity = static_cast<size_t>(plan_cache);

  std::ifstream file(argv[1]);
  if (!file) return Fail(std::string("cannot open ") + argv[1]);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();

  Result<JsonValue> root = JsonParser(text).Parse();
  if (!root.ok()) return Fail(root.status().ToString());
  Result<Trace> trace = InterpretTrace(root.value());
  if (!trace.ok()) return Fail(trace.status().ToString());
  if (trace.value().evals.empty()) return Fail("trace has no eval ops");

  EvaluationService service(options);
  for (const auto& [name, path] : snapshots) {
    Result<Database> db = storage::OpenSnapshotInto(path, service.vocab());
    if (!db.ok()) {
      return Fail("snapshot '" + path + "': " + db.status().ToString());
    }
    Result<DbInfo> info = service.Register(name, std::move(db.value()));
    if (!info.ok()) {
      return Fail("snapshot '" + name + "': " + info.status().ToString());
    }
  }
  for (const auto& [name, db_text] : trace.value().loads) {
    Result<DbInfo> info = service.Load(name, db_text);
    if (!info.ok()) {
      return Fail("load '" + name + "': " + info.status().ToString());
    }
  }

  using Clock = std::chrono::steady_clock;
  std::vector<double> latencies_us;
  long long entailed = 0, not_entailed = 0, errors = 0;
  long long deadline_exceeded = 0, cancelled = 0, other_errors = 0;
  const auto replay_start = Clock::now();
  for (int round = 0; round < repeat; ++round) {
    const std::vector<EvalRequest>& evals = trace.value().evals;
    for (size_t begin = 0; begin < evals.size();
         begin += static_cast<size_t>(batch_size)) {
      const size_t end =
          std::min(evals.size(), begin + static_cast<size_t>(batch_size));
      const auto start = Clock::now();
      std::vector<Result<EvalResponse>> responses;
      if (end - begin == 1 && batch_size == 1) {
        responses.push_back(service.Eval(evals[begin]));
      } else {
        responses = service.EvalBatch(
            std::span<const EvalRequest>(evals.data() + begin, end - begin));
      }
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count();
      if (trace_plans && round == 0) {
        for (size_t k = 0; k < responses.size(); ++k) {
          const size_t i = begin + k;
          if (responses[k].ok()) {
            std::printf("plan: #%zu db=%s engine=%s schedule=%s\n", i,
                        evals[i].db.c_str(),
                        EngineKindName(responses[k].value().engine_used),
                        responses[k].value().plan_summary.c_str());
          } else {
            std::printf("plan: #%zu db=%s error\n", i, evals[i].db.c_str());
          }
        }
      }
      for (const Result<EvalResponse>& response : responses) {
        if (!response.ok()) {
          ++errors;
          // Exhausted requests are excluded from the latency population:
          // their duration measures the configured budget, not the
          // service. Other errors (bad database, parse) stay in.
          switch (response.status().code()) {
            case StatusCode::kDeadlineExceeded:
              ++deadline_exceeded;
              continue;
            case StatusCode::kCancelled:
              ++cancelled;
              continue;
            default:
              ++other_errors;
              break;
          }
        } else if (response.value().entailed) {
          ++entailed;
        } else {
          ++not_entailed;
        }
        latencies_us.push_back(us);  // a request waits for its whole batch
      }
    }
  }
  const double total_s =
      std::chrono::duration<double>(Clock::now() - replay_start).count();

  std::sort(latencies_us.begin(), latencies_us.end());
  const long long total = entailed + not_entailed + errors;
  const ServiceStats stats = service.stats();
  std::printf("replayed %lld request(s) in %.3f s (%.1f req/s, batch=%d, "
              "repeat=%d)\n",
              total, total_s, total > 0 ? total / total_s : 0.0, batch_size,
              repeat);
  std::printf("verdicts: %lld entailed, %lld not entailed, %lld error(s)\n",
              entailed, not_entailed, errors);
  std::printf("outcomes: %lld ok, %lld deadline-exceeded, %lld cancelled, "
              "%lld error(s)\n",
              entailed + not_entailed, deadline_exceeded, cancelled,
              other_errors);
  if (latencies_us.empty()) {
    // Every request was excluded (exhausted or cancelled): there is no
    // latency population. "0.0" here would read as a real measurement.
    std::printf("latency us: p50=n/a p90=n/a p99=n/a max=n/a\n");
  } else {
    std::printf("latency us: p50=%.1f p90=%.1f p99=%.1f max=%.1f\n",
                Percentile(latencies_us, 0.50), Percentile(latencies_us, 0.90),
                Percentile(latencies_us, 0.99), latencies_us.back());
  }
  std::printf("plan cache: %lld hit(s), %lld miss(es), %lld eviction(s), "
              "%lld compiled, %lld declined\n",
              stats.plan_cache.hits, stats.plan_cache.misses,
              stats.plan_cache.evictions, stats.plans_compiled,
              stats.plan_cache.declined);
  return 0;
}
