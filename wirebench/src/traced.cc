#include "traced.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>

#include "core/database.h"
#include "core/parser.h"
#include "core/prepare.h"
#include "server/line_channel.h"
#include "server/protocol.h"
#include "service/service.h"
#include "stats/stats.h"
#include "storage/durable_registry.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/failpoint.h"
#include "util/parallel.h"
#include "wire.h"

namespace wirebench {
namespace {

using Clock = std::chrono::steady_clock;

// Spans live in memory until the run ends. `parent` is the span of the
// calling layer for the same request; spans of one request are measured
// one after another (each layer's public function is called on its own),
// so a child does not lie inside its parent's interval.
struct Span {
  const char* name;
  long long start_ns;
  long long end_ns;
  long long parent;
  long long request;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  long long Open(const char* name, long long parent, long long request) {
    spans_.push_back({name, Now(), 0, parent, request});
    return static_cast<long long>(spans_.size()) - 1;
  }
  // Closes span `id` (optionally renaming it) and returns its length in us.
  double Close(long long id, const char* name = nullptr) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = Now();
    if (name != nullptr) span.name = name;
    return static_cast<double>(span.end_ns - span.start_ns) / 1e3;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  long long Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

const char* EngineSpan(iodb::EngineKind kind) {
  switch (kind) {
    case iodb::EngineKind::kBoundedWidth:
      return "core.evaluate.bounded-width";
    case iodb::EngineKind::kPathDecomposition:
      return "core.evaluate.path-decomposition";
    case iodb::EngineKind::kDisjunctiveSearch:
      return "core.evaluate.disjunctive-search";
    case iodb::EngineKind::kBruteForce:
      return "core.evaluate.brute-force";
    default:
      return "core.evaluate.other";
  }
}

const iodb::EngineKind kEngines[] = {
    iodb::EngineKind::kBoundedWidth, iodb::EngineKind::kPathDecomposition,
    iodb::EngineKind::kDisjunctiveSearch, iodb::EngineKind::kBruteForce};

// An in-process ProtocolSession served over a socketpair: the server
// layer without the network stack.
class InProcessSession {
 public:
  InProcessSession()
      : state_(iodb::ServiceOptions{}, iodb::storage::WalSyncOptions{}) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
      return;
    }
    server_fd_ = fds[0];
    client_ = Conn::Adopt(fds[1]);
    channel_ = std::make_unique<iodb::server::LineChannel>(server_fd_,
                                                           server_fd_);
    session_ = std::make_unique<iodb::server::ProtocolSession>(
        &state_, channel_.get(), iodb::server::ProtocolSession::Options{});
    thread_ = std::thread([this] { session_->Run(); });
  }
  ~InProcessSession() {
    if (client_ != nullptr) {
      client_->Send("QUIT\n");
      thread_.join();
      client_.reset();
      ::close(server_fd_);
    }
  }
  InProcessSession(const InProcessSession&) = delete;
  InProcessSession& operator=(const InProcessSession&) = delete;

  bool ok() const { return client_ != nullptr; }

  bool Send(const std::string& bytes) { return client_->Send(bytes); }
  bool Read(std::string* line) { return client_->ReadLine(line); }

 private:
  iodb::server::ServingState state_;
  int server_fd_ = -1;
  std::unique_ptr<Conn> client_;
  std::unique_ptr<iodb::server::LineChannel> channel_;
  std::unique_ptr<iodb::server::ProtocolSession> session_;
  std::thread thread_;
};

// Responses lines an EVAL answer occupies (verdict + countermodel).
int ResponseLines(const EvalReq& req, const std::string& verdict_line) {
  return req.countermodel && verdict_line.rfind("NOT ENTAILED", 0) == 0 ? 2
                                                                        : 1;
}

// The replay state shared by the read and write halves.
class Replay {
 public:
  Replay(const Workload& w, Tracer* tracer) : w_(w), t_(*tracer) {}

  bool Load(std::string* error) {
    if (!session_.ok()) {
      *error = "socketpair failed";
      return false;
    }
    std::string line;
    for (const DbSpec& db : w_.dbs) {
      if (!session_.Send("LOAD " + db.name + "\n" + db.text + "END\n") ||
          !session_.Read(&line) || line.rfind("OK", 0) != 0) {
        *error = "in-process LOAD " + db.name + ": " + line;
        return false;
      }
      for (iodb::EvaluationService* svc : {&svc_, &plain_svc_}) {
        const long long id = t_.Open("core.parse_database", -1, -1);
        iodb::Result<iodb::Database> parsed =
            iodb::ParseDatabase(db.text, svc->vocab());
        const double us = t_.Close(id);
        if (svc == &svc_) parse_database_us_.push_back(us);
        if (!parsed.ok() ||
            !svc->Register(db.name, std::move(parsed.value())).ok()) {
          *error = "in-process parse of " + db.name;
          return false;
        }
      }
      fleet_fingerprints_.insert(
          iodb::stats::PlannerFor(*svc_.Snapshot(db.name))->fingerprint());
    }
    return true;
  }

  // Pass 1: serves one command with every layer's public function timed
  // on its own; `rid` < 0 replays it untimed (warm-up, which keeps the
  // caches in step with the wire run).
  bool Command(const wirebench::Command& command, long long rid,
               std::string* error) {
    if (command.batch) return Batch(command, rid, error);
    const std::string args = command.members[0].Line(w_.dbs);
    const long long root = t_.Open("request", -1, rid);

    const long long pr = t_.Open("service.parse_request", root, rid);
    iodb::Result<iodb::EvalRequest> request = iodb::ParseEvalRequest(args);
    const double pr_us = t_.Close(pr);
    if (!request.ok()) {
      *error = request.status().ToString();
      return false;
    }

    const long long ev = t_.Open("service.eval", root, rid);
    iodb::Result<iodb::EvalResponse> response = svc_.Eval(request.value());
    const double ev_us = t_.Close(ev);
    if (!response.ok()) {
      *error = response.status().ToString();
      return false;
    }

    const long long pin = t_.Open("service.pin", ev, rid);
    iodb::EvaluationService::DatabasePtr db = svc_.Snapshot(request.value().db);
    const double pin_us = t_.Close(pin);

    double prepare_us = 0;
    std::shared_ptr<const iodb::PreparedQuery> plan;
    double pq_us = 0;
    if (!PlanFor(request.value(), *db, !response.value().plan_cache_hit, ev,
                 rid, &plan, &pq_us, &prepare_us, error)) {
      return false;
    }

    const long long ee = t_.Open("core.evaluate", ev, rid);
    iodb::Result<iodb::EntailResult> result = plan->Evaluate(*db);
    if (!result.ok()) {
      *error = result.status().ToString();
      return false;
    }
    const double ee_us = t_.Close(ee, EngineSpan(result.value().engine_used));
    t_.Close(root);
    if (rid < 0) return true;

    parse_request_us_.push_back(pr_us);
    eval_us_.push_back(ev_us);
    pin_us_.push_back(pin_us);
    parse_query_us_.push_back(pq_us);
    service_self_us_.push_back(ev_us - (pq_us + prepare_us + ee_us));
    engine_us_[result.value().engine_used].push_back(ee_us);
    models_.push_back(static_cast<double>(result.value().models_enumerated));
    states_.push_back(static_cast<double>(result.value().states_visited));
    assignments_.push_back(
        static_cast<double>(result.value().check_stats.assignments_tried));
    probes_.push_back(
        static_cast<double>(result.value().check_stats.index_probes));
    return true;
  }

  // Pass 2: the same command through the in-process ProtocolSession,
  // back to back like a closed-loop client.
  bool Roundtrip(const wirebench::Command& command, long long rid,
                 std::string* error) {
    std::string bytes;
    if (command.batch) {
      bytes = "BATCH " + std::to_string(command.members.size()) + "\n";
      for (const EvalReq& req : command.members) {
        bytes += req.Line(w_.dbs) + "\n";
      }
    } else {
      bytes = "EVAL " + command.members[0].Line(w_.dbs) + "\n";
    }
    const long long rt = t_.Open(
        command.batch ? "server.batch_roundtrip" : "server.roundtrip", -1, rid);
    bool ok = session_.Send(bytes);
    std::string line;
    for (const EvalReq& req : command.members) {
      ok = ok && session_.Read(&line) && line.rfind("ERR", 0) != 0;
      if (ok && ResponseLines(req, line) == 2) {
        std::string extra;
        ok = session_.Read(&extra);
      }
    }
    const double rt_us = t_.Close(rt);
    if (!ok) {
      *error = "in-process session answered '" + line + "'";
      return false;
    }
    if (rid >= 0 && !command.batch) roundtrip_us_.push_back(rt_us);
    return true;
  }

  // Pass 3: the same command through an identical service with no spans
  // around its layers: the base of the tracing overhead.
  bool Plain(const wirebench::Command& command, long long rid,
             std::string* error) {
    std::vector<iodb::EvalRequest> requests;
    for (const EvalReq& req : command.members) {
      iodb::Result<iodb::EvalRequest> request =
          iodb::ParseEvalRequest(req.Line(w_.dbs));
      if (!request.ok()) {
        *error = request.status().ToString();
        return false;
      }
      requests.push_back(std::move(request.value()));
    }
    if (command.batch) {
      (void)plain_svc_.EvalBatch(requests);
      return true;
    }
    const Clock::time_point start = Clock::now();
    iodb::Result<iodb::EvalResponse> response = plain_svc_.Eval(requests[0]);
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start).count();
    if (!response.ok()) {
      *error = response.status().ToString();
      return false;
    }
    if (rid >= 0) plain_eval_us_.push_back(us);
    return true;
  }

  // The writer's appends and SAVEs through a real DurableRegistry with a
  // WAL fsync per commit (as `iodb_serve --wal-sync=commit` runs it), then
  // a reopen. AppendText, Compact and Open are timed as the program runs
  // them, and the fsyncs they make are counted at the storage failpoint
  // seams. The functions inside them are timed on calls of their own: the
  // mutation is parsed and applied to this replay's service, which holds
  // the same databases, and the WAL group and the vocabulary go to side
  // files.
  bool Writes(const std::string& dir, std::string* error) {
    namespace fs = std::filesystem;
    namespace st = iodb::storage;
    const st::WalSyncOptions commit{st::WalSyncPolicy::kCommit};
    const std::string registry_dir = dir + "/registry";
    iodb::Result<std::unique_ptr<st::DurableRegistry>> opened =
        st::DurableRegistry::Open(registry_dir, iodb::ServiceOptions{}, commit);
    if (!opened.ok()) {
      *error = "registry open: " + opened.status().ToString();
      return false;
    }
    st::DurableRegistry& registry = *opened.value();
    for (const DbSpec& spec : w_.dbs) {
      iodb::Result<iodb::DbInfo> loaded = registry.Load(spec.name, spec.text);
      if (!loaded.ok()) {
        *error = "registry LOAD " + spec.name + ": " +
                 loaded.status().ToString();
        return false;
      }
    }
    const std::string side_vocab = dir + "/side-vocab.iodb";
    const std::string side_wal = dir + "/side.wal";
    if (!st::CreateWal(side_wal, 0, 0).ok()) {
      *error = "side WAL";
      return false;
    }

    // Under the commit policy every WAL group append passes
    // "wal-append-before-sync" and fsyncs once; every atomic file write
    // (snapshot, fresh WAL, vocabulary) passes "snapshot-before-rename"
    // and fsyncs twice (file and directory). Hits are counted only while
    // the registry runs.
    namespace fp = iodb::failpoint;
    fp::Arm("wal-append-before-sync", fp::Action::kOff);
    fp::Arm("snapshot-before-rename", fp::Action::kOff);
    auto fsyncs = [] {
      return fp::Hits("wal-append-before-sync") +
             2 * fp::Hits("snapshot-before-rename");
    };
    long long append_fsyncs = 0;
    long long save_fsyncs = 0;
    std::set<uint64_t> revision_fingerprints;
    for (const AppendOp& op : w_.appends) {
      const std::string& name = w_.dbs[static_cast<size_t>(op.db)].name;
      const long long rid = ++write_requests_;
      const long long root = t_.Open("append", -1, rid);

      const uint64_t wal_before = registry.WalBytes(name).value();
      long long before = fsyncs();
      long long id = t_.Open("storage.append_text", root, rid);
      iodb::Result<iodb::DbInfo> appended = registry.AppendText(name, op.text);
      append_text_us_.push_back(t_.Close(id));
      if (!appended.ok()) {
        *error = "registry APPEND: " + appended.status().ToString();
        return false;
      }
      append_fsyncs += fsyncs() - before;
      wal_bytes_.push_back(
          static_cast<double>(registry.WalBytes(name).value() - wal_before));

      id = t_.Open("storage.parse_mutation", root, rid);
      iodb::Result<std::vector<st::WalRecord>> records =
          st::ParseMutationText(op.text, svc_.vocab());
      parse_mutation_us_.push_back(t_.Close(id));
      if (!records.ok()) {
        *error = records.status().ToString();
        return false;
      }
      id = t_.Open("storage.vocab_save", root, rid);
      iodb::Status status = st::SaveVocabulary(*svc_.vocab(), side_vocab);
      vocab_save_us_.push_back(t_.Close(id));
      if (!status.ok()) {
        *error = status.ToString();
        return false;
      }
      id = t_.Open("service.mutate", root, rid);
      iodb::Result<iodb::DbInfo> info =
          svc_.Mutate(name, [&](iodb::Database* db) {
            return st::ApplyWalRecords(records.value(), db);
          });
      mutate_us_.push_back(t_.Close(id));
      if (!info.ok()) {
        *error = "in-process append: " + info.status().ToString();
        return false;
      }
      // AppendWalGroup without its fsync, then SyncWal: the two halves of
      // the commit-policy append.
      id = t_.Open("storage.wal_append", root, rid);
      status = st::AppendWalGroup(side_wal, records.value(), false);
      wal_append_us_.push_back(t_.Close(id));
      if (status.ok()) {
        id = t_.Open("storage.wal_sync", root, rid);
        status = st::SyncWal(side_wal);
        wal_sync_us_.push_back(t_.Close(id));
      }
      if (!status.ok()) {
        *error = status.ToString();
        return false;
      }

      // The publish materialization, timed on its own on the new version.
      iodb::EvaluationService::DatabasePtr db = svc_.Snapshot(name);
      id = t_.Open("core.normalize", root, rid);
      (void)iodb::Normalize(*db);
      normalize_us_.push_back(t_.Close(id));
      id = t_.Open("stats.collect", root, rid);
      (void)iodb::stats::CollectStats(*db);
      collect_us_.push_back(t_.Close(id));
      revision_fingerprints.insert(iodb::stats::PlannerFor(*db)->fingerprint());

      if (op.save_after) {
        before = fsyncs();
        id = t_.Open("storage.compact", root, rid);
        iodb::Result<iodb::DbInfo> saved = registry.Compact(name);
        compact_us_.push_back(t_.Close(id));
        if (!saved.ok()) {
          *error = "registry SAVE: " + saved.status().ToString();
          return false;
        }
        save_fsyncs += fsyncs() - before;
        snapshot_bytes_.push_back(
            static_cast<double>(fs::file_size(registry.SnapshotPath(name))));
        id = t_.Open("storage.snapshot_encode", root, rid);
        (void)st::EncodeSnapshot(*registry.service().Snapshot(name));
        snapshot_encode_us_.push_back(t_.Close(id));
      }
      t_.Close(root);
    }
    fp::Disarm("wal-append-before-sync");
    fp::Disarm("snapshot-before-rename");
    const size_t saves = snapshot_bytes_.size();
    fsyncs_per_append_ =
        static_cast<double>(append_fsyncs) /
        static_cast<double>(std::max<size_t>(1, w_.appends.size()));
    fsyncs_per_save_ = static_cast<double>(save_fsyncs) /
                       static_cast<double>(std::max<size_t>(1, saves));
    revision_fingerprints_ = revision_fingerprints.size();

    // Reopen as the program does, then its parts on calls of their own:
    // per database, snapshot decode and WAL replay.
    const long long rid = ++write_requests_;
    const long long root = t_.Open("reopen", -1, rid);
    long long id = t_.Open("storage.registry_open", root, rid);
    iodb::Result<std::unique_ptr<st::DurableRegistry>> reopened =
        st::DurableRegistry::Open(registry_dir, iodb::ServiceOptions{}, commit);
    registry_open_us_ = t_.Close(id);
    if (!reopened.ok()) {
      *error = "registry reopen: " + reopened.status().ToString();
      return false;
    }
    auto vocab = std::make_shared<iodb::Vocabulary>();
    if (!st::RestoreVocabularyInto(registry_dir + "/vocab.iodb", vocab.get())
             .ok()) {
      *error = "vocabulary restore";
      return false;
    }
    for (const DbSpec& spec : w_.dbs) {
      const uint64_t live = registry.service().Snapshot(spec.name)->revision();
      if (reopened.value()->service().Snapshot(spec.name)->revision() != live) {
        *error = "reopened registry has " + spec.name + " at another revision";
        return false;
      }
      iodb::Result<std::string> bytes =
          st::ReadFileBytes(registry.SnapshotPath(spec.name));
      if (!bytes.ok()) {
        *error = bytes.status().ToString();
        return false;
      }
      id = t_.Open("storage.snapshot_decode", root, rid);
      iodb::Result<iodb::Database> db =
          st::DecodeSnapshotInto(bytes.value(), vocab);
      snapshot_decode_us_.push_back(t_.Close(id));
      if (!db.ok()) {
        *error = db.status().ToString();
        return false;
      }
      const uint64_t uid = db.value().uid();
      const uint64_t revision = db.value().revision();
      id = t_.Open("storage.wal_replay", root, rid);
      iodb::Result<st::WalReplayStats> replay = st::ReplayWal(
          registry.WalPath(spec.name), uid, revision, &db.value());
      wal_replay_us_.push_back(t_.Close(id));
      if (!replay.ok()) {
        *error = replay.status().ToString();
        return false;
      }
      if (db.value().revision() != live) {
        *error = "replayed " + spec.name + " at another revision";
        return false;
      }
    }
    t_.Close(root);
    return true;
  }

  void Report(TracedRun* out) const {
    auto emit = [&](const std::string& name, double value,
                    const std::string& unit, long long samples = 0) {
      out->metrics.push_back({name, value, unit, samples});
    };
    auto n = [](const std::vector<double>& v) {
      return static_cast<long long>(v.size());
    };
    emit("server.roundtrip_us", Median(roundtrip_us_), "us", n(roundtrip_us_));
    std::vector<double> server_self;
    for (size_t i = 0; i < roundtrip_us_.size() && i < eval_us_.size(); ++i) {
      server_self.push_back(roundtrip_us_[i] - eval_us_[i]);
    }
    emit("server.self_us", Median(server_self), "us", n(server_self));
    emit("service.parse_request_us", Median(parse_request_us_), "us",
         n(parse_request_us_));
    emit("service.eval_us", Median(eval_us_), "us", n(eval_us_));
    emit("service.self_us", Median(service_self_us_), "us",
         n(service_self_us_));
    emit("service.batch_us", Median(batch_us_), "us", n(batch_us_));
    emit("service.pin_us", Median(pin_us_), "us", n(pin_us_));
    emit("service.mutate_us", Median(mutate_us_), "us", n(mutate_us_));
    emit("core.parse_query_us", Median(parse_query_us_), "us",
         n(parse_query_us_));
    emit("core.parse_database_us", Median(parse_database_us_), "us",
         n(parse_database_us_));
    emit("core.prepare_us", Median(prepare_us_), "us", n(prepare_us_));
    long long evaluated = 0;
    for (const auto& [engine, values] : engine_us_) evaluated += n(values);
    for (iodb::EngineKind engine : kEngines) {
      auto it = engine_us_.find(engine);
      const std::vector<double> none;
      const std::vector<double>& values = it == engine_us_.end() ? none : it->second;
      const std::string name = iodb::EngineKindName(engine);
      emit("core.evaluate_us." + name, Median(values), "us", n(values));
      emit("core.engine_share." + name,
           static_cast<double>(values.size()) /
               static_cast<double>(std::max(1LL, evaluated)),
           "ratio", evaluated);
    }
    emit("core.models_enumerated", Mean(models_), "count", n(models_));
    emit("core.states_visited", Mean(states_), "count", n(states_));
    emit("core.assignments_tried", Mean(assignments_), "count",
         n(assignments_));
    emit("core.index_probes", Mean(probes_), "count", n(probes_));
    emit("core.serial_batch_us", Median(serial_batch_us_), "us",
         n(serial_batch_us_));
    emit("core.parallel_batch_us", Median(parallel_batch_us_), "us",
         n(parallel_batch_us_));
    emit("core.normalize_us", Median(normalize_us_), "us", n(normalize_us_));
    emit("stats.collect_us", Median(collect_us_), "us", n(collect_us_));
    emit("stats.planner_fingerprints_distinct",
         static_cast<double>(fleet_fingerprints_.size()), "count",
         static_cast<long long>(w_.dbs.size()));
    emit("stats.planner_fingerprints_distinct_revisions",
         static_cast<double>(revision_fingerprints_), "count",
         static_cast<long long>(w_.appends.size()));
    emit("storage.append_text_us", Median(append_text_us_), "us",
         n(append_text_us_));
    emit("storage.compact_us", Median(compact_us_), "us", n(compact_us_));
    emit("storage.registry_open_us", registry_open_us_, "us", 1);
    emit("storage.parse_mutation_us", Median(parse_mutation_us_), "us",
         n(parse_mutation_us_));
    emit("storage.vocab_save_us", Median(vocab_save_us_), "us",
         n(vocab_save_us_));
    emit("storage.wal_append_us", Median(wal_append_us_), "us",
         n(wal_append_us_));
    emit("storage.wal_sync_us", Median(wal_sync_us_), "us", n(wal_sync_us_));
    emit("storage.wal_bytes_per_append", Mean(wal_bytes_), "bytes",
         n(wal_bytes_));
    emit("storage.fsyncs_per_append", fsyncs_per_append_, "count",
         static_cast<long long>(w_.appends.size()));
    emit("storage.fsyncs_per_save", fsyncs_per_save_, "count",
         n(snapshot_bytes_));
    emit("storage.snapshot_encode_us", Median(snapshot_encode_us_), "us",
         n(snapshot_encode_us_));
    emit("storage.snapshot_bytes", Mean(snapshot_bytes_), "bytes",
         n(snapshot_bytes_));
    emit("storage.snapshot_decode_us", Sum(snapshot_decode_us_), "us",
         n(snapshot_decode_us_));
    emit("storage.wal_replay_us", Sum(wal_replay_us_), "us",
         n(wal_replay_us_));
    emit("trace.requests", static_cast<double>(eval_us_.size()), "count");
    emit("trace.overhead_us", Median(eval_us_) - Median(plain_eval_us_), "us",
         n(plain_eval_us_));
    out->requests = n(eval_us_) + n(batch_us_);
  }

 private:
  // The compiled plan for `request` on `db`, as the service would build
  // it: the request options plus the pinned version's cost model. Times
  // ParseQuery always and Prepare when the service missed (`miss`).
  bool PlanFor(const iodb::EvalRequest& request, const iodb::Database& db,
               bool miss, long long parent, long long rid,
               std::shared_ptr<const iodb::PreparedQuery>* plan,
               double* parse_us, double* prepare_us, std::string* error) {
    const long long pq = t_.Open("core.parse_query", parent, rid);
    iodb::Result<iodb::Query> query =
        iodb::ParseQuery(request.query, svc_.vocab());
    *parse_us = t_.Close(pq);
    if (!query.ok()) {
      *error = query.status().ToString();
      return false;
    }
    iodb::EntailOptions options = request.options;
    if (request.costing != 0) options.planner = iodb::stats::PlannerFor(db);
    const uint64_t key = iodb::FingerprintPlanInputs(query.value(), options);
    auto it = plans_.find(key);
    if (it != plans_.end() && !miss) {
      *plan = it->second;
      return true;
    }
    const long long pp = t_.Open("core.prepare", parent, rid);
    iodb::Result<iodb::PreparedQuery> prepared =
        iodb::Prepare(svc_.vocab(), query.value(), options);
    *prepare_us = t_.Close(pp);
    if (rid >= 0) prepare_us_.push_back(*prepare_us);
    if (!prepared.ok()) {
      *error = prepared.status().ToString();
      return false;
    }
    *plan = std::make_shared<const iodb::PreparedQuery>(
        std::move(prepared.value()));
    plans_[key] = *plan;
    return true;
  }

  bool Batch(const wirebench::Command& command, long long rid,
             std::string* error) {
    const long long root = t_.Open("request", -1, rid);
    std::vector<iodb::EvalRequest> requests;
    for (const EvalReq& req : command.members) {
      iodb::Result<iodb::EvalRequest> request =
          iodb::ParseEvalRequest(req.Line(w_.dbs));
      if (!request.ok()) {
        *error = request.status().ToString();
        return false;
      }
      requests.push_back(std::move(request.value()));
    }
    const long long sb = t_.Open("service.batch", root, rid);
    std::vector<iodb::Result<iodb::EvalResponse>> responses =
        svc_.EvalBatch(requests);
    const double batch_us = t_.Close(sb);

    // The same members through the core batch entry points, one call per
    // plan group, as EvalBatch groups them.
    std::vector<std::shared_ptr<const iodb::PreparedQuery>> plans;
    std::vector<const iodb::PreparedQuery*> group_plan;
    std::vector<std::vector<const iodb::Database*>> group_dbs;
    std::vector<iodb::EvaluationService::DatabasePtr> pins;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!responses[i].ok()) {
        *error = responses[i].status().ToString();
        return false;
      }
      pins.push_back(svc_.Snapshot(requests[i].db));
      std::shared_ptr<const iodb::PreparedQuery> plan;
      double parse_us = 0;
      double prepare_us = 0;
      if (!PlanFor(requests[i], *pins.back(), !responses[i].value().plan_cache_hit,
                   sb, rid, &plan, &parse_us, &prepare_us, error)) {
        return false;
      }
      auto at = std::find(group_plan.begin(), group_plan.end(), plan.get());
      if (at == group_plan.end()) {
        group_plan.push_back(plan.get());
        group_dbs.emplace_back();
        at = group_plan.end() - 1;
      }
      group_dbs[static_cast<size_t>(at - group_plan.begin())].push_back(
          pins.back().get());
      plans.push_back(std::move(plan));
    }
    const long long serial = t_.Open("core.serial_batch", sb, rid);
    for (size_t g = 0; g < group_plan.size(); ++g) {
      (void)group_plan[g]->EvaluateBatch(group_dbs[g]);
    }
    const double serial_us = t_.Close(serial);
    const long long parallel = t_.Open("core.parallel_batch", sb, rid);
    for (size_t g = 0; g < group_plan.size(); ++g) {
      (void)group_plan[g]->ParallelEvaluateBatch(group_dbs[g],
                                                 iodb::DefaultWorkerCount());
    }
    const double parallel_us = t_.Close(parallel);
    t_.Close(root);
    if (rid >= 0) {
      batch_us_.push_back(batch_us);
      serial_batch_us_.push_back(serial_us);
      parallel_batch_us_.push_back(parallel_us);
    }
    return true;
  }

  const Workload& w_;
  Tracer& t_;
  InProcessSession session_;
  iodb::EvaluationService svc_;
  iodb::EvaluationService plain_svc_;
  std::unordered_map<uint64_t, std::shared_ptr<const iodb::PreparedQuery>>
      plans_;
  long long write_requests_ = 1 << 30;  // request ids of the write half
  std::set<uint64_t> fleet_fingerprints_;
  size_t revision_fingerprints_ = 0;
  double fsyncs_per_append_ = 0;
  double fsyncs_per_save_ = 0;
  double registry_open_us_ = 0;
  std::vector<double> roundtrip_us_, parse_request_us_,
      eval_us_, plain_eval_us_, service_self_us_, batch_us_, pin_us_,
      mutate_us_, parse_query_us_, parse_database_us_, prepare_us_, models_,
      states_, assignments_, probes_, serial_batch_us_, parallel_batch_us_,
      normalize_us_, collect_us_, parse_mutation_us_, vocab_save_us_,
      wal_append_us_, wal_sync_us_, wal_bytes_, append_text_us_, compact_us_,
      snapshot_encode_us_, snapshot_bytes_, snapshot_decode_us_,
      wal_replay_us_;
  std::map<iodb::EngineKind, std::vector<double>> engine_us_;
};

bool WriteSpans(const Tracer& tracer, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id\tname\tstart_ns\tend_ns\tparent\trequest\n");
  const std::vector<Span>& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(out, "%zu\t%s\t%lld\t%lld\t%lld\t%lld\n", i, spans[i].name,
                 spans[i].start_ns, spans[i].end_ns, spans[i].parent,
                 spans[i].request);
  }
  return std::fclose(out) == 0;
}

}  // namespace

bool RunTraced(const Workload& workload, const std::vector<Command>& commands,
               double budget_s, const std::string& scratch_dir,
               const std::string& spans_path, TracedRun* out,
               std::string* error) {
  Tracer tracer;
  Replay replay(workload, &tracer);
  if (!replay.Load(error)) return false;
  using Pass = bool (Replay::*)(const Command&, long long, std::string*);
  const Pass passes[] = {&Replay::Command, &Replay::Roundtrip, &Replay::Plain};
  for (Pass pass : passes) {
    for (int i = 0; i < workload.warmup_commands; ++i) {
      if (!(replay.*pass)(workload.ReaderCommand(-1, i), -1, error)) {
        return false;
      }
    }
  }
  // The layer pass sets how many commands fit the budget; the other two
  // passes replay exactly those.
  const Clock::time_point start = Clock::now();
  size_t replayed = 0;
  while (replayed < commands.size()) {
    if (!replay.Command(commands[replayed], static_cast<long long>(replayed) + 1,
                        error)) {
      return false;
    }
    ++replayed;
    if (std::chrono::duration<double>(Clock::now() - start).count() >=
        budget_s) {
      break;
    }
  }
  for (Pass pass : {passes[1], passes[2]}) {
    for (size_t i = 0; i < replayed; ++i) {
      if (!(replay.*pass)(commands[i], static_cast<long long>(i) + 1, error)) {
        return false;
      }
    }
  }
  if (!replay.Writes(scratch_dir, error)) return false;
  replay.Report(out);
  out->spans = static_cast<long long>(tracer.spans().size());
  if (!spans_path.empty() && !WriteSpans(tracer, spans_path)) {
    *error = "cannot write spans to " + spans_path;
    return false;
  }
  return true;
}

}  // namespace wirebench
