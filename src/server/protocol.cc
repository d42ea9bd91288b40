#include "server/protocol.h"

#include <cstdlib>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/stats.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace iodb::server {

ServingState::ServingState(ServiceOptions options,
                           storage::WalSyncOptions sync)
    : options_(options),
      sync_(sync),
      bare_(std::make_unique<EvaluationService>(options)) {}

Status ServingState::OpenRegistry(const std::string& dir) {
  // A registry does not flush on destruction: make the current one's
  // acknowledged appends durable before dropping it, or keep it.
  Status flushed = FlushRegistry();
  if (!flushed.ok()) return flushed;
  Result<std::unique_ptr<storage::DurableRegistry>> registry =
      storage::DurableRegistry::Open(dir, options_, sync_);
  if (!registry.ok()) return registry.status();
  registry_ = std::move(registry.value());
  return Status::Ok();
}

EvaluationService& ServingState::service() {
  return registry_ != nullptr ? registry_->service() : *bare_;
}

Status ServingState::FlushRegistry() {
  if (registry_ == nullptr) return Status::Ok();
  return registry_->Flush();
}

namespace {

// Splits a command line into its verb and its (stripped) arguments; the
// verb is empty for a blank or comment line.
void SplitCommand(std::string_view line, std::string* command,
                  std::string* args) {
  std::string_view rest = StripWhitespace(line);
  if (rest.empty() || rest[0] == '#') {
    command->clear();
    args->clear();
    return;
  }
  const size_t space = rest.find(' ');
  command->assign(rest.substr(0, space));
  if (space == std::string_view::npos) {
    args->clear();
  } else {
    args->assign(StripWhitespace(rest.substr(space)));
  }
}

}  // namespace

ProtocolSession::ProtocolSession(ServingState* state, LineChannel* channel,
                                 Options options, const CancelToken* cancel)
    : state_(state), channel_(channel), options_(options), cancel_(cancel) {}

void ProtocolSession::Err(const std::string& message) {
  channel_->Write("ERR " + message + "\n");
}

void ProtocolSession::ErrLineTooLong(size_t bytes) {
  Err("line-too-long (" + std::to_string(bytes) + " bytes; limit " +
      std::to_string(kMaxLineBytes) + ")");
}

// Prints the full response of one served request: the verdict line plus
// the optional countermodel and explain payloads. Budget exhaustion is
// rendered structured ("ERR deadline-exceeded ..."), so clients can
// retry-with-more-budget without parsing prose.
void ProtocolSession::PrintResponse(const Result<EvalResponse>& response) {
  if (!response.ok()) {
    const Status& status = response.status();
    if (status.code() == StatusCode::kDeadlineExceeded) {
      Err("deadline-exceeded " + status.message());
    } else if (status.code() == StatusCode::kCancelled) {
      Err("cancelled " + status.message());
    } else {
      Err(status.ToString());
    }
    return;
  }
  channel_->Write(FormatResponseLine(response.value()) + "\n");
  if (response.value().countermodel.has_value()) {
    channel_->Write("countermodel: " +
                    response.value().countermodel->ToString() + "\n");
  }
  if (!response.value().explain.empty()) {
    channel_->Write(response.value().explain);
  }
}

LineChannel::ReadStatus ProtocolSession::ReadUntilEnd(
    std::string* text, size_t* too_long_bytes) {
  std::string line;
  for (;;) {
    LineChannel::ReadStatus status = channel_->ReadLine(&line);
    if (status == LineChannel::ReadStatus::kTooLong) {
      if (*too_long_bytes == 0) *too_long_bytes = channel_->too_long_bytes();
      continue;
    }
    if (status != LineChannel::ReadStatus::kLine) return status;
    if (StripWhitespace(line) == "END") {
      return LineChannel::ReadStatus::kLine;
    }
    *text += line;
    *text += '\n';
  }
}

void ProtocolSession::HandleLoad(const std::string& name,
                                 const std::string& text) {
  storage::DurableRegistry* registry = state_->registry();
  RespondLoad(registry != nullptr ? registry->Load(name, text)
                                  : state_->service().Load(name, text));
}

void ProtocolSession::RespondLoad(const Result<DbInfo>& info) {
  if (!info.ok()) {
    Err(info.status().ToString());
  } else {
    channel_->Write("OK db=" + info.value().name +
                    " atoms=" + std::to_string(info.value().atoms) + "\n");
  }
}

std::optional<ProtocolSession::LoadCommand> ProtocolSession::GatherLoads(
    std::vector<LoadCommand>* group) {
  size_t bytes = 0;
  for (const LoadCommand& load : *group) {
    bytes += load.name.size() + load.text.size();
  }
  std::string line;
  std::string_view next;
  while (bytes < kLoadGroupBytes && channel_->PeekLine(&next)) {
    std::string command, args;
    SplitCommand(next, &command, &args);
    if (command.empty()) {  // a blank or comment line between LOADs
      channel_->ReadLine(&line);
      continue;
    }
    if (command != "LOAD" || args.empty()) break;
    channel_->ReadLine(&line);  // the peeked command line
    LoadCommand load{std::move(args), std::string()};
    for (;;) {
      if (!channel_->PeekLine(&next)) return load;
      channel_->ReadLine(&line);
      if (StripWhitespace(line) == "END") break;
      load.text += line;
      load.text += '\n';
    }
    bytes += load.name.size() + load.text.size();
    group->push_back(std::move(load));
  }
  return std::nullopt;
}

void ProtocolSession::ServeLoads(std::vector<LoadCommand>* group) {
  if (group->size() == 1) {
    HandleLoad(group->front().name, group->front().text);
    return;
  }
  EvaluationService& service = state_->service();
  storage::DurableRegistry* registry = state_->registry();
  const int n = static_cast<int>(group->size());
  // Uids in command order, whichever worker parses which database.
  std::vector<uint64_t> uids(n);
  for (uint64_t& uid : uids) uid = Database::NextUid();
  // Workers register no predicate: a parse that needs one stops and
  // names it, and is finished in command order below, so predicate ids
  // come out as a one-at-a-time session assigns them. Every other
  // outcome is already the serial one (ParseDatabaseWithoutRegistering).
  std::vector<std::optional<Result<Database>>> dbs(n);
  std::vector<std::string> unregistered(n);
  auto materialize = [&](int i) {
    dbs[i] = service.Materialize((*group)[i].text, uids[i], &unregistered[i]);
  };
  ParallelFor(n, service.num_workers(), materialize);
  for (int i = 0; i < n; ++i) {
    if (!unregistered[i].empty()) {
      // Registrations since the first try may have unblocked this parse
      // and later ones: retry, in parallel, each whose missing predicate
      // now exists. (One whose missing predicate is still absent would
      // stop at the same statement again.)
      std::vector<int> retry;
      for (int j = i; j < n; ++j) {
        if (!unregistered[j].empty() &&
            service.vocab()->FindPredicate(unregistered[j]).has_value()) {
          retry.push_back(j);
        }
      }
      ParallelFor(static_cast<int>(retry.size()), service.num_workers(),
                  [&](int k) { materialize(retry[k]); });
    }
    if (!unregistered[i].empty()) {
      // Its turn has come: parse with registration, as LOAD alone does.
      dbs[i] = service.Materialize((*group)[i].text, uids[i]);
    }
    Result<Database>& db = *dbs[i];
    if (!db.ok()) {
      RespondLoad(db.status());
      continue;
    }
    const std::string& name = (*group)[i].name;
    RespondLoad(registry != nullptr
                    ? registry->Register(name, std::move(db.value()))
                    : service.Register(name, std::move(db.value())));
  }
}

void ProtocolSession::HandleAppend(const std::string& name,
                                   const std::string& text) {
  storage::DurableRegistry* registry = state_->registry();
  Result<DbInfo> info = [&] {
    if (registry != nullptr) return registry->AppendText(name, text);
    // Bare mode: the same parse/apply pipeline as the WAL path, minus
    // the log — still the single-writer publish seam of the service.
    EvaluationService& service = state_->service();
    Result<std::vector<storage::WalRecord>> records =
        storage::ParseMutationText(text, service.vocab());
    if (!records.ok()) return Result<DbInfo>(records.status());
    return service.Mutate(name, [&](Database* db) {
      return storage::ApplyWalRecords(records.value(), db);
    });
  }();
  if (!info.ok()) {
    Err(info.status().ToString());
    return;
  }
  channel_->Write("OK db=" + info.value().name +
                  " atoms=" + std::to_string(info.value().atoms) +
                  " revision=" + std::to_string(info.value().revision) +
                  "\n");
}

void ProtocolSession::HandleOpen(const std::string& dir) {
  Status status = state_->OpenRegistry(dir);
  if (!status.ok()) {
    Err(status.ToString());
    return;
  }
  channel_->Write(
      "OK dir=" + dir + " databases=" +
      std::to_string(state_->service().database_names().size()) + "\n");
}

void ProtocolSession::HandleSave(const std::string& name) {
  storage::DurableRegistry* registry = state_->registry();
  if (registry == nullptr) {
    Err("SAVE needs an open registry (use OPEN <dir> or --data-dir)");
    return;
  }
  Result<DbInfo> info = registry->Compact(name);
  if (!info.ok()) {
    Err(info.status().ToString());
    return;
  }
  channel_->Write("OK db=" + info.value().name +
                  " atoms=" + std::to_string(info.value().atoms) + "\n");
}

void ProtocolSession::HandleInfo(const std::string& name) {
  EvaluationService& service = state_->service();
  if (name.empty()) {
    channel_->Write(
        "OK databases=" +
        std::to_string(service.database_names().size()) +
        " vocab-uid=" + std::to_string(service.vocab()->uid()) + "\n");
    return;
  }
  EvaluationService::DatabasePtr db = service.Snapshot(name);
  if (db == nullptr) {
    Err("INVALID_ARGUMENT: unknown database '" + name + "'");
    return;
  }
  channel_->Write("OK db=" + name +
                  " atoms=" + std::to_string(db->SizeAtoms()) +
                  " uid=" + std::to_string(db->uid()) +
                  " revision=" + std::to_string(db->revision()) +
                  " stats=" +
                  (stats::StatsArePersisted(*db) ? "persisted" : "rebuilt") +
                  "\n");
}

void ProtocolSession::HandleEval(const std::string& args) {
  Result<EvalRequest> request = ParseEvalRequest(args);
  if (!request.ok()) {
    Err(request.status().ToString());
    return;
  }
  PrintResponse(state_->service().Eval(request.value(), cancel_));
}

void ProtocolSession::HandleBatch(const std::string& args, bool* quit) {
  // Bounded so a single protocol line cannot force a huge
  // pre-allocation; large workloads stream multiple batches.
  constexpr int kMaxBatch = 65536;
  int n = std::atoi(args.c_str());
  if (n <= 0 || n > kMaxBatch) {
    Err("BATCH needs a request count in [1, " + std::to_string(kMaxBatch) +
        "]");
    return;
  }
  // Consume all n request lines BEFORE parsing: a parse failure must
  // not leave unread batch payload to be re-interpreted as protocol
  // commands.
  std::vector<std::string> request_lines(static_cast<size_t>(n));
  size_t too_long = 0;  // the first over-long request line fails the batch
  for (int i = 0; i < n; ++i) {
    LineChannel::ReadStatus status =
        channel_->ReadLine(&request_lines[static_cast<size_t>(i)]);
    if (status == LineChannel::ReadStatus::kTooLong) {
      if (too_long == 0) too_long = channel_->too_long_bytes();
      continue;
    }
    if (status == LineChannel::ReadStatus::kInterrupted) {
      *quit = true;
      return;
    }
    if (status != LineChannel::ReadStatus::kLine) {
      Err("unexpected EOF inside BATCH");
      *quit = true;
      return;
    }
  }
  if (too_long > 0) {
    ErrLineTooLong(too_long);
    return;
  }
  std::vector<EvalRequest> requests;
  bool parse_failed = false;
  for (int i = 0; i < n; ++i) {
    Result<EvalRequest> request =
        ParseEvalRequest(request_lines[static_cast<size_t>(i)]);
    if (!request.ok()) {
      // Abort the whole batch: slots after a dropped line would shift.
      if (!parse_failed) {
        Err("request " + std::to_string(i) + ": " +
            request.status().ToString());
      }
      parse_failed = true;
    } else {
      requests.push_back(std::move(request.value()));
    }
  }
  if (parse_failed) return;
  for (const Result<EvalResponse>& response :
       state_->service().EvalBatch(requests, cancel_)) {
    PrintResponse(response);
  }
}

ProtocolSession::ExitReason ProtocolSession::Run() {
  std::string line;
  for (;;) {
    if (!channel_->Flush()) return ExitReason::kChannelError;
    LineChannel::ReadStatus read = channel_->ReadLine(&line);
    if (read == LineChannel::ReadStatus::kInterrupted) {
      return ExitReason::kInterrupted;
    }
    if (read == LineChannel::ReadStatus::kEof) return ExitReason::kQuit;
    if (read == LineChannel::ReadStatus::kError) {
      return ExitReason::kChannelError;
    }
    if (read == LineChannel::ReadStatus::kTooLong) {
      ErrLineTooLong(channel_->too_long_bytes());
      continue;
    }
    std::string command, args;
    SplitCommand(line, &command, &args);
    if (command.empty()) continue;

    if (command == "QUIT") {
      break;
    } else if (command == "LOAD" || command == "APPEND") {
      if (args.empty()) {
        Err(command + " needs a database name");
        continue;
      }
      LoadCommand load{std::move(args), std::string()};
      bool unterminated = false;
      for (;;) {
        size_t too_long = 0;
        LineChannel::ReadStatus payload = ReadUntilEnd(&load.text, &too_long);
        if (payload == LineChannel::ReadStatus::kInterrupted) {
          return ExitReason::kInterrupted;
        }
        if (payload != LineChannel::ReadStatus::kLine) {
          Err("unterminated " + command + " (missing END)");
          unterminated = true;
          break;
        }
        if (too_long > 0) {
          ErrLineTooLong(too_long);
          break;
        }
        if (command == "APPEND") {
          HandleAppend(load.name, load.text);
          break;
        }
        std::vector<LoadCommand> group;
        group.push_back(std::move(load));
        std::optional<LoadCommand> partial = GatherLoads(&group);
        ServeLoads(&group);
        if (!partial.has_value()) break;
        // The next LOAD's payload is still arriving: answer the group
        // before waiting for the rest of it.
        if (!channel_->Flush()) return ExitReason::kChannelError;
        load = std::move(*partial);
      }
      if (unterminated) break;
    } else if (command == "OPEN") {
      if (!options_.allow_open) {
        Err("OPEN is not available on socket sessions (start the server "
            "with --data-dir)");
        continue;
      }
      if (args.empty()) {
        Err("OPEN needs a directory");
        continue;
      }
      HandleOpen(args);
    } else if (command == "SAVE") {
      if (args.empty()) {
        Err("SAVE needs a database name");
        continue;
      }
      HandleSave(args);
    } else if (command == "INFO") {
      HandleInfo(args);
    } else if (command == "EVAL") {
      HandleEval(args);
    } else if (command == "BATCH") {
      bool quit = false;
      HandleBatch(args, &quit);
      if (quit) break;
    } else if (command == "STATS") {
      channel_->Write(state_->service().stats().ToString() + "OK\n");
    } else {
      // Structured so scripted clients can distinguish a typo'd verb
      // from a failed command; the session stays alive.
      Err("unknown-verb '" + command + "'");
    }
  }
  if (!channel_->Flush()) return ExitReason::kChannelError;
  return ExitReason::kQuit;
}

}  // namespace iodb::server
