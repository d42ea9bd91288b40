// The serving line protocol, factored out of tools/iodb_serve so the
// single-client stdin loop and the concurrent socket server speak
// byte-identical dialects of the same protocol (see the iodb_serve
// header comment and docs/SERVING.md for the verb reference).
//
// ServingState is the per-process half: the shared EvaluationService
// (or the durable registry wrapping one) that every session serves
// from. ProtocolSession is the per-client half: one command loop over
// one LineChannel.
//
// Concurrency contract: any number of ProtocolSessions may Run()
// concurrently over one ServingState, and the protocol holds no lock of
// its own. EVAL/BATCH/INFO/STATS go straight to the service (readers
// pin a published database version and never block). LOAD/APPEND/SAVE
// go to the one writer seam below them — the durable registry, which
// serializes its own writes, or in bare mode the service's publish
// path — so writers serialize against each other only, never against
// readers. OPEN (which swaps the whole registry) is only allowed on
// sessions that opted in (allow_open), i.e. the single-client stdin
// mode.

#ifndef IODB_SERVER_PROTOCOL_H_
#define IODB_SERVER_PROTOCOL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "server/line_channel.h"
#include "service/service.h"
#include "storage/durable_registry.h"
#include "storage/wal.h"
#include "util/budget.h"

namespace iodb::server {

/// Payload and name bytes a group of pipelined LOADs may reach before it
/// is served: bounds the text and the unpublished databases one session
/// holds at once. A constant, not a knob.
inline constexpr size_t kLoadGroupBytes = size_t{256} << 10;

/// The process-wide serving state: a bare in-memory service, swapped
/// for a durable registry's service when one is open.
class ServingState {
 public:
  ServingState(ServiceOptions options, storage::WalSyncOptions sync);

  /// Opens (creating if needed) a durable registry at `dir` and swaps it
  /// in as the serving state. The registry it replaces is flushed first;
  /// if that flush fails, the error is returned and the current registry
  /// keeps serving. Callers must guarantee no session is mid-request
  /// (startup, or the single-session stdin mode).
  Status OpenRegistry(const std::string& dir);

  EvaluationService& service();
  storage::DurableRegistry* registry() { return registry_.get(); }

  /// Shutdown hook: makes every acknowledged append durable.
  Status FlushRegistry();

 private:
  ServiceOptions options_;
  storage::WalSyncOptions sync_;
  std::unique_ptr<EvaluationService> bare_;
  std::unique_ptr<storage::DurableRegistry> registry_;
};

/// One client's command loop. Reads commands from the channel, writes
/// responses to it, and flushes before it waits for input. A run of
/// pipelined LOADs is parsed and materialized on the service's workers
/// and answered in command order ("Pipelined LOAD" in docs/SERVING.md).
class ProtocolSession {
 public:
  struct Options {
    /// Permit the OPEN verb (single-session modes only; a socket session
    /// may not swap the registry under its peers).
    bool allow_open = false;
  };

  /// `cancel` (optional, caller-owned) aborts in-flight evaluations —
  /// the socket server trips it when the peer disconnects.
  ProtocolSession(ServingState* state, LineChannel* channel, Options options,
                  const CancelToken* cancel = nullptr);

  enum class ExitReason {
    kQuit,         // QUIT verb or clean EOF
    kInterrupted,  // the channel's wake fd tripped (shutdown signal)
    kChannelError, // read or write failure (peer reset, broken pipe)
  };

  /// Serves commands until the session ends; returns why it ended.
  ExitReason Run();

 private:
  // Verb handlers append their response lines to the channel.
  void HandleLoad(const std::string& name, const std::string& text);
  void HandleAppend(const std::string& name, const std::string& text);
  void HandleOpen(const std::string& dir);
  void HandleSave(const std::string& name);
  void HandleInfo(const std::string& name);
  void HandleEval(const std::string& args);
  void HandleBatch(const std::string& args, bool* quit);
  void Err(const std::string& message);
  void ErrLineTooLong(size_t bytes);
  void PrintResponse(const Result<EvalResponse>& response);

  // A LOAD whose payload has been read, waiting in a group.
  struct LoadCommand {
    std::string name;
    std::string text;
  };

  /// Extends `group` (one LOAD, payload read) with the LOADs that follow
  /// it and can be read without waiting, up to kLoadGroupBytes. Returns
  /// the LOAD whose payload ran dry mid-way, if one did: it is not in
  /// the group and the rest of its payload is still to be read.
  std::optional<LoadCommand> GatherLoads(std::vector<LoadCommand>* group);

  /// Parses and materializes `group` on the service's workers, then
  /// publishes each LOAD and writes its response in command order.
  void ServeLoads(std::vector<LoadCommand>* group);
  void RespondLoad(const Result<DbInfo>& info);

  /// Reads payload lines up to the END terminator. An over-long line is
  /// skipped, and the length of the first one lands in `*too_long_bytes`
  /// (left 0 if there is none): the payload is still consumed through END.
  LineChannel::ReadStatus ReadUntilEnd(std::string* text,
                                       size_t* too_long_bytes);

  ServingState* state_;
  LineChannel* channel_;
  Options options_;
  const CancelToken* cancel_;
};

}  // namespace iodb::server

#endif  // IODB_SERVER_PROTOCOL_H_
