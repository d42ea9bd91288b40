// Seeded workload generation for the wire benchmark. Everything the
// server sees (LOAD payloads, EVAL/BATCH lines, APPEND groups) is text
// generated here from the --seed argument; the same seed yields the same
// bytes.

#ifndef WIREBENCH_WORKLOAD_H_
#define WIREBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wirebench {

/// One database of the workload's fleet.
struct DbSpec {
  std::string name;
  /// LOAD payload (parser database format).
  std::string text;
  /// Small enough for the oracle's brute-force cross-check.
  bool small = false;
};

/// One evaluation request: an EVAL line, or one member of a BATCH.
struct EvalReq {
  int db = 0;               // index into Workload::dbs
  std::string flags;        // wire flags between the db name and the query
  std::string query;        // query text
  bool countermodel = false;

  /// "<db-name> <flags> <query>", the EVAL argument / BATCH member line.
  std::string Line(const std::vector<DbSpec>& dbs) const;
};

/// Members of every reader BATCH.
inline constexpr int kBatchSize = 16;

/// One reader command: an EVAL (one member) or a BATCH (several).
struct Command {
  bool batch = false;
  std::vector<EvalReq> members;
};

/// One APPEND group of the writer, optionally followed by a SAVE.
struct AppendOp {
  int db = 0;
  std::string text;
  bool save_after = false;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  std::vector<DbSpec> dbs;
  /// Reader connections (closed loop each).
  int readers = 1;
  /// write_mix: the server runs on a data dir, reader EVALs carry
  /// --identity (versions change underneath them), the writer sends every
  /// append concurrently with the readers (the timed window lasts until
  /// it is done), and the run ends with restarts. The other workloads
  /// send no writes; their appends feed only the traced replay.
  bool durable = false;
  /// Fixed query pool (fleet_reads, write_mix); empty = fresh queries.
  std::vector<EvalReq> pool;
  /// The writer's fixed append sequence.
  std::vector<AppendOp> appends;
  /// Warm-up requests sent during set-up (plan-cache fill).
  int warmup_commands = 0;
  /// Every `batch_every`-th reader command is a BATCH.
  int batch_every = 16;
  /// Query used to time recovery after the restart (cheap, any db).
  EvalReq recovery_probe;

  /// The deterministic `index`-th command of reader `reader`.
  Command ReaderCommand(int reader, long long index) const;

  /// Bytes of LOAD payload plus APPEND payload.
  long long InputBytes() const;
};

/// Builds the named workload ("fleet_reads", "engine_mix", "write_mix");
/// `tiny` shrinks everything for the self-test. Returns false on an
/// unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, bool tiny,
                  Workload* out);

}  // namespace wirebench

#endif  // WIREBENCH_WORKLOAD_H_
