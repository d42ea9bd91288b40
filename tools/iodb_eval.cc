// iodb_eval: command-line entailment checker.
//
// Usage:
//   iodb_eval DB_FILE [QUERY] [--query-file=PATH]
//             [--db-snapshot=PATH]
//             [--semantics=finite|integer|rational]
//             [--engine=auto|brute-force|path-decomposition|bounded-width
//                     |disjunctive-search|order-free]
//             [--costing=on|off] [--countermodel] [--explain]
//
// Reads a database in the parser's text format from DB_FILE and evaluates
// the query (also text format) against it. --costing=on (the default)
// feeds the database's statistics-backed cost model (src/stats) into
// Prepare(), which may reorder conjunct schedules and disjuncts and
// suggest an engine route; --costing=off plans from the pure
// topological order. Costing never changes verdicts. --db-snapshot=PATH replaces
// DB_FILE with a binary snapshot (storage/snapshot.h; write one with
// iodb_pack) and skips the text parser entirely — the vocabulary and
// database identity come from the file. The query comes from exactly
// one source: the QUERY argument, `-` to read it from stdin, or
// --query-file=PATH. --explain prints the compiled plan (passes with
// provenance, per-disjunct classification) before the verdict and the
// evaluation work counters (models enumerated, incremental push/pop
// operations, index probes, assignments) after it. Engine
// names are the ones printed by the tool itself (EngineKindName), so
// output and flags round-trip; the historical shorthands "paths" and
// "disjunctive" are still accepted. Exit code 0 = entailed, 1 = not
// entailed, 2 = error.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/engine.h"
#include "core/parser.h"
#include "core/prepare.h"
#include "core/printer.h"
#include "stats/stats.h"
#include "storage/snapshot.h"

namespace {

constexpr char kUsage[] =
    "usage: iodb_eval DB_FILE [QUERY] [--query-file=PATH] "
    "[--db-snapshot=PATH] [--semantics=...] [--engine=...] "
    "[--costing=on|off] [--countermodel] [--explain]; QUERY may be '-' to "
    "read from stdin; --db-snapshot replaces DB_FILE";

int Fail(const std::string& message) {
  std::fprintf(stderr, "iodb_eval: %s\n", message.c_str());
  return 2;
}

std::string ReadAll(std::istream& in) {
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iodb;
  if (argc < 2) return Fail(kUsage);

  EntailOptions options;
  bool explain = false;
  bool costing = true;
  std::string db_file;
  std::string db_snapshot;
  std::string query_arg;
  std::string query_file;
  int positionals = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--countermodel") {
      options.want_countermodel = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg.rfind("--query-file=", 0) == 0) {
      query_file = arg.substr(13);
      if (query_file.empty()) return Fail("--query-file needs a path");
    } else if (arg.rfind("--db-snapshot=", 0) == 0) {
      db_snapshot = arg.substr(14);
      if (db_snapshot.empty()) return Fail("--db-snapshot needs a path");
    } else if (arg.rfind("--semantics=", 0) == 0) {
      std::string value = arg.substr(12);
      std::optional<OrderSemantics> semantics = ParseOrderSemantics(value);
      if (!semantics.has_value()) {
        return Fail("unknown semantics '" + value + "'");
      }
      options.semantics = *semantics;
    } else if (arg.rfind("--engine=", 0) == 0) {
      std::string value = arg.substr(9);
      std::optional<EngineKind> kind = ParseEngineKind(value);
      if (!kind.has_value()) return Fail("unknown engine '" + value + "'");
      options.engine = *kind;
    } else if (arg.rfind("--costing=", 0) == 0) {
      std::string value = arg.substr(10);
      if (value == "on") {
        costing = true;
      } else if (value == "off") {
        costing = false;
      } else {
        return Fail("bad costing value '" + value + "' (want on|off)");
      }
    } else if (arg.rfind("--", 0) == 0 && arg != "-") {
      return Fail("unknown flag '" + arg + "'");
    } else if (positionals == 0 && db_snapshot.empty()) {
      // Without --db-snapshot the first positional is the database
      // text file; with it, every positional is query text.
      db_file = arg;
      ++positionals;
    } else if (query_arg.empty()) {
      query_arg = arg;
      ++positionals;
    } else {
      return Fail(kUsage);
    }
  }
  if (db_file.empty() && db_snapshot.empty()) return Fail(kUsage);
  if (!db_snapshot.empty() && !db_file.empty()) {
    // --db-snapshot appeared after a positional: that positional was
    // really the query.
    if (!query_arg.empty()) return Fail(kUsage);
    query_arg = db_file;
    db_file.clear();
  }

  // Resolve the query text from its single source; a positional '-' is
  // shorthand for --query-file=-.
  if (!query_file.empty() && !query_arg.empty()) {
    return Fail("pass either QUERY or --query-file, not both");
  }
  if (query_arg == "-") {
    query_file = "-";
    query_arg.clear();
  }
  std::string query_text;
  if (query_file == "-") {
    query_text = ReadAll(std::cin);
  } else if (!query_file.empty()) {
    std::ifstream qfile(query_file);
    if (!qfile) return Fail("cannot open " + query_file);
    query_text = ReadAll(qfile);
  } else if (!query_arg.empty()) {
    query_text = query_arg;
  } else {
    return Fail(kUsage);
  }

  // Resolve the database: binary snapshot (vocabulary restored from the
  // file, no text parse) or parser-format text.
  VocabularyPtr vocab;
  std::optional<Result<Database>> opened;
  if (!db_snapshot.empty()) {
    opened = storage::OpenSnapshot(db_snapshot);
    if (!opened->ok()) {
      return Fail("snapshot: " + opened->status().ToString());
    }
    vocab = opened->value().vocab();
  } else {
    std::ifstream file(db_file);
    if (!file) return Fail("cannot open " + db_file);
    vocab = std::make_shared<Vocabulary>();
    opened = ParseDatabase(ReadAll(file), vocab);
    if (!opened->ok()) {
      return Fail("database: " + opened->status().ToString());
    }
  }
  Result<Database>& db = *opened;
  Result<Query> query = ParseQuery(query_text, vocab);
  if (!query.ok()) return Fail("query: " + query.status().ToString());

  if (costing) options.planner = stats::PlannerFor(db.value());
  Result<PreparedQuery> prepared = Prepare(vocab, query.value(), options);
  if (!prepared.ok()) return Fail(prepared.status().ToString());
  if (explain) std::printf("%s", prepared.value().Explain().c_str());

  Result<EntailResult> result = prepared.value().Evaluate(db.value());
  if (!result.ok()) return Fail(result.status().ToString());

  std::printf("%s  [engine: %s, semantics: %s]\n",
              result.value().entailed ? "ENTAILED" : "NOT ENTAILED",
              EngineKindName(result.value().engine_used),
              OrderSemanticsName(options.semantics));
  if (options.want_countermodel && !result.value().entailed &&
      result.value().countermodel.has_value()) {
    std::printf("countermodel: %s\n",
                result.value().countermodel->ToString().c_str());
  }
  if (explain) {
    std::printf("%s",
                prepared.value().ExplainEvaluation(result.value()).c_str());
  }
  return result.value().entailed ? 0 : 1;
}
