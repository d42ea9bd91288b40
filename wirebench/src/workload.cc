#include "workload.h"

#include <algorithm>

#include "util/random.h"

namespace wirebench {
namespace {

// Predicates of the monadic fleets; the binary instances use R/2, S/2,
// P/1 and Q/1.
constexpr int kPreds = 4;
// engine_mix: the wide monadic databases come first, then the binary ones.
// The fleet is drawn from the seed; with 256 databases its mean request
// cost no longer differs measurably between seeds (with 64 it moved the
// median latency by a quarter).
constexpr int kWideDbs = 256;
// engine_mix's wide databases and queries draw labels from this many
// predicates, so that its fresh queries almost never repeat a text.
constexpr int kWidePreds = 16;

// Per-database generator state, kept so the writer's appends extend the
// same chains the LOAD payload built.
struct DbState {
  enum class Kind { kChains, kTotal, kBinary } kind = Kind::kChains;
  std::vector<std::string> points;
  std::vector<std::string> tails;  // last point of each chain
  int fresh = 0;                   // counter for appended point names
};

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL ^ (b + 0x632BE59BD9B4E019ULL);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return x;
}

std::string Pred(int k) { return "P" + std::to_string(k); }

// Monadic chains: `chains` chains of [lo, hi] points, each link '<' with
// probability `strict` (else '<='), every point carrying each of `preds`
// predicates with probability `label`. `total` makes one strictly ordered
// chain (the fleet's fully-known databases).
DbSpec MonadicDb(iodb::Rng& rng, const std::string& name, int chains, int lo,
                 int hi, double strict, bool total, DbState* state,
                 int preds = kPreds, double label = 0.3) {
  DbSpec spec;
  spec.name = name;
  state->kind = total ? DbState::Kind::kTotal : DbState::Kind::kChains;
  std::string text;
  for (int c = 0; c < chains; ++c) {
    const int len = rng.UniformInt(lo, hi);
    std::string line;
    for (int i = 0; i < len; ++i) {
      const std::string point = "c" + std::to_string(c) + "_" +
                                std::to_string(i);
      if (i > 0) line += total || rng.Bernoulli(strict) ? " < " : " <= ";
      line += point;
      state->points.push_back(point);
    }
    text += line + "\n";
    state->tails.push_back(state->points.back());
  }
  if (total) {
    // Link the chains into one strict total order.
    for (int c = 1; c < chains; ++c) {
      text += state->tails[static_cast<size_t>(c - 1)] + " < c" +
              std::to_string(c) + "_0\n";
    }
    state->tails = {state->tails.back()};
  }
  std::vector<bool> used(static_cast<size_t>(preds), false);
  for (const std::string& point : state->points) {
    for (int k = 0; k < preds; ++k) {
      if (rng.Bernoulli(label)) {
        text += Pred(k) + "(" + point + ")\n";
        used[static_cast<size_t>(k)] = true;
      }
    }
  }
  // Every predicate must exist, or queries naming it fail to parse.
  for (int k = 0; k < preds; ++k) {
    if (!used[static_cast<size_t>(k)]) {
      text += Pred(k) + "(" + state->points.front() + ")\n";
    }
  }
  spec.text = text;
  return spec;
}

// Tiny binary-predicate instance (brute force): 2 chains of 2-3 points,
// 2-4 facts each of R and S, 1-2 each of P and Q.
DbSpec BinaryDb(iodb::Rng& rng, const std::string& name, DbState* state) {
  DbSpec spec;
  spec.name = name;
  spec.small = true;
  state->kind = DbState::Kind::kBinary;
  std::string text;
  for (int c = 0; c < 2; ++c) {
    const int len = rng.UniformInt(2, 3);
    std::string line;
    for (int i = 0; i < len; ++i) {
      const std::string point = "b" + std::to_string(c) + "_" +
                                std::to_string(i);
      if (i > 0) line += rng.Bernoulli(0.6) ? " < " : " <= ";
      line += point;
      state->points.push_back(point);
    }
    text += line + "\n";
    state->tails.push_back(state->points.back());
  }
  for (const char* pred : {"R", "S"}) {
    const int facts = rng.UniformInt(2, 4);
    for (int i = 0; i < facts; ++i) {
      text += std::string(pred) + "(" + rng.Pick(state->points) + ", " +
              rng.Pick(state->points) + ")\n";
    }
  }
  for (const char* pred : {"P", "Q"}) {
    const int facts = rng.UniformInt(1, 2);
    for (int i = 0; i < facts; ++i) {
      text += std::string(pred) + "(" + rng.Pick(state->points) + ")\n";
    }
  }
  spec.text = text;
  return spec;
}

// Conjunctive monadic query over t0..t{n-1}: a labelled tree-shaped
// order pattern (mostly a path, sometimes branching).
std::string MonadicConjunct(iodb::Rng& rng, int vars) {
  std::string head = "exists";
  std::vector<std::string> atoms;
  for (int i = 0; i < vars; ++i) {
    const std::string v = "t" + std::to_string(i);
    head += " " + v;
    atoms.push_back(Pred(rng.UniformInt(0, kPreds - 1)) + "(" + v + ")");
    if (rng.Bernoulli(0.2)) {
      atoms.push_back(Pred(rng.UniformInt(0, kPreds - 1)) + "(" + v + ")");
    }
    if (i > 0) {
      const int parent = rng.Bernoulli(0.75) ? i - 1 : rng.UniformInt(0, i - 1);
      atoms.push_back("t" + std::to_string(parent) +
                      (rng.Bernoulli(0.6) ? " < " : " <= ") + v);
    }
  }
  std::string out = head + ":";
  for (size_t i = 0; i < atoms.size(); ++i) {
    out += (i == 0 ? " " : " & ") + atoms[i];
  }
  return out;
}

std::string MonadicDisjunction(iodb::Rng& rng, int disjuncts, int lo, int hi) {
  std::string out;
  for (int d = 0; d < disjuncts; ++d) {
    if (d > 0) out += " | ";
    out += MonadicConjunct(rng, rng.UniformInt(lo, hi));
  }
  return out;
}

// Binary query with at most 3 variables (keeps brute force tiny): 1-2
// atoms of R or S over any variables, P or Q on some variables (on every
// variable no other atom names), and an order atom or none per pair.
std::string BinaryQuery(iodb::Rng& rng) {
  const int vars = rng.UniformInt(2, 3);
  std::string head = "exists";
  for (int i = 0; i < vars; ++i) head += " t" + std::to_string(i);
  auto var = [&] { return rng.UniformInt(0, vars - 1); };
  auto name = [](int v) { return "t" + std::to_string(v); };
  std::vector<std::string> atoms;
  std::vector<bool> named(static_cast<size_t>(vars), false);
  const int binary = rng.UniformInt(1, 2);
  for (int i = 0; i < binary; ++i) {
    const int a = var();
    const int b = var();
    atoms.push_back(std::string(rng.Bernoulli(0.5) ? "R" : "S") + "(" +
                    name(a) + ", " + name(b) + ")");
    named[static_cast<size_t>(a)] = named[static_cast<size_t>(b)] = true;
  }
  for (int v = 0; v < vars; ++v) {
    if (!named[static_cast<size_t>(v)] || rng.Bernoulli(0.4)) {
      atoms.push_back(std::string(rng.Bernoulli(0.5) ? "P" : "Q") + "(" +
                      name(v) + ")");
    }
  }
  for (int a = 0; a < vars; ++a) {
    for (int b = a + 1; b < vars; ++b) {
      const int kind = static_cast<int>(rng.Uniform(10));
      if (kind < 3) {
        atoms.push_back(name(a) + " < " + name(b));
      } else if (kind < 5) {
        atoms.push_back(name(a) + " <= " + name(b));
      }
    }
  }
  std::string out = head + ":";
  for (size_t i = 0; i < atoms.size(); ++i) {
    out += (i == 0 ? " " : " & ") + atoms[i];
  }
  return out;
}

// engine_mix's monadic query over t0..t{vars-1}: each variable carries
// `lo`-`hi` distinct labels of kWidePreds predicates, linked into a
// tree-shaped order pattern as in MonadicConjunct.
std::string WideConjunct(iodb::Rng& rng, int vars, int lo, int hi) {
  std::string head = "exists";
  std::vector<std::string> atoms;
  for (int i = 0; i < vars; ++i) {
    const std::string v = "t" + std::to_string(i);
    head += " " + v;
    std::vector<int> labels;
    const int count = rng.UniformInt(lo, hi);
    while (static_cast<int>(labels.size()) < count) {
      const int k = rng.UniformInt(0, kWidePreds - 1);
      if (std::find(labels.begin(), labels.end(), k) == labels.end()) {
        labels.push_back(k);
        atoms.push_back(Pred(k) + "(" + v + ")");
      }
    }
    if (i > 0) {
      const int parent = rng.Bernoulli(0.75) ? i - 1 : rng.UniformInt(0, i - 1);
      atoms.push_back("t" + std::to_string(parent) +
                      (rng.Bernoulli(0.6) ? " < " : " <= ") + v);
    }
  }
  std::string out = head + ":";
  for (size_t i = 0; i < atoms.size(); ++i) {
    out += (i == 0 ? " " : " & ") + atoms[i];
  }
  return out;
}

// One APPEND group: 1-4 statements that extend chains with fresh points
// and label points.
std::string AppendText(iodb::Rng& rng, DbState* state) {
  const int n = rng.UniformInt(1, 4);
  std::string text;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.5)) {
      const size_t chain = rng.Uniform(state->tails.size());
      const std::string point = "n" + std::to_string(state->fresh++);
      const bool strict =
          state->kind == DbState::Kind::kTotal || rng.Bernoulli(0.7);
      text += state->tails[chain] + (strict ? " < " : " <= ") + point + "\n";
      state->tails[chain] = point;
      state->points.push_back(point);
      if (state->kind == DbState::Kind::kBinary) {
        text += "P(" + point + ")\n";
      } else {
        text += Pred(rng.UniformInt(0, kPreds - 1)) + "(" + point + ")\n";
      }
    } else if (state->kind == DbState::Kind::kBinary) {
      text += "R(" + rng.Pick(state->points) + ", " +
              rng.Pick(state->points) + ")\n";
    } else {
      text += Pred(rng.UniformInt(0, kPreds - 1)) + "(" +
              rng.Pick(state->points) + ")\n";
    }
  }
  return text;
}

// The fixed append sequence: round-robin over the databases, a SAVE
// after every `save_every`-th append of each database.
std::vector<AppendOp> MakeAppends(iodb::Rng& rng, std::vector<DbState>* states,
                                  int count, int save_every) {
  std::vector<AppendOp> ops;
  std::vector<int> per_db(states->size(), 0);
  for (int i = 0; i < count; ++i) {
    AppendOp op;
    op.db = i % static_cast<int>(states->size());
    op.text = AppendText(rng, &(*states)[static_cast<size_t>(op.db)]);
    op.save_after = ++per_db[static_cast<size_t>(op.db)] % save_every == 0;
    ops.push_back(std::move(op));
  }
  return ops;
}

// Query pool of the monadic fleets: mostly conjunctive (bounded-width),
// some forced onto the path-decomposition engine, a few disjunctive.
std::vector<EvalReq> MonadicPool(iodb::Rng& rng, int size, int paths,
                                 int disjunctive) {
  std::vector<EvalReq> pool;
  for (int i = 0; i < size; ++i) {
    EvalReq req;
    if (i < disjunctive) {
      req.query = MonadicDisjunction(rng, 2, 1, 1);
    } else {
      req.query = MonadicConjunct(rng, rng.UniformInt(2, 4));
      if (i < disjunctive + paths) req.flags = "--engine=paths";
    }
    pool.push_back(std::move(req));
  }
  return pool;
}

}  // namespace

std::string EvalReq::Line(const std::vector<DbSpec>& dbs) const {
  std::string line = dbs[static_cast<size_t>(db)].name;
  if (!flags.empty()) line += " " + flags;
  return line + " " + query;
}

long long Workload::InputBytes() const {
  long long bytes = 0;
  for (const DbSpec& db : dbs) bytes += static_cast<long long>(db.text.size());
  for (const AppendOp& op : appends) {
    bytes += static_cast<long long>(op.text.size());
  }
  return bytes;
}

Command Workload::ReaderCommand(int reader, long long index) const {
  iodb::Rng rng(Mix(Mix(seed, static_cast<uint64_t>(reader) + 1),
                    static_cast<uint64_t>(index)));
  Command command;
  command.batch = index % batch_every == batch_every - 1;
  const int members = command.batch ? kBatchSize : 1;
  const int num_dbs = static_cast<int>(dbs.size());
  for (int m = 0; m < members; ++m) {
    EvalReq req;
    if (!pool.empty()) {
      req = pool[rng.Uniform(pool.size())];
      req.db = rng.UniformInt(0, num_dbs - 1);
    } else {
      // engine_mix: a fresh query per request. The first kWideDbs are
      // the wide monadic ones; the rest are tiny binary instances. The
      // cheap kinds (binary, conjunctive) stay near 12% of the traffic, so
      // that the median falls inside the disjunctive requests' range
      // rather than on the step between the two.
      const bool binary = rng.Bernoulli(0.06);
      if (binary) {
        req.db = rng.UniformInt(kWideDbs, num_dbs - 1);
        req.query = BinaryQuery(rng);
      } else {
        req.db = rng.UniformInt(0, kWideDbs - 1);
        // Warm-up (reader -1) sends conjunctive queries only: set-up then
        // costs about the same on every seed, without the disjunctive
        // tail.
        const int kind = static_cast<int>(rng.Uniform(reader < 0 ? 7 : 100));
        if (kind < 7) {
          req.query = WideConjunct(rng, rng.UniformInt(2, 4), 1, 3);
          if (kind >= 4) req.flags = "--engine=paths";
        } else {
          const int disjuncts = rng.UniformInt(2, 3);
          for (int d = 0; d < disjuncts; ++d) {
            if (d > 0) req.query += " | ";
            req.query += WideConjunct(rng, 1, 2, 3);
          }
        }
      }
      if (rng.Bernoulli(0.2)) {
        req.countermodel = true;
        req.flags += req.flags.empty() ? "--countermodel" : " --countermodel";
      }
    }
    if (durable) {
      req.flags += req.flags.empty() ? "--identity" : " --identity";
    }
    command.members.push_back(std::move(req));
  }
  return command;
}

bool MakeWorkload(const std::string& name, uint64_t seed, bool tiny,
                  Workload* out) {
  Workload w;
  w.name = name;
  w.seed = seed;
  iodb::Rng rng(Mix(seed, 0x5EED));
  std::vector<DbState> states;
  auto add = [&](DbSpec spec, DbState state) {
    w.dbs.push_back(std::move(spec));
    states.push_back(std::move(state));
  };
  // Appends: a fixed count (so every run does identical growth), enough
  // for a p99 with 10 samples beyond it. Not scaled by --seconds: every
  // workload's traced replay runs them with fsync, and a --trace 1 run
  // must stay short however long its window is.
  const int appends = tiny ? 40 : 1000;
  if (name == "fleet_reads" || name == "write_mix") {
    const bool fleet = name == "fleet_reads";
    const int num_dbs = tiny ? 6 : (fleet ? 64 : 16);
    // One database in 8 has its whole order known: a single strict
    // chain, which the cost model routes to brute force.
    for (int i = 0; i < num_dbs; ++i) {
      DbState state;
      const bool total = i % 8 == 7 || (tiny && i == num_dbs - 1);
      DbSpec spec = MonadicDb(rng, "db" + std::to_string(i), 3, 10, 14, 0.7,
                              total, &state);
      spec.small = total;
      add(std::move(spec), std::move(state));
    }
    w.pool = fleet ? MonadicPool(rng, tiny ? 8 : 32, 4, 4)
                   : MonadicPool(rng, tiny ? 8 : 16, 2, 2);
    w.readers = fleet ? 4 : 2;
    w.durable = !fleet;
    w.warmup_commands = tiny ? 16 : 256;
  } else if (name == "engine_mix") {
    for (int i = 0; i < kWideDbs; ++i) {
      DbState state;
      DbSpec spec = MonadicDb(rng, "wide" + std::to_string(i), 4,
                              tiny ? 5 : 6, tiny ? 5 : 6, 1.0, false, &state,
                              kWidePreds, 0.25);
      add(std::move(spec), std::move(state));
    }
    for (int i = 0; i < (tiny ? 2 : 16); ++i) {
      DbState state;
      DbSpec spec = BinaryDb(rng, "bin" + std::to_string(i), &state);
      add(std::move(spec), std::move(state));
    }
    // Four connections, the nproc of the 4-vCPU machine the benchmark was
    // defined on: the server's session threads then run on every vCPU at
    // once, and the median averages over them. On a shared host one vCPU
    // can run 25% slower than another for minutes; a single busy
    // connection spread 0.16 over four 10-second rounds, four
    // connections 0.09.
    w.readers = 4;
    // Rare batches: a batch's brute-force members shard across freshly
    // spawned worker threads, which would otherwise dominate the noise of
    // the other connections' EVAL latency.
    w.batch_every = 64;
    w.warmup_commands = tiny ? 4 : 128;
  } else {
    return false;
  }
  w.appends = MakeAppends(rng, &states, appends, tiny ? 4 : 8);
  w.recovery_probe.db = 0;
  w.recovery_probe.query = "exists t0: P0(t0)";
  w.recovery_probe.flags = "--identity";
  *out = std::move(w);
  return true;
}

}  // namespace wirebench
