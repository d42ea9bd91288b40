#include "core/engine.h"

#include "core/prepare.h"

namespace iodb {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kAuto:
      return "auto";
    case EngineKind::kBruteForce:
      return "brute-force";
    case EngineKind::kPathDecomposition:
      return "path-decomposition";
    case EngineKind::kBoundedWidth:
      return "bounded-width";
    case EngineKind::kDisjunctiveSearch:
      return "disjunctive-search";
    case EngineKind::kOrderFree:
      return "order-free";
  }
  return "unknown";
}

std::optional<EngineKind> ParseEngineKind(const std::string& name) {
  for (EngineKind kind :
       {EngineKind::kAuto, EngineKind::kBruteForce,
        EngineKind::kPathDecomposition, EngineKind::kBoundedWidth,
        EngineKind::kDisjunctiveSearch, EngineKind::kOrderFree}) {
    if (name == EngineKindName(kind)) return kind;
  }
  // Historical CLI shorthands, kept so existing scripts don't break.
  if (name == "paths") return EngineKind::kPathDecomposition;
  if (name == "disjunctive") return EngineKind::kDisjunctiveSearch;
  return std::nullopt;
}

Result<EntailResult> Entails(const Database& db, const Query& query,
                             const EntailOptions& options, ExecBudget* budget) {
  Result<PreparedQuery> prepared = Prepare(query.vocab(), query, options);
  if (!prepared.ok()) return prepared.status();
  return prepared.value().Evaluate(db, budget);
}

bool MustEntail(const Database& db, const Query& query,
                const EntailOptions& options) {
  Result<EntailResult> result = Entails(db, query, options);
  IODB_CHECK(result.ok());
  return result.value().entailed;
}

Result<long long> EnumerateCountermodels(
    const Database& db, const Query& query,
    const std::function<bool(const FiniteModel&)>& on_countermodel,
    const EntailOptions& options, ExecBudget* budget) {
  Result<PreparedQuery> prepared = Prepare(query.vocab(), query, options);
  if (!prepared.ok()) return prepared.status();
  return prepared.value().EnumerateCountermodels(db, on_countermodel, budget);
}

}  // namespace iodb
