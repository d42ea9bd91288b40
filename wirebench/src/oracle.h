// Expected verdicts for the benchmark's requests, computed in-process by
// the library from the generated texts alone. The oracle evaluates with
// the static engine route (no cost model), so a server verdict produced
// by a costed or forced route is checked against a different plan; on
// the databases marked small it also cross-checks the brute-force
// engine. One evaluation per (database version, query) pair.

#ifndef WIREBENCH_ORACLE_H_
#define WIREBENCH_ORACLE_H_

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "workload.h"

namespace wirebench {

class Oracle {
 public:
  explicit Oracle(const Workload& workload);

  /// Registers the pair (database `db` after its first `version`
  /// appends, `query`) and returns its id; repeated pairs share an id.
  int Require(int db, int version, const std::string& query);

  /// Evaluates every registered pair on `threads` threads. False (with
  /// `error` set) if the library rejects an input or the brute-force
  /// cross-check disagrees.
  bool Solve(int threads, std::string* error);

  bool Verdict(int id) const { return verdicts_[static_cast<size_t>(id)]; }

  /// Flips one expected verdict (the self-test's corrupted oracle).
  void Corrupt(int id) {
    verdicts_[static_cast<size_t>(id)] = !verdicts_[static_cast<size_t>(id)];
  }

  size_t pairs() const { return keys_.size(); }
  long long brute_force_checks() const { return brute_force_checks_; }

 private:
  const Workload& workload_;
  // Per database: the texts of its appends, in order.
  std::vector<std::vector<const std::string*>> appends_;
  std::map<std::tuple<int, int, std::string>, int> ids_;
  std::vector<std::tuple<int, int, std::string>> keys_;
  std::vector<char> verdicts_;
  long long brute_force_checks_ = 0;
};

}  // namespace wirebench

#endif  // WIREBENCH_ORACLE_H_
