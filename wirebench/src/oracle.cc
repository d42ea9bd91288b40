#include "oracle.h"

#include <atomic>
#include <mutex>
#include <thread>

#include "core/engine.h"
#include "core/parser.h"

namespace wirebench {

Oracle::Oracle(const Workload& workload)
    : workload_(workload), appends_(workload.dbs.size()) {
  for (const AppendOp& op : workload.appends) {
    appends_[static_cast<size_t>(op.db)].push_back(&op.text);
  }
}

int Oracle::Require(int db, int version, const std::string& query) {
  auto [it, inserted] =
      ids_.try_emplace({db, version, query}, static_cast<int>(keys_.size()));
  if (inserted) {
    keys_.push_back(it->first);
    verdicts_.push_back(0);
  }
  return it->second;
}

bool Oracle::Solve(int threads, std::string* error) {
  // Group pair ids by database version: each version is parsed once, by
  // one thread (a Database fills its memoized views lazily, so it is not
  // evaluated from two threads).
  std::map<std::pair<int, int>, std::vector<int>> groups;
  for (size_t id = 0; id < keys_.size(); ++id) {
    const auto& [db, version, query] = keys_[id];
    groups[{db, version}].push_back(static_cast<int>(id));
  }
  std::vector<const std::pair<const std::pair<int, int>, std::vector<int>>*>
      work;
  for (const auto& group : groups) work.push_back(&group);

  iodb::VocabularyPtr vocab = std::make_shared<iodb::Vocabulary>();
  std::atomic<size_t> next{0};
  std::atomic<long long> brute_force{0};
  std::mutex error_mu;
  std::string first_error;
  auto fail = [&](const std::string& message) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.empty()) first_error = message;
  };
  auto worker = [&] {
    for (size_t g = next++; g < work.size(); g = next++) {
      const auto& [db, version] = work[g]->first;
      const DbSpec& spec = workload_.dbs[static_cast<size_t>(db)];
      std::string text = spec.text;
      const auto& appends = appends_[static_cast<size_t>(db)];
      if (version > static_cast<int>(appends.size())) {
        fail("version " + std::to_string(version) + " of " + spec.name +
             " was never written");
        return;
      }
      for (int i = 0; i < version; ++i) text += *appends[static_cast<size_t>(i)];
      iodb::Result<iodb::Database> parsed = iodb::ParseDatabase(text, vocab);
      if (!parsed.ok()) {
        fail("oracle parse of " + spec.name + ": " +
             parsed.status().ToString());
        return;
      }
      for (int id : work[g]->second) {
        const std::string& query_text = std::get<2>(keys_[static_cast<size_t>(id)]);
        iodb::Result<iodb::Query> query = iodb::ParseQuery(query_text, vocab);
        if (!query.ok()) {
          fail("oracle query parse: " + query.status().ToString());
          return;
        }
        iodb::Result<iodb::EntailResult> result =
            iodb::Entails(parsed.value(), query.value());
        if (!result.ok()) {
          fail("oracle evaluation of '" + query_text + "' on " + spec.name +
               ": " + result.status().ToString());
          return;
        }
        verdicts_[static_cast<size_t>(id)] = result.value().entailed;
        if (spec.small) {
          iodb::EntailOptions options;
          options.engine = iodb::EngineKind::kBruteForce;
          iodb::Result<iodb::EntailResult> check =
              iodb::Entails(parsed.value(), query.value(), options);
          ++brute_force;
          if (!check.ok() || check.value().entailed != result.value().entailed) {
            fail("brute-force cross-check disagrees on '" + query_text +
                 "' over " + spec.name);
            return;
          }
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& thread : pool) thread.join();
  brute_force_checks_ = brute_force;
  if (!first_error.empty()) {
    *error = first_error;
    return false;
  }
  return true;
}

}  // namespace wirebench
