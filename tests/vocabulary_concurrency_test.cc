// Vocabulary under concurrent registration (core/types.h): registering
// threads race GetOrAddPredicate on overlapping names, with agreeing and
// clashing signatures, while reader threads walk the table through the
// lock-free FindPredicate / predicate() / num_predicates().
//
// Invariants:
//   * ids are unique and dense: 0..n-1, one name each;
//   * a name maps to one id and one signature, whichever registration
//     won, and every successful call for it returned that id;
//   * a call whose signature differs from the winner's fails with the
//     redeclaration error, and one that agrees succeeds;
//   * a reader never sees a half-registered predicate: every id below
//     num_predicates() has its name and signature, and FindPredicate
//     finds that name at that id.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/types.h"
#include "util/random.h"

namespace iodb {
namespace {

constexpr int kNames = 600;
constexpr int kWriters = 4;
constexpr int kReaders = 2;
constexpr int kCallsPerWriter = 3000;

std::string Name(int i) { return "p" + std::to_string(i); }

// Two candidate signatures per name; writers pick one at random, so
// some names see clashing registrations.
std::vector<Sort> Signature(int name, int variant) {
  if (variant == 0) return {Sort::kOrder};
  return name % 2 == 0 ? std::vector<Sort>{Sort::kObject}
                       : std::vector<Sort>{Sort::kOrder, Sort::kObject};
}

struct Call {
  int name;
  int variant;
  bool ok;
  int id;
  std::string error;
};

TEST(VocabularyConcurrencyTest, RacingRegistrationsStayDenseAndConsistent) {
  for (int round = 0; round < 3; ++round) {
    Vocabulary vocab;
    std::atomic<bool> done{false};
    std::atomic<long long> reader_checks{0};
    std::vector<std::vector<Call>> calls(kWriters);
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        Rng rng(1000 * round + w);
        for (int c = 0; c < kCallsPerWriter; ++c) {
          // Skewed towards a hot set, so threads collide on names.
          const int name = rng.Bernoulli(0.5) ? rng.UniformInt(0, 31)
                                              : rng.UniformInt(0, kNames - 1);
          const int variant = rng.Bernoulli(0.9) ? 0 : 1;
          Result<int> id =
              vocab.GetOrAddPredicate(Name(name), Signature(name, variant));
          calls[w].push_back({name, variant, id.ok(),
                              id.ok() ? id.value() : -1,
                              id.ok() ? "" : id.status().message()});
        }
      });
    }
    std::vector<std::string> reader_errors(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        while (!done.load(std::memory_order_acquire)) {
          const int n = vocab.num_predicates();
          for (int id = 0; id < n; ++id) {
            const PredicateInfo& info = vocab.predicate(id);
            if (info.name.empty() || info.arg_sorts.empty()) {
              reader_errors[r] = "id " + std::to_string(id) + " half-built";
              return;
            }
            std::optional<int> found = vocab.FindPredicate(info.name);
            if (!found.has_value() || *found != id) {
              reader_errors[r] = info.name + " not found at its id";
              return;
            }
          }
          if (vocab.FindPredicate("absent").has_value()) {
            reader_errors[r] = "found a name never registered";
            return;
          }
          reader_checks.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (int w = 0; w < kWriters; ++w) threads[w].join();
    done.store(true, std::memory_order_release);
    for (int r = 0; r < kReaders; ++r) threads[kWriters + r].join();
    for (const std::string& error : reader_errors) EXPECT_EQ(error, "");
    EXPECT_GT(reader_checks.load(), 0);

    // Dense, unique ids.
    const int n = vocab.num_predicates();
    std::set<std::string> names;
    for (int id = 0; id < n; ++id) {
      EXPECT_TRUE(names.insert(vocab.predicate(id).name).second)
          << vocab.predicate(id).name << " registered twice";
    }
    // Every call agrees with the winner.
    std::set<int> called;
    for (const std::vector<Call>& thread_calls : calls) {
      for (const Call& call : thread_calls) {
        called.insert(call.name);
        std::optional<int> id = vocab.FindPredicate(Name(call.name));
        ASSERT_TRUE(id.has_value()) << Name(call.name);
        const bool agrees = vocab.predicate(*id).arg_sorts ==
                            Signature(call.name, call.variant);
        EXPECT_EQ(call.ok, agrees) << Name(call.name);
        if (call.ok) {
          EXPECT_EQ(call.id, *id) << Name(call.name);
        } else {
          EXPECT_EQ(call.error, "predicate '" + Name(call.name) +
                                    "' redeclared with a different signature");
        }
      }
    }
    EXPECT_EQ(static_cast<int>(called.size()), n);
  }
}

// A copy taken while another thread registers holds a prefix of the
// source's ids, id for id.
TEST(VocabularyConcurrencyTest, CopyDuringRegistrationIsAPrefix) {
  Vocabulary vocab;
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) vocab.MustAddPredicate(Name(i), {Sort::kOrder});
  });
  std::vector<Vocabulary> copies;
  copies.reserve(20);
  for (int i = 0; i < 20; ++i) copies.emplace_back(vocab);
  writer.join();
  for (const Vocabulary& copy : copies) {
    EXPECT_NE(copy.uid(), vocab.uid());
    for (int id = 0; id < copy.num_predicates(); ++id) {
      EXPECT_EQ(copy.predicate(id).name, Name(id));
      EXPECT_EQ(copy.FindPredicate(Name(id)), std::optional<int>(id));
    }
  }
}

}  // namespace
}  // namespace iodb
