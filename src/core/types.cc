#include "core/types.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>

namespace iodb {

const char* SortName(Sort sort) {
  return sort == Sort::kObject ? "object" : "order";
}

namespace {

std::atomic<uint64_t>& VocabularyUidCounter() {
  static std::atomic<uint64_t> next{0};
  return next;
}

uint64_t NextVocabularyUid() {
  return VocabularyUidCounter().fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Vocabulary::Vocabulary() : uid_(NextVocabularyUid()) {}

Vocabulary::Vocabulary(const Vocabulary& other) : uid_(NextVocabularyUid()) {
  std::shared_lock<std::shared_mutex> lock(other.mu_);
  predicates_ = other.predicates_;
  index_ = other.index_;
}

Vocabulary& Vocabulary::operator=(const Vocabulary& other) {
  if (this == &other) return *this;
  std::deque<PredicateInfo> predicates;
  std::unordered_map<std::string, int> index;
  {
    std::shared_lock<std::shared_mutex> lock(other.mu_);
    predicates = other.predicates_;
    index = other.index_;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  // The predicate table changes meaning, so this object is a new identity.
  uid_.store(NextVocabularyUid(), std::memory_order_release);
  predicates_ = std::move(predicates);
  index_ = std::move(index);
  return *this;
}

Result<int> Vocabulary::GetOrAddPredicate(const std::string& name,
                                          std::vector<Sort> arg_sorts) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = index_.find(name);
  if (it != index_.end()) {
    const PredicateInfo& existing = predicates_[it->second];
    if (existing.arg_sorts != arg_sorts) {
      return Status::InvalidArgument("predicate '" + name +
                                     "' redeclared with a different "
                                     "signature");
    }
    return it->second;
  }
  int id = static_cast<int>(predicates_.size());
  predicates_.push_back({name, std::move(arg_sorts)});
  index_.emplace(name, id);
  return id;
}

int Vocabulary::MustAddPredicate(const std::string& name,
                                 std::vector<Sort> arg_sorts) {
  Result<int> result = GetOrAddPredicate(name, std::move(arg_sorts));
  IODB_CHECK(result.ok());
  return result.value();
}

void Vocabulary::RestoreUid(uint64_t uid) {
  uid_.store(uid, std::memory_order_release);
  // Advance the counter to at least `uid` so no later-constructed
  // vocabulary is handed the restored identity.
  std::atomic<uint64_t>& counter = VocabularyUidCounter();
  uint64_t seen = counter.load(std::memory_order_relaxed);
  while (seen < uid &&
         !counter.compare_exchange_weak(seen, uid,
                                        std::memory_order_relaxed)) {
  }
}

std::optional<int> Vocabulary::FindPredicate(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

bool Vocabulary::AllMonadicOrder() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const PredicateInfo& info : predicates_) {
    if (!info.IsMonadicOrder()) return false;
  }
  return true;
}

void PredSet::Add(int id) {
  IODB_CHECK_GE(id, 0);
  size_t word = static_cast<size_t>(id) >> 6;
  if (word >= words_.size()) words_.resize(word + 1, 0);
  words_[word] |= uint64_t{1} << (id & 63);
}

void PredSet::Remove(int id) {
  IODB_CHECK_GE(id, 0);
  size_t word = static_cast<size_t>(id) >> 6;
  if (word < words_.size()) words_[word] &= ~(uint64_t{1} << (id & 63));
}

void PredSet::Clear() {
  std::fill(words_.begin(), words_.end(), 0);
}

bool PredSet::Contains(int id) const {
  IODB_CHECK_GE(id, 0);
  size_t word = static_cast<size_t>(id) >> 6;
  if (word >= words_.size()) return false;
  return (words_[word] >> (id & 63)) & 1;
}

bool PredSet::Empty() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

int PredSet::Count() const {
  int count = 0;
  for (uint64_t w : words_) count += std::popcount(w);
  return count;
}

bool PredSet::IsSubsetOf(const PredSet& other) const {
  for (size_t i = 0; i < words_.size(); ++i) {
    uint64_t theirs = i < other.words_.size() ? other.words_[i] : 0;
    if ((words_[i] & ~theirs) != 0) return false;
  }
  return true;
}

void PredSet::UnionWith(const PredSet& other) {
  if (other.words_.size() > words_.size()) {
    words_.resize(other.words_.size(), 0);
  }
  for (size_t i = 0; i < other.words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
}

std::vector<int> PredSet::Elements() const {
  std::vector<int> out;
  for (size_t i = 0; i < words_.size(); ++i) {
    uint64_t w = words_[i];
    while (w != 0) {
      int bit = std::countr_zero(w);
      out.push_back(static_cast<int>(i) * 64 + bit);
      w &= w - 1;
    }
  }
  return out;
}

size_t PredSet::Hash() const {
  size_t seed = 0;
  // Skip trailing zero words so equal sets hash equally regardless of
  // capacity.
  size_t n = words_.size();
  while (n > 0 && words_[n - 1] == 0) --n;
  for (size_t i = 0; i < n; ++i) HashCombine(seed, words_[i]);
  return seed;
}

bool operator==(const PredSet& a, const PredSet& b) {
  size_t n = std::max(a.words_.size(), b.words_.size());
  for (size_t i = 0; i < n; ++i) {
    uint64_t wa = i < a.words_.size() ? a.words_[i] : 0;
    uint64_t wb = i < b.words_.size() ? b.words_[i] : 0;
    if (wa != wb) return false;
  }
  return true;
}

}  // namespace iodb
