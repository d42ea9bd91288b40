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

Vocabulary::NameIndex::NameIndex(size_t capacity)
    : mask(capacity - 1), slots(new std::atomic<uint64_t>[capacity]) {
  for (size_t i = 0; i < capacity; ++i) {
    slots[i].store(0, std::memory_order_relaxed);
  }
}

Vocabulary::Vocabulary() : uid_(NextVocabularyUid()) {}

Vocabulary::Vocabulary(const Vocabulary& other) : uid_(NextVocabularyUid()) {
  CopyPredicatesFrom(other);
}

Vocabulary& Vocabulary::operator=(const Vocabulary& other) {
  if (this == &other) return *this;
  std::lock_guard<std::mutex> lock(mu_);
  Clear();
  // The predicate table changes meaning, so this object is a new identity.
  uid_.store(NextVocabularyUid(), std::memory_order_release);
  CopyPredicatesFrom(other);
  return *this;
}

Vocabulary::~Vocabulary() { Clear(); }

void Vocabulary::Clear() {
  for (std::atomic<PredicateInfo*>& segment : segments_) {
    delete[] segment.exchange(nullptr, std::memory_order_relaxed);
  }
  size_.store(0, std::memory_order_relaxed);
  index_.store(nullptr, std::memory_order_relaxed);
  indexes_.clear();
}

void Vocabulary::CopyPredicatesFrom(const Vocabulary& other) {
  const int n = other.num_predicates();
  for (int id = 0; id < n; ++id) {
    const PredicateInfo& info = other.predicate(id);
    Append(info.name, info.arg_sorts);
  }
}

uint64_t Vocabulary::HashName(std::string_view name) {
  // FNV-1a, 64-bit; the index keeps the high half next to the id.
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

int Vocabulary::Lookup(std::string_view name) const {
  const NameIndex* index = index_.load(std::memory_order_acquire);
  if (index == nullptr) return -1;
  const uint64_t hash = HashName(name);
  const uint64_t tag = hash >> 32;
  for (size_t slot = hash & index->mask;; slot = (slot + 1) & index->mask) {
    const uint64_t entry = index->slots[slot].load(std::memory_order_acquire);
    if (entry == 0) return -1;
    if (entry >> 32 != tag) continue;
    // An id at or past the size is still being registered: not yet
    // visible, and not the name sought if some published one matches.
    const int id = static_cast<int>(entry & 0xFFFFFFFFu) - 1;
    if (id < num_predicates() && predicate(id).name == name) return id;
  }
}

void Vocabulary::Insert(NameIndex* index, uint64_t hash, int id) {
  size_t slot = hash & index->mask;
  while (index->slots[slot].load(std::memory_order_relaxed) != 0) {
    slot = (slot + 1) & index->mask;
  }
  index->slots[slot].store((hash >> 32) << 32 | static_cast<uint64_t>(id + 1),
                           std::memory_order_release);
}

int Vocabulary::Append(std::string name, std::vector<Sort> arg_sorts) {
  const int id = size_.load(std::memory_order_relaxed);
  int offset = 0;
  const int segment = SegmentOf(id, &offset);
  IODB_CHECK_LT(segment, kSegments);
  PredicateInfo* slots = segments_[segment].load(std::memory_order_relaxed);
  if (slots == nullptr) {
    slots = new PredicateInfo[static_cast<size_t>(kFirstSegment) << segment];
    segments_[segment].store(slots, std::memory_order_release);
  }
  const uint64_t hash = HashName(name);
  slots[offset] = {std::move(name), std::move(arg_sorts)};
  // Keep the index at most half full: past that, publish a doubled copy.
  NameIndex* index = index_.load(std::memory_order_relaxed);
  if (index == nullptr || 2 * static_cast<size_t>(id + 1) > index->mask + 1) {
    auto grown = std::make_unique<NameIndex>(
        index == nullptr ? 2 * kFirstSegment : 2 * (index->mask + 1));
    for (int old = 0; old < id; ++old) {
      Insert(grown.get(), HashName(predicate(old).name), old);
    }
    index = grown.get();
    indexes_.push_back(std::move(grown));
    index_.store(index, std::memory_order_release);
  }
  // Index first, size last: a reader that sees the size sees the name
  // filed, so every id below num_predicates() is found by name.
  Insert(index, hash, id);
  size_.store(id + 1, std::memory_order_release);
  return id;
}

Result<std::optional<int>> Vocabulary::FindPredicate(
    std::string_view name, const std::vector<Sort>& arg_sorts) const {
  const int id = Lookup(name);
  if (id < 0) return std::optional<int>();
  if (predicate(id).arg_sorts != arg_sorts) {
    return Status::InvalidArgument("predicate '" + std::string(name) +
                                   "' redeclared with a different "
                                   "signature");
  }
  return std::optional<int>(id);
}

Result<int> Vocabulary::GetOrAddPredicate(const std::string& name,
                                          std::vector<Sort> arg_sorts) {
  // Lock-free when the name is known, which is nearly every call.
  Result<std::optional<int>> found = FindPredicate(name, arg_sorts);
  if (!found.ok()) return found.status();
  if (found.value().has_value()) return *found.value();
  std::lock_guard<std::mutex> lock(mu_);
  // Another writer may have registered the name since the probe.
  found = FindPredicate(name, arg_sorts);
  if (!found.ok()) return found.status();
  if (found.value().has_value()) return *found.value();
  return Append(name, std::move(arg_sorts));
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

std::optional<int> Vocabulary::FindPredicate(std::string_view name) const {
  const int id = Lookup(name);
  if (id < 0) return std::nullopt;
  return id;
}

bool Vocabulary::AllMonadicOrder() const {
  const int n = num_predicates();
  for (int id = 0; id < n; ++id) {
    if (!predicate(id).IsMonadicOrder()) return false;
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
