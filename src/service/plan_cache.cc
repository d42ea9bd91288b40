#include "service/plan_cache.h"

#include <algorithm>
#include <bit>
#include <functional>

#include "core/planner.h"
#include "util/check.h"

namespace iodb {

PlanCache::KeyRef PlanCache::RefOf(const Key& key) {
  return KeyRef{key.vocab_uid,         key.text,
                key.semantics,         key.engine,
                key.want_countermodel, key.max_rewritten_disjuncts};
}

PlanCache::KeyRef PlanCache::RefOf(uint64_t vocab_uid, std::string_view text,
                                   const EntailOptions& options) {
  return KeyRef{vocab_uid,
                text,
                options.semantics,
                options.engine,
                options.want_countermodel,
                options.max_rewritten_disjuncts};
}

size_t PlanCache::KeyHash::operator()(const KeyRef& ref) const {
  size_t seed = std::hash<std::string_view>{}(ref.text);
  HashCombine(seed, static_cast<size_t>(ref.vocab_uid));
  HashCombine(seed, static_cast<size_t>(ref.semantics));
  HashCombine(seed, static_cast<size_t>(ref.engine));
  HashCombine(seed, static_cast<size_t>(ref.want_countermodel));
  HashCombine(seed, static_cast<size_t>(ref.max_rewritten_disjuncts));
  return seed;
}

PlanCache::Route PlanCache::RouteOf(const EntailOptions& options) {
  return options.planner != nullptr
             ? Route{true, options.planner->fingerprint()}
             : Route{false, 0};
}

PlanCache::PlanCache(size_t capacity)
    : capacity_(capacity),
      doorkeeper_mask_(
          std::bit_ceil(std::min(capacity, kMaxDoorkeeperSlots / 8) * 8) - 1),
      doorkeeper_(
          std::make_unique<std::atomic<uint64_t>[]>(doorkeeper_mask_ + 1)) {
  IODB_CHECK_GT(capacity_, 0u);
}

std::shared_ptr<const PreparedQuery> PlanCache::Get(
    uint64_t vocab_uid, std::string_view query_text,
    const EntailOptions& options) {
  const Route route = RouteOf(options);
  std::scoped_lock lock(mu_);
  auto it = index_.find(RefOf(vocab_uid, query_text, options));
  if (it != index_.end()) {
    for (const auto& [held_route, held] : it->second.routes) {
      if (held_route != route) continue;
      ++hits_;
      lru_.splice(lru_.begin(), lru_, held);
      return held->plan;
    }
  }
  ++misses_;
  return nullptr;
}

bool PlanCache::Admit(uint64_t vocab_uid, std::string_view query_text,
                      const EntailOptions& options) {
  const uint64_t hash = KeyHash{}(RefOf(vocab_uid, query_text, options));
  const uint64_t previous = doorkeeper_[hash & doorkeeper_mask_].exchange(
      hash, std::memory_order_relaxed);
  if (entries_.load(std::memory_order_relaxed) < capacity_ ||
      previous == hash) {
    return true;
  }
  declined_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

std::shared_ptr<const PreparedQuery> PlanCache::Put(
    uint64_t vocab_uid, std::string_view query_text,
    const EntailOptions& options, std::shared_ptr<const PreparedQuery> plan,
    bool* added) {
  IODB_CHECK(plan != nullptr);
  const Route route = RouteOf(options);
  // Declared before the lock, so the evicted plan is freed after unlock.
  std::shared_ptr<const PreparedQuery> victim;
  std::scoped_lock lock(mu_);
  auto it = index_.find(RefOf(vocab_uid, query_text, options));
  if (it == index_.end()) {
    Key key{vocab_uid,         std::string(query_text),
            options.semantics, options.engine,
            options.want_countermodel, options.max_rewritten_disjuncts};
    it = index_.emplace(std::move(key), KeyEntry{}).first;
  }
  KeyEntry& entry = it->second;

  // Share an equal plan when one is held; otherwise file a new one.
  auto same = std::find_if(
      entry.plans.begin(), entry.plans.end(), [&](Lru::iterator held) {
        return held->plan->cost_outcome() == plan->cost_outcome();
      });
  const bool share = same != entry.plans.end();
  Lru::iterator target;
  if (share) {
    target = *same;
    lru_.splice(lru_.begin(), lru_, target);
  } else {
    lru_.push_front(Held{&*it, std::move(plan)});
    target = lru_.begin();
    entry.plans.push_back(target);
  }
  if (added != nullptr) *added = !share;

  // Route the request's planner to the plan (a racing Put may have
  // routed it already).
  auto routed = std::find_if(
      entry.routes.begin(), entry.routes.end(),
      [&](const auto& held_route) { return held_route.first == route; });
  if (routed != entry.routes.end()) {
    routed->second = target;
  } else {
    if (entry.routes.size() == kMaxRoutesPerKey) {
      entry.routes.erase(entry.routes.begin());
    }
    entry.routes.emplace_back(route, target);
  }

  // The new plan sits at the front, so eviction never reaches it (the
  // capacity is positive) and `it` stays valid. A Put adds at most one
  // plan, so at most one goes.
  if (lru_.size() > capacity_) victim = EvictOldest();
  entries_.store(lru_.size(), std::memory_order_relaxed);
  return target->plan;
}

std::shared_ptr<const PreparedQuery> PlanCache::EvictOldest() {
  const Lru::iterator victim = std::prev(lru_.end());
  std::pair<const Key, KeyEntry>* owner = victim->owner;
  KeyEntry& entry = owner->second;
  std::erase(entry.plans, victim);
  std::erase_if(entry.routes,
                [&](const auto& route) { return route.second == victim; });
  if (entry.plans.empty()) index_.erase(index_.find(owner->first));
  std::shared_ptr<const PreparedQuery> plan = std::move(victim->plan);
  lru_.erase(victim);
  ++evictions_;
  return plan;
}

void PlanCache::Clear() {
  std::scoped_lock lock(mu_);
  index_.clear();
  lru_.clear();
  entries_.store(0, std::memory_order_relaxed);
}

std::vector<std::string> PlanCache::TextsByRecency() const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> texts;
  texts.reserve(lru_.size());
  for (const Held& held : lru_) texts.push_back(held.owner->first.text);
  return texts;
}

PlanCacheStats PlanCache::stats() const {
  std::scoped_lock lock(mu_);
  PlanCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.declined = declined_.load(std::memory_order_relaxed);
  stats.entries = static_cast<long long>(lru_.size());
  stats.capacity = static_cast<long long>(capacity_);
  return stats;
}

}  // namespace iodb
