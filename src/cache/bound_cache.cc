#include "cache/bound_cache.h"

#include <algorithm>
#include <mutex>

namespace uxm {

namespace {

size_t Mix(size_t h, size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

}  // namespace

size_t BoundCache::RegistrationHash::operator()(const Registration& r) const {
  return Mix(std::hash<const void*>()(r.doc), std::hash<uint64_t>()(r.epoch));
}

size_t BoundCache::EntryHash(const BoundCacheKey& key) {
  size_t h = key.twig.hash;
  h = Mix(h, std::hash<int>()(key.top_k));
  h = Mix(h, std::hash<bool>()(key.block_tree));
  h = Mix(h, std::hash<uint64_t>()(key.pair));
  return h;
}

size_t BoundCache::TwigTable::IndexOf(size_t hash,
                                      const BoundCacheKey& key) const {
  if (slots_.empty()) return entries_.size();
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask; slots_[i] != 0; i = (i + 1) & mask) {
    const Entry& e = entries_[slots_[i] - 1];
    if (e.hash == hash && e.top_k == key.top_k &&
        e.block_tree == key.block_tree && e.pair == key.pair &&
        *e.twig == key.twig.text) {
      return slots_[i] - 1;
    }
  }
  return entries_.size();
}

CachedBound* BoundCache::TwigTable::Find(size_t hash,
                                         const BoundCacheKey& key) {
  const size_t i = IndexOf(hash, key);
  return i < entries_.size() ? &entries_[i].value : nullptr;
}

const CachedBound* BoundCache::TwigTable::Find(
    size_t hash, const BoundCacheKey& key) const {
  const size_t i = IndexOf(hash, key);
  return i < entries_.size() ? &entries_[i].value : nullptr;
}

void BoundCache::TwigTable::Add(size_t hash, const BoundCacheKey& key,
                                const std::string* twig, CachedBound value) {
  if (2 * (entries_.size() + 1) > slots_.size()) {
    Reindex(std::max<size_t>(16, 2 * slots_.size()));
  }
  entries_.push_back(
      Entry{hash, twig, key.top_k, key.block_tree, key.pair, value});
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = static_cast<uint32_t>(entries_.size());
}

void BoundCache::TwigTable::Reindex(size_t capacity) {
  slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (size_t e = 0; e < entries_.size(); ++e) {
    size_t i = entries_[e].hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(e + 1);
  }
}

const std::string* BoundCache::Intern(const BoundTwig& twig) {
  const auto range = twigs_.equal_range(twig.hash);
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second == twig.text) return &it->second;
  }
  return &twigs_.emplace(twig.hash, std::string(twig.text))->second;
}

std::optional<CachedBound> BoundCache::Lookup(const BoundCacheKey& key) const {
  const size_t hash = EntryHash(key);
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto reg = cache_.find(Registration{key.doc, key.epoch});
  if (reg != cache_.end()) {
    if (const CachedBound* found = reg->second.Find(hash, key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *found;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void BoundCache::Insert(const BoundCacheKey& key, double bound, bool exact) {
  bound = std::max(bound, 0.0);
  const size_t hash = EntryHash(key);
  insertions_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> lock(mu_);
  const Registration reg{key.doc, key.epoch};
  auto found = cache_.find(reg);
  if (found != cache_.end()) {
    if (CachedBound* stored = found->second.Find(hash, key)) {
      if (exact) {
        *stored = CachedBound{bound, true};
      } else if (!stored->exact) {
        stored->bound = std::min(stored->bound, bound);
      }
      return;
    }
  }
  if (max_entries_ > 0 &&
      (entries_ >= max_entries_ || twigs_.size() >= max_entries_)) {
    cache_.clear();
    twigs_.clear();
    entries_ = 0;
    flushes_.fetch_add(1, std::memory_order_relaxed);
    found = cache_.end();
  }
  if (found == cache_.end()) found = cache_.try_emplace(reg).first;
  found->second.Add(hash, key, Intern(key.twig), CachedBound{bound, exact});
  ++entries_;
}

void BoundCache::EraseRegistration(const void* doc, uint64_t epoch) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const auto it = cache_.find(Registration{doc, epoch});
  if (it == cache_.end()) return;
  entries_ -= it->second.size();
  cache_.erase(it);
}

void BoundCache::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  cache_.clear();
  twigs_.clear();
  entries_ = 0;
}

BoundCacheStats BoundCache::Stats() const {
  BoundCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  stats.flushes = flushes_.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(mu_);
  stats.entries = entries_;
  return stats;
}

}  // namespace uxm
