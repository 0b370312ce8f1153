#include "plan/prepared_pair.h"

#include <atomic>
#include <utility>

namespace uxm {

namespace {

/// Pair ids are process-unique and never reused; 0 is reserved for
/// "no pair" in cache keys.
uint64_t NextPairId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Shared tail of every pair-construction path: stamps the id and derives
/// order + compiler from the flat index (which must already be set).
/// Built and loaded pairs converge here, so they plan identically.
std::shared_ptr<const PreparedSchemaPair> FinishFromFlat(
    std::shared_ptr<PreparedSchemaPair> pair, size_t max_embeddings,
    std::shared_ptr<EmbeddingCache> embedding_cache,
    std::shared_ptr<const MappingOrder> order = nullptr) {
  pair->pair_id = NextPairId();
  pair->order = order != nullptr
                    ? std::move(order)
                    : std::make_shared<const MappingOrder>(
                          MappingOrder::Build(pair->flat->mappings));
  pair->compiler = std::make_shared<QueryCompiler>(
      &pair->flat->mappings, pair->matching.target_ptr(), max_embeddings,
      /*max_entries=*/4096, pair->order, std::move(embedding_cache));
  return pair;
}

}  // namespace

Result<std::shared_ptr<const PreparedSchemaPair>> BuildPreparedSchemaPair(
    SchemaMatching matching, const PairBuildOptions& options) {
  if (matching.empty()) {
    return Status::InvalidArgument("matching has no correspondences");
  }
  UXM_ASSIGN_OR_RETURN(PossibleMappingSet mappings,
                       TopHGenerator(options.top_h).Generate(matching));
  UXM_ASSIGN_OR_RETURN(BlockTreeBuildResult build,
                       BlockTreeBuilder(options.block_tree).Build(mappings));
  return MakePreparedSchemaPairFromProducts(
      std::move(matching), mappings, build.tree, options.max_embeddings,
      options.embedding_cache);
}

std::shared_ptr<const PreparedSchemaPair> MakePreparedSchemaPairFromProducts(
    SchemaMatching matching, const PossibleMappingSet& mappings,
    const BlockTree& tree, size_t max_embeddings,
    std::shared_ptr<EmbeddingCache> embedding_cache) {
  auto pair = std::make_shared<PreparedSchemaPair>();
  pair->matching = std::move(matching);
  pair->flat = std::make_shared<const FlatPairIndex>(
      BuildFlatPairIndex(mappings, &tree));
  return FinishFromFlat(std::move(pair), max_embeddings,
                        std::move(embedding_cache));
}

std::shared_ptr<const PreparedSchemaPair> MakePreparedSchemaPairFromFlatIndex(
    SchemaMatching matching, std::shared_ptr<const FlatPairIndex> flat,
    std::shared_ptr<const Schema> owned_source,
    std::shared_ptr<const Schema> owned_target, size_t max_embeddings,
    std::shared_ptr<EmbeddingCache> embedding_cache,
    std::shared_ptr<const MappingOrder> order) {
  auto pair = std::make_shared<PreparedSchemaPair>();
  pair->matching = std::move(matching);
  pair->flat = std::move(flat);
  pair->owned_source = std::move(owned_source);
  pair->owned_target = std::move(owned_target);
  return FinishFromFlat(std::move(pair), max_embeddings,
                        std::move(embedding_cache), std::move(order));
}

std::shared_ptr<const PreparedSchemaPair> SchemaPairRegistry::Install(
    std::shared_ptr<const PreparedSchemaPair> pair) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < pairs_.size(); ++i) {
    if (pairs_[i]->source() == pair->source() &&
        pairs_[i]->target() == pair->target()) {
      std::shared_ptr<const PreparedSchemaPair> replaced = pairs_[i];
      pairs_[i] = std::move(pair);
      last_used_[i] = ++use_clock_;  // installation counts as a use
      return replaced;
    }
  }
  pairs_.push_back(std::move(pair));
  last_used_.push_back(++use_clock_);
  return nullptr;
}

void SchemaPairRegistry::Touch(uint64_t pair_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < pairs_.size(); ++i) {
    if (pairs_[i]->pair_id == pair_id) {
      last_used_[i] = ++use_clock_;
      return;
    }
  }
}

std::shared_ptr<const PreparedSchemaPair> SchemaPairRegistry::LeastRecentlyUsed(
    const PreparedSchemaPair* exclude1,
    const PreparedSchemaPair* exclude2) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const PreparedSchemaPair> oldest;
  uint64_t oldest_stamp = 0;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    if (pairs_[i].get() == exclude1 || pairs_[i].get() == exclude2) continue;
    if (oldest == nullptr || last_used_[i] < oldest_stamp) {
      oldest = pairs_[i];
      oldest_stamp = last_used_[i];
    }
  }
  return oldest;
}

std::shared_ptr<const PreparedSchemaPair> SchemaPairRegistry::Find(
    const Schema* source, const Schema* target) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& pair : pairs_) {
    if (pair->source() == source && pair->target() == target) return pair;
  }
  return nullptr;
}

std::shared_ptr<const PreparedSchemaPair> SchemaPairRegistry::Remove(
    const Schema* source, const Schema* target) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = pairs_.begin(); it != pairs_.end(); ++it) {
    if ((*it)->source() != source || (*it)->target() != target) continue;
    std::shared_ptr<const PreparedSchemaPair> removed = std::move(*it);
    last_used_.erase(last_used_.begin() + (it - pairs_.begin()));
    pairs_.erase(it);
    bool target_still_used = false;
    for (const auto& pair : pairs_) {
      if (pair->target() == target) {
        target_still_used = true;
        break;
      }
    }
    if (!target_still_used) embeddings_->EraseTarget(target);
    return removed;
  }
  return nullptr;
}

std::vector<std::shared_ptr<const PreparedSchemaPair>> SchemaPairRegistry::All()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return pairs_;
}

size_t SchemaPairRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pairs_.size();
}

void SchemaPairRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  pairs_.clear();
  last_used_.clear();
  embeddings_->Clear();
}

}  // namespace uxm
