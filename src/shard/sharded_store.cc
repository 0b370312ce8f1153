#include "shard/sharded_store.h"

#include <algorithm>
#include <utility>

#include "common/checksum.h"
#include "exec/thread_pool.h"

namespace uxm {

int DefaultShardCount() {
  return std::min(ThreadPool::DefaultThreadCount(), 8);
}

size_t ShardForDocument(const std::string& name, size_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<size_t>(Fnv1a64(name.data(), name.size())) % num_shards;
}

ShardedDocumentStore::ShardedDocumentStore(int num_shards) {
  const int count = num_shards > 0 ? num_shards : DefaultShardCount();
  shards_.reserve(static_cast<size_t>(count));
  for (int s = 0; s < count; ++s) {
    shards_.push_back(std::make_unique<DocumentStore>());
  }
  Republish();
}

void ShardedDocumentStore::Republish() {
  auto next = std::make_shared<ShardedCorpusSnapshot>();
  next->shards.reserve(shards_.size());
  CorpusSnapshot all;
  for (const auto& shard : shards_) {
    std::shared_ptr<const CorpusSnapshot> view = shard->Snapshot();
    all.insert(all.end(), view->begin(), view->end());
    next->shards.push_back(std::move(view));
  }
  // Each shard view is already name-sorted; the merged view needs the
  // same global order the unsharded store publishes (subset resolution
  // bisects it, and merge tie-breaks ride on it).
  std::sort(all.begin(), all.end(),
            [](const CorpusDocument& a, const CorpusDocument& b) {
              return a.name < b.name;
            });
  next->all = std::make_shared<const CorpusSnapshot>(std::move(all));
  snapshot_ = std::move(next);
}

Status ShardedDocumentStore::Add(CorpusDocument entry) {
  std::lock_guard<std::mutex> lock(mu_);
  UXM_RETURN_NOT_OK(shards_[ShardOf(entry.name)]->Add(std::move(entry)));
  Republish();
  return Status::OK();
}

Status ShardedDocumentStore::Remove(const std::string& name,
                                    CorpusDocument* removed) {
  std::lock_guard<std::mutex> lock(mu_);
  UXM_RETURN_NOT_OK(shards_[ShardOf(name)]->Remove(name, removed));
  Republish();
  return Status::OK();
}

int ShardedDocumentStore::RebindPair(
    const std::shared_ptr<const PreparedSchemaPair>& pair, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  int rebound = 0;
  for (const auto& shard : shards_) rebound += shard->RebindPair(pair, epoch);
  Republish();
  return rebound;
}

int ShardedDocumentStore::RemovePairDocuments(const Schema* source,
                                              const Schema* target) {
  std::lock_guard<std::mutex> lock(mu_);
  int dropped = 0;
  for (const auto& shard : shards_) {
    dropped += shard->RemovePairDocuments(source, target);
  }
  if (dropped > 0) Republish();
  return dropped;
}

void ShardedDocumentStore::Restamp(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) shard->Restamp(epoch);
  Republish();
}

void ShardedDocumentStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) shard->Clear();
  Republish();
}

std::shared_ptr<const ShardedCorpusSnapshot> ShardedDocumentStore::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

size_t ShardedDocumentStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_->all->size();
}

std::vector<std::string> ShardedDocumentStore::Names() const {
  std::shared_ptr<const ShardedCorpusSnapshot> snapshot = Snapshot();
  std::vector<std::string> names;
  names.reserve(snapshot->all->size());
  for (const CorpusDocument& entry : *snapshot->all) {
    names.push_back(entry.name);
  }
  return names;
}

}  // namespace uxm
