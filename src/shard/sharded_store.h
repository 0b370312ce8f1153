// Sharded corpus registry — the partitioning half of in-process sharded
// corpus serving (ROADMAP item 2).
//
// A shard IS a DocumentStore: the ShardedDocumentStore routes every
// registration to one of S inner stores by a stable hash of the document
// NAME (never of registration order, corpus size, or pointer identity),
// so the same corpus always partitions the same way — across runs,
// across processes, and across snapshot save/load. That stability is
// what makes per-shard snapshot export a replica-bootstrap path: a
// replica that loads shard s's snapshot holds exactly the documents any
// coordinator would route to shard s.
//
// Every mutation republishes one immutable ShardedCorpusSnapshot: the
// merged name-sorted view (what subset resolution, answer merging, and
// SaveSnapshot run against — identical to the unsharded CorpusSnapshot)
// plus the S per-shard name-sorted views the per-shard schedulers fan
// out over. Both views share the same CorpusDocument entries, so a
// snapshot costs S+1 vectors of shared_ptr-sized records, not document
// copies, and readers grab one shared_ptr and never block a mutation
// (the same discipline as DocumentStore).
#ifndef UXM_SHARD_SHARDED_STORE_H_
#define UXM_SHARD_SHARDED_STORE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "corpus/document_store.h"

namespace uxm {

/// Default shard count: min(usable CPUs, 8), floor 1. Eight is
/// where the scatter-gather win flattens for in-process serving — more
/// shards mean more driver threads contending for the one evaluation
/// pool without adding bound-phase parallelism.
int DefaultShardCount();

/// Stable shard assignment: FNV-1a-64 of the document name modulo
/// `num_shards` (clamped to >= 1). Pure function of the name; exposed so
/// tests can pin placements and tools/uxm_snapshot can summarize a
/// snapshot's shard layout without loading it into a store.
size_t ShardForDocument(const std::string& name, size_t num_shards);

/// \brief One consistent instant of a sharded corpus.
///
/// Invariant: `shards` partition `*all` — disjoint, union-equal, every
/// document in shard ShardForDocument(name, shards.size()) — and each
/// view is name-sorted. Pinned by tests/shard_test.cc.
struct ShardedCorpusSnapshot {
  std::shared_ptr<const CorpusSnapshot> all;
  std::vector<std::shared_ptr<const CorpusSnapshot>> shards;
};

/// \brief Thread-safe registry of named annotated documents, partitioned
/// into S DocumentStores by name hash.
///
/// API mirrors DocumentStore (the facade swaps one for the other); the
/// pair-wide operations fan out over every shard. Internally
/// synchronized, but the facade additionally serializes mutations with
/// its state lock so epoch assignment stays atomic with Prepare.
class ShardedDocumentStore {
 public:
  /// `num_shards` <= 0 selects DefaultShardCount(). The count is fixed
  /// for the store's lifetime (re-sharding a live corpus is a
  /// rebuild-and-reload operation, not a mutation).
  explicit ShardedDocumentStore(int num_shards = 0);

  ShardedDocumentStore(const ShardedDocumentStore&) = delete;
  ShardedDocumentStore& operator=(const ShardedDocumentStore&) = delete;

  size_t num_shards() const { return shards_.size(); }

  /// The shard `name` is (or would be) stored in.
  size_t ShardOf(const std::string& name) const {
    return ShardForDocument(name, shards_.size());
  }

  /// Registers `entry` in its name's shard. AlreadyExists if the name is
  /// taken (names are globally unique: one name always maps to one
  /// shard); InvalidArgument per DocumentStore::Add.
  Status Add(CorpusDocument entry);

  /// Unregisters `name` from its shard. NotFound if absent. `removed`,
  /// when non-null, receives the unregistered entry.
  Status Remove(const std::string& name, CorpusDocument* removed = nullptr);

  /// Re-binds every entry of `pair`'s (source, target) key to the new
  /// incarnation across all shards (see DocumentStore::RebindPair).
  /// Returns the number of entries re-bound.
  int RebindPair(const std::shared_ptr<const PreparedSchemaPair>& pair,
                 uint64_t epoch);

  /// Drops every entry registered under the pair for (source, target)
  /// across all shards. Returns the number of entries dropped.
  int RemovePairDocuments(const Schema* source, const Schema* target);

  /// Re-stamps every entry of every shard with `epoch`.
  void Restamp(uint64_t epoch);

  /// Drops every entry of every shard.
  void Clear();

  /// The current corpus view. Never null; `all` and all S `shards`
  /// entries are non-null (empty vectors when nothing is registered).
  std::shared_ptr<const ShardedCorpusSnapshot> Snapshot() const;

  /// Registered document count / names (sorted), over all shards.
  size_t size() const;
  std::vector<std::string> Names() const;

 private:
  /// Rebuilds the published snapshot from the shard stores. Caller holds
  /// mu_ (so the S per-shard captures form one consistent instant).
  void Republish();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<DocumentStore>> shards_;
  std::shared_ptr<const ShardedCorpusSnapshot> snapshot_;
};

}  // namespace uxm

#endif  // UXM_SHARD_SHARDED_STORE_H_
