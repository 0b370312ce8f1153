// Prepared schema pairs and their registry — the preparation layer of
// the plan/execute engine.
//
// The paper's whole economics rest on computing the schema-level products
// once and amortizing them across many queries and documents: the
// matching U, the top-h possible mappings M, the block tree X, plus (our
// serving additions) the shared plan compiler and the descending-
// probability work-unit order. A PreparedSchemaPair bundles exactly those
// products for ONE (source, target) schema pair, immutable once built and
// always handed around by shared_ptr<const> — in-flight queries keep the
// pair they started with alive across any re-preparation.
//
// The SchemaPairRegistry holds one current pair per (source, target)
// identity. Re-installing a pair for the same schemas replaces it (a new
// pair_id makes old cached answers structurally unreachable); pairs for
// other schemas are untouched, which is what lets one corpus span
// documents prepared under different pairs (see corpus/document_store.h).
#ifndef UXM_PLAN_PREPARED_PAIR_H_
#define UXM_PLAN_PREPARED_PAIR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "blocktree/block_tree.h"
#include "blocktree/flat_block_tree.h"
#include "cache/bound_cache.h"
#include "cache/embedding_cache.h"
#include "cache/query_compiler.h"
#include "common/status.h"
#include "mapping/possible_mapping.h"
#include "mapping/top_h.h"
#include "matching/matching.h"
#include "plan/query_plan.h"

namespace uxm {

/// \brief Everything derived from preparing one (source, target) schema
/// pair. Immutable once published; the compiler and the plans it caches
/// are internally synchronized interior state.
struct PreparedSchemaPair {
  /// Process-unique identity of this preparation, baked into result-cache
  /// keys: a re-prepared pair gets a fresh id, so answers computed under
  /// the old incarnation can never satisfy new lookups (and two pairs
  /// sharing a document never collide).
  uint64_t pair_id = 0;
  SchemaMatching matching;
  /// Shared work-unit order (descending probability + residual bounds).
  std::shared_ptr<const MappingOrder> order;
  /// Plan cache over this pair's mappings; shared by every query path.
  std::shared_ptr<QueryCompiler> compiler;
  /// Flat SoA evaluation index (mapping matrix + flattened block tree) —
  /// the ONLY structure the evaluation kernel and the snapshot writer
  /// read. Flattened from the top-h mapping set and its block tree at
  /// build time, or viewed zero-copy out of a snapshot mmap
  /// (src/snapshot/), so built and loaded pairs have one shape.
  std::shared_ptr<const FlatPairIndex> flat;
  /// Set only for snapshot-loaded pairs: the schemas the pair references
  /// were materialized by the loader, so the pair keeps them alive
  /// (built pairs reference caller-owned schemas and leave these null).
  std::shared_ptr<const Schema> owned_source;
  std::shared_ptr<const Schema> owned_target;

  const Schema* source() const { return matching.source_ptr(); }
  const Schema* target() const { return matching.target_ptr(); }
};

/// \brief Preparation knobs (the schema-level slice of SystemOptions).
struct PairBuildOptions {
  TopHOptions top_h;
  BlockTreeOptions block_tree;
  size_t max_embeddings = 256;
  /// Cross-pair embedding cache the pair's compiler consults (normally
  /// the registry's; null = the compiler embeds privately).
  std::shared_ptr<EmbeddingCache> embedding_cache;
};

/// Builds a pair from a finalized matching: generates the top-h mappings,
/// builds the block tree, flattens both, derives the work-unit order, and
/// seeds the plan compiler. The schemas referenced by `matching` must
/// outlive the pair.
Result<std::shared_ptr<const PreparedSchemaPair>> BuildPreparedSchemaPair(
    SchemaMatching matching, const PairBuildOptions& options);

/// Assembles a pair from already-built products (tests, benches and
/// examples that hand-craft mapping sets / trees). `tree` must have been
/// built from `mappings`; both are flattened into the pair and may be
/// dropped afterwards.
std::shared_ptr<const PreparedSchemaPair> MakePreparedSchemaPairFromProducts(
    SchemaMatching matching, const PossibleMappingSet& mappings,
    const BlockTree& tree, size_t max_embeddings = 256,
    std::shared_ptr<EmbeddingCache> embedding_cache = nullptr);

/// Assembles a pair around an already-flat index — the snapshot loader's
/// entry point (the index's spans view the loader's mmap; no re-prepare).
/// The pair gets a FRESH process-unique pair_id, so answers cached under
/// the incarnation that wrote the snapshot can never satisfy lookups
/// against the loaded one. `owned_source`/`owned_target` are the
/// materialized schemas `matching` references; the pair keeps them alive.
/// `order`, if given, is adopted as the pair's work-unit order (the
/// loader passes the serialized one); otherwise it is rebuilt from the
/// flat table — the two are identical by construction.
std::shared_ptr<const PreparedSchemaPair> MakePreparedSchemaPairFromFlatIndex(
    SchemaMatching matching, std::shared_ptr<const FlatPairIndex> flat,
    std::shared_ptr<const Schema> owned_source,
    std::shared_ptr<const Schema> owned_target, size_t max_embeddings = 256,
    std::shared_ptr<EmbeddingCache> embedding_cache = nullptr,
    std::shared_ptr<const MappingOrder> order = nullptr);

/// \brief Registry of the current pair per (source, target) identity.
///
/// Thread-safe; pairs are published by shared_ptr swap, so readers grab a
/// snapshot and never block behind an install. The facade additionally
/// serializes installs with its state lock so epoch stamping stays atomic
/// with corpus rebinding.
class SchemaPairRegistry {
 public:
  SchemaPairRegistry() = default;
  SchemaPairRegistry(const SchemaPairRegistry&) = delete;
  SchemaPairRegistry& operator=(const SchemaPairRegistry&) = delete;

  /// Installs `pair`, replacing any pair for the same (source, target)
  /// identity. Returns the replaced pair (null if this key is new).
  std::shared_ptr<const PreparedSchemaPair> Install(
      std::shared_ptr<const PreparedSchemaPair> pair);

  /// The current pair for (source, target), or null.
  std::shared_ptr<const PreparedSchemaPair> Find(const Schema* source,
                                                 const Schema* target) const;

  /// Unregisters the pair for (source, target) and returns it (null if
  /// no such pair). When the removed pair was the last one over its
  /// target schema, that schema's entries are swept from the shared
  /// embedding cache (the Schema pointer may later be reused). In-flight
  /// queries holding the pair's shared_ptr finish against it unharmed —
  /// the registry no longer grows monotonically, it just stops handing
  /// the pair out.
  std::shared_ptr<const PreparedSchemaPair> Remove(const Schema* source,
                                                   const Schema* target);

  /// Snapshot of every registered pair (unspecified order).
  std::vector<std::shared_ptr<const PreparedSchemaPair>> All() const;

  size_t size() const;
  void Clear();

  /// Marks the pair with `pair_id` as just-queried (recency for the
  /// facade's CacheOptions::max_pairs LRU eviction). Unknown ids are
  /// ignored — the pair may have been removed by a concurrent eviction,
  /// which is exactly when its recency no longer matters.
  void Touch(uint64_t pair_id) const;

  /// The registered pair least recently Touch'd (installation counts as
  /// a touch), skipping the excluded pairs (either may be null). Null
  /// when every registered pair is excluded. The facade picks eviction
  /// victims with this under its state lock — excluding the default pair
  /// and the pair being installed — so victim choice is atomic with the
  /// install that overflowed the cap.
  std::shared_ptr<const PreparedSchemaPair> LeastRecentlyUsed(
      const PreparedSchemaPair* exclude1,
      const PreparedSchemaPair* exclude2 = nullptr) const;

  /// The registry-wide cross-pair embedding cache. Pairs built for this
  /// registry should be given this cache (PairBuildOptions), so every
  /// pair over one target schema shares one embedding enumeration per
  /// twig. Never null.
  const std::shared_ptr<EmbeddingCache>& embedding_cache() const {
    return embeddings_;
  }

  /// The registry-wide document-sensitive answer-bound cache consulted by
  /// the corpus scheduler (cache/bound_cache.h). Keys carry epochs and
  /// pair ids, so the facade's invalidation discipline covers it the same
  /// way it covers the result cache. Never null.
  const std::shared_ptr<BoundCache>& bound_cache() const { return bounds_; }

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const PreparedSchemaPair>> pairs_;
  /// last_used_[i] is the use stamp of pairs_[i] (parallel vectors);
  /// stamps come from the monotone use_clock_. Both mutated under mu_.
  mutable std::vector<uint64_t> last_used_;
  mutable uint64_t use_clock_ = 0;
  std::shared_ptr<EmbeddingCache> embeddings_ =
      std::make_shared<EmbeddingCache>();
  std::shared_ptr<BoundCache> bounds_ = std::make_shared<BoundCache>();
};

}  // namespace uxm

#endif  // UXM_PLAN_PREPARED_PAIR_H_
