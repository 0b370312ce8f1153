// Per-(twig, document) answer-bound cache — the document-sensitive half
// of the corpus scheduler's Threshold-Algorithm bounds (ROADMAP item 4a).
//
// QueryPlan::AnswerUpperBound is pair-level: every document prepared
// under one pair shares one bound, so a homogeneous single-pair corpus
// can never prune — no item's bound ever falls below another's answers.
// This cache stores a per-(twig, document) refinement from two sound
// sources:
//
//   * realized bounds (EXACT) — after an item evaluates, its best
//     collapsed answer probability (0 for an empty answer set) is
//     recorded. Evaluation is deterministic in the full key below, so the
//     realized value is bit-for-bit the best answer any later run with
//     the same key produces. The scheduler uses an exact bound as-is and
//     may prune on EQUALITY with its twig's k-th answer (the tie-break
//     rule in corpus/bounded_scheduler.h).
//   * probe bounds (inexact) — QueryPlan::DocumentAnswerUpperBound sums
//     only the selected relevant mappings that have at least one
//     embedding whose every query node binds to a source element with a
//     matching instance in the document's annotation. A mapping without
//     such an embedding provably contributes no answer (an empty
//     candidate list propagates to the twig root in both kernels), so the
//     sum bounds every answer the item can produce — up to float noise,
//     which is why the scheduler min's it with the pair bound and prunes
//     on it only with kAnswerBoundSlack to spare.
//
// Insert rules: an exact insert REPLACES whatever is stored (a probe
// rounded a hair below the realized value must not win, or the tie test
// would compare against the wrong number); an inexact insert never
// displaces an exact entry and otherwise keeps the MIN of the stored and
// offered values (both are sound upper bounds, so their min is too).
//
// Keying and invalidation: keys mirror ResultCacheKey — (twig text,
// document pointer identity, epoch, effective top-k, algorithm, pair
// id). Entries are grouped by REGISTRATION, an outer (document, epoch)
// bucket holding that registration's flat per-twig table, so
// EraseRegistration drops one removed document's bounds without touching
// any other registration's (the facade calls it from RemoveDocument; a
// corpus that re-registers documents would otherwise pile up unreachable
// buckets until the flush). The facade's
// epoch/pair_id discipline applies unchanged: every re-registration,
// re-preparation, or InvalidateResultCache restamps epochs (or mints
// pair ids), making stale bounds structurally unreachable. Memory is
// bounded the way the plan/embedding caches are: past max_entries
// distinct keys (or distinct twig texts, each stored once and shared by
// every registration's entries for it) the whole generation is flushed
// (hot items re-cache immediately).
#ifndef UXM_CACHE_BOUND_CACHE_H_
#define UXM_CACHE_BOUND_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace uxm {

/// \brief The twig half of a bound key: the twig text, borrowed, and its
/// hash. Built once per twig and reused for every document of a run, so
/// a lookup neither copies nor rehashes the text.
struct BoundTwig {
  explicit BoundTwig(std::string_view twig_text)
      : text(twig_text), hash(std::hash<std::string_view>()(twig_text)) {}

  std::string_view text;  ///< must outlive every key built from it
  size_t hash;
};

/// \brief Identity of one (twig, document) bound. Field-for-field the
/// shape of ResultCacheKey: a bound is valid exactly as long as the
/// cached answer for the same evaluation would be.
struct BoundCacheKey {
  BoundTwig twig;
  const void* doc = nullptr;  ///< Document pointer identity.
  uint64_t epoch = 0;         ///< The document's registration epoch.
  int top_k = 0;              ///< Effective per-item evaluation top-k.
  bool block_tree = true;     ///< Algorithm 4 vs Algorithm 3.
  uint64_t pair = 0;          ///< PreparedSchemaPair::pair_id.
};

/// \brief A cached bound and whether it is exact (a realized best answer)
/// or merely sound (a probe).
struct CachedBound {
  double bound = 0.0;
  bool exact = false;
};

/// \brief Cumulative bound-cache counters.
struct BoundCacheStats {
  uint64_t hits = 0;        ///< Lookups served from cache.
  uint64_t misses = 0;      ///< Lookups that found nothing.
  uint64_t insertions = 0;  ///< Insert calls (refinements included).
  uint64_t flushes = 0;     ///< Generational evictions at max_entries.
  size_t entries = 0;       ///< Currently cached bounds.
};

/// \brief Thread-safe (twig, document, epoch, k, algorithm, pair) ->
/// answer-upper-bound map, grouped by (document, epoch) registration.
///
/// Same concurrency protocol as the EmbeddingCache: shared-lock lookups,
/// exclusive-lock inserts. The entry cap (not a byte budget) bounds
/// memory.
class BoundCache {
 public:
  /// `max_entries` bounds the number of cached keys and of stored twig
  /// texts (0 = unbounded).
  explicit BoundCache(size_t max_entries = 65536)
      : max_entries_(max_entries) {}

  BoundCache(const BoundCache&) = delete;
  BoundCache& operator=(const BoundCache&) = delete;

  /// The cached bound for `key`, or nullopt.
  std::optional<CachedBound> Lookup(const BoundCacheKey& key) const;

  /// Records `bound` for `key` under the insert rules above: exact
  /// replaces, inexact keeps the min and never displaces an exact entry.
  /// Negative bounds are clamped to 0 — no answer probability is below
  /// it, and the scheduler's threshold sentinel is negative.
  void Insert(const BoundCacheKey& key, double bound, bool exact);

  /// Drops every bound of one registration (document, epoch) without
  /// touching any other registration's.
  void EraseRegistration(const void* doc, uint64_t epoch);

  /// Drops every entry (counters are kept).
  void Clear();

  BoundCacheStats Stats() const;

 private:
  struct Registration {
    const void* doc;
    uint64_t epoch;
    bool operator==(const Registration& o) const {
      return doc == o.doc && epoch == o.epoch;
    }
  };
  struct RegistrationHash {
    size_t operator()(const Registration& r) const;
  };

  /// One registration's bounds in two flat arrays: the entries and an
  /// open-addressing index over them. A lookup probes the index by the
  /// key's hash without building a string, and dropping the registration
  /// frees two allocations however many twigs it holds.
  class TwigTable {
   public:
    CachedBound* Find(size_t hash, const BoundCacheKey& key);
    const CachedBound* Find(size_t hash, const BoundCacheKey& key) const;
    /// Adds a key Find did not find; `twig` is its interned text.
    void Add(size_t hash, const BoundCacheKey& key, const std::string* twig,
             CachedBound value);
    size_t size() const { return entries_.size(); }

   private:
    struct Entry {
      size_t hash;
      const std::string* twig;  ///< interned in BoundCache::twigs_
      int top_k;
      bool block_tree;
      uint64_t pair;
      CachedBound value;
    };
    /// Index of `key`'s entry, or entries_.size() when absent.
    size_t IndexOf(size_t hash, const BoundCacheKey& key) const;
    void Reindex(size_t capacity);

    std::vector<Entry> entries_;
    /// Power-of-two open-addressing slots holding entry index + 1 (0 =
    /// empty), kept at most half full.
    std::vector<uint32_t> slots_;
  };

  static size_t EntryHash(const BoundCacheKey& key);
  /// The one stored copy of `twig`'s text, shared by every
  /// registration's entries for it. Caller holds mu_ exclusively.
  const std::string* Intern(const BoundTwig& twig);

  const size_t max_entries_;
  mutable std::shared_mutex mu_;
  std::unordered_map<Registration, TwigTable, RegistrationHash> cache_;
  /// Twig texts by BoundTwig::hash. Nodes are stable, so entries point
  /// into them. Never shrunk by EraseRegistration (other registrations
  /// may share a text); the generational flush counts and clears them.
  std::unordered_multimap<size_t, std::string> twigs_;
  size_t entries_ = 0;  ///< sum of table sizes; guarded by mu_
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> flushes_{0};
};

}  // namespace uxm

#endif  // UXM_CACHE_BOUND_CACHE_H_
