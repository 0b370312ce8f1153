// Cross-document top-k PTQ execution. A corpus query fans one twig (or a
// batch of twigs) across every document of a CorpusSnapshot on the shared
// BatchQueryExecutor thread pool. Every item carries its document's
// prepared pair, so one fan-out may span documents prepared under
// DIFFERENT schema pairs (a heterogeneous corpus): each (twig, document)
// evaluation compiles/plans the twig against that document's own pair and
// goes through the shared result cache — keys carry the per-document
// epoch and pair id — and the per-document PtqResults are k-way-merged
// into one global answer list ranked by answer probability, every answer
// tagged with the document it came from.
//
// Bound-driven scheduling (Threshold Algorithm over §IV-C bounds): when a
// global top-k budget is set, the executor does NOT evaluate every
// (twig, document) item. Each item gets an answer upper bound from two
// sources, and the scheduler uses their min:
//
//   * the pair-level bound (QueryPlan::AnswerUpperBound — the mass of
//     the mappings the item's selection may consume, derived from the
//     pair's shared descending-probability work-unit order), shared by
//     every document prepared under one pair; and
//   * a per-(twig, document) refinement from the registry's BoundCache
//     (cache/bound_cache.h): the realized best answer of a prior
//     evaluation under the same key (EXACT, used as-is instead of the
//     min), seeded on first contact by a cheap match-existence probe
//     over the document's annotation
//     (QueryPlan::DocumentAnswerUpperBound). This is what lets a
//     HOMOGENEOUS single-pair corpus prune: under one pair every item
//     shares one pair bound, but skewed documents get strictly smaller
//     document bounds.
//
// All (twig, document) items of the batch enter ONE shared dispatch
// pool, interleaved best-bound-first across twigs (many-twig batches
// keep wide pools saturated instead of draining one twig at a time).
// Each twig races its own top-k: a per-twig tracker keeps the k best
// answers found so far, and the twig's k-th best probability is
// published as its own atomic threshold that (a) stops dispatching —
// an item whose bound falls below its twig's threshold is pruned
// unevaluated — and (b) aborts already-dispatched items in flight (the
// ExecutionDriver rechecks the threshold before its expensive phases,
// and the flat kernel polls it every few dozen inner-loop steps, so
// even a long evaluation the threshold overtakes mid-flight stops
// within microseconds and returns Status::Cancelled). This is EXACT,
// not approximate: an item is only skipped when every answer it could
// produce provably ranks after its twig's current k-th best answer. An
// inexact (pair or probe) bound must fall strictly below the k-th
// probability with kAnswerBoundSlack to spare. An exact (realized)
// bound — exact because evaluation is deterministic in the cache key —
// may also TIE the k-th probability when its document name sorts after
// the k-th answer's, since AnswerBefore breaks probability ties by
// document name; that tie rule is what lets a homogeneous corpus, whose
// documents all share one best-answer mass, halt after about k
// documents. The in-flight cancellation threshold stays strict. The
// merged top-k is bit-identical to the exhaustive fan-out — debug builds
// re-evaluate every skipped item and certify it, and
// tests/differential_test.cc and tests/tie_prune_test.cc sweep bounded
// vs brute force.
//
// Sharded scheduling (scatter / global threshold / merge): the executor
// is built with the corpus's shard count S and runs one scheduler per
// shard. S = 1 — and any selection of fewer than two documents — is one
// scheduler over the whole selection on the calling thread, with no
// thread spawned.
//
//   scatter — the name-sorted selection is sliced by the stable name
//     hash ShardForDocument (FNV-1a-64 of the name modulo S), ONE race
//     (tracker + threshold) is allocated per twig, and one scheduler
//     runs per non-empty slice: the calling thread takes the first, a
//     dedicated driver thread (ScopedThreads, never a pool task — see
//     exec/thread_pool.h) each of the others. Every scheduler runs the
//     full bound phase + wave loop over its slice, so the per-document
//     bound probes, the dominant fixed cost on a corpus the thresholds
//     prune well, parallelize across shards. All waves dispatch into the
//     ONE shared BatchQueryExecutor pool.
//
//   global threshold — the races are shared: an answer found by any
//     shard raises its twig's k-th-best threshold for every shard, so a
//     shard whose best remaining bound has fallen below it prunes its
//     whole remainder without dispatching it, and in-flight items of
//     other shards abort at the driver checks or inside the kernel.
//
//   merge — every scheduler writes only its own documents' slots of the
//     shared races, so once all have joined the races hold what one
//     scheduler over the whole selection would have produced, and the
//     per-twig k-way merge over them is the single-scheduler merge.
//
// Exactness holds for every S: the threshold is a monotone max that
// starts below every bound, so pruning only ever drops items that k
// answers already in hand provably beat, and the merge is
// schedule-independent by AnswerBefore's total order. The
// tests/sharded_differential_test.cc sweep pins bit-identity across S.
// Reports: each shard's scheduler report is surfaced as
// CorpusBatchResponse::shard_reports[s] and `corpus` is their
// field-by-field sum, so items_total == evaluated + pruned + aborted +
// failed holds per shard AND in aggregate.
//
// Merge semantics: each document's PtqResult is first collapsed by match
// set via PtqResult::CollapseByMatches (answers over different mappings
// that bind the same document nodes aggregate their probabilities),
// empty match sets are dropped (an answer with no witness nodes is not a
// match of that document) and ties get a canonical order, and the
// per-document lists — sorted by descending probability — are merged
// with a heap into the global top-k.
// Ties break deterministically on (document name, match list), so the
// result is identical for any thread count, cache state, or pruning
// schedule.
#ifndef UXM_CORPUS_CORPUS_EXECUTOR_H_
#define UXM_CORPUS_CORPUS_EXECUTOR_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "cache/bound_cache.h"
#include "common/status.h"
#include "corpus/document_store.h"
#include "exec/batch_executor.h"
#include "query/ptq.h"

namespace uxm {

/// \brief One merged corpus answer: a set of witness nodes in one
/// document, with the total probability mass of the mappings that
/// produced it.
struct CorpusAnswer {
  std::string document;  ///< provenance: DocumentStore name
  double probability = 0.0;
  std::vector<DocNodeId> matches;  ///< non-empty, sorted, distinct
};

/// \brief Policy for a corpus run whose budget (deadline /
/// max_evaluations) expired before the run finished.
enum class OnDeadline {
  /// Return the current top-k plus a certified error bound: the affected
  /// answer slots come back OK with `exact == false` and
  /// `max_residual_bound` set — every answer present is a real answer
  /// with its exact probability, and any answer of the true top-k that
  /// is missing has probability <= max_residual_bound.
  kReturnPartialCertified = 0,
  /// Fail every budget-truncated twig's answer slot with
  /// StatusCode::kDeadlineExceeded (twigs the budget did not touch still
  /// return their exact answers).
  kFail,
};

/// \brief Knobs for one corpus query / batch.
struct CorpusQueryOptions {
  /// Global answer budget after the merge; 0 keeps every non-empty
  /// answer of every document.
  int top_k = 10;
  /// Restrict the fan-out to these document names (empty = whole
  /// corpus). Unknown names fail the call with NotFound.
  std::vector<std::string> documents;
  /// Use the bound-driven scheduler when top_k > 0 (see file comment).
  /// false forces the exhaustive evaluate-everything fan-out — the
  /// oracle the differential tests and the BM_BoundedCorpusTopK /
  /// BM_ExhaustiveCorpusTopK benchmark pair compare against. The
  /// ANSWERS are identical either way; only the work differs — which
  /// also means an evaluation failure inside a document the scheduler
  /// skipped is never observed (see CorpusExecutor::Run).
  bool bounded = true;
  /// Seed unknown (twig, document) bounds with the cheap match-existence
  /// probe over the document's annotation
  /// (QueryPlan::DocumentAnswerUpperBound) during the bound phase.
  /// Realized bounds recorded by prior bounded runs are consulted either
  /// way (through the BoundCache the executor was built with). Only
  /// meaningful for the bounded scheduler.
  bool probe_bounds = true;

  // ---- Anytime / budgeted serving (ROADMAP item 5) ----
  //
  // A run with any budget set degrades gracefully instead of blowing a
  // latency SLO: when the budget expires the scheduler stops dispatching,
  // cancels in-flight items (the driver and the kernels poll the shared
  // expiry; see corpus/run_budget.h), and — under kReturnPartialCertified
  // — returns the top-k found so far with a certified per-twig residual
  // bound. Budgets apply to the bounded scheduler only (bounded == true
  // and top_k > 0); the exhaustive path is the differential oracle and
  // ignores them. A budgeted run never inserts into the ResultCache, and
  // aborted items never record realized masses into the BoundCache, so a
  // truncated run can never poison later exact runs.

  /// Absolute steady-clock deadline for the whole run (all twigs, all
  /// shards — one global budget). max() = no deadline.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// At most this many (twig, document) kernel evaluations may start;
  /// 0 = unlimited. Result-cache hits, pruned items and budget-skipped
  /// items are free.
  int64_t max_evaluations = 0;
  /// What a budget expiry returns (ignored while the budget holds).
  OnDeadline on_deadline = OnDeadline::kReturnPartialCertified;
};

/// \brief Merged answers for one twig over the corpus.
struct CorpusQueryResult {
  /// Descending by probability; ties by (document name, matches).
  std::vector<CorpusAnswer> answers;
  /// Documents the fan-out considered (the corpus or the
  /// options.documents subset) — pruned/aborted ones included: pruning
  /// is exact, so a skipped document still "participated" in the answer.
  int documents_evaluated = 0;
  /// Of those, documents never dispatched because their answer upper
  /// bound proved them outside the top-k (below the k-th best answer, or
  /// an exact tie with it from a later-sorting document), and documents
  /// aborted in flight by the shared threshold.
  int documents_pruned = 0;
  int documents_aborted = 0;
  /// True if any contributing evaluation hit the max_embeddings cap.
  bool truncated_embeddings = false;
  /// False when the run's budget (CorpusQueryOptions::deadline /
  /// max_evaluations) expired before this twig finished: `answers` is
  /// then a certified PARTIAL top-k — every answer present is a real
  /// answer with its exact probability, and any answer of the true top-k
  /// that is missing has probability <= max_residual_bound. Unbudgeted
  /// runs are always exact (their pruning is, see file comment).
  bool exact = true;
  /// The certified error of a partial result: the max answer upper bound
  /// over this twig's unfinished items (never dispatched, or aborted by
  /// the budget without the threshold proving them prunable). 0 when
  /// exact.
  double max_residual_bound = 0.0;
};

/// \brief Bound-driven scheduling statistics for one corpus run, summed
/// over every twig of the batch. items are (twig, document) units.
/// Invariant (pinned by tests): items_total == items_evaluated +
/// items_pruned + items_aborted + items_failed — every considered item
/// lands in exactly one bucket, failures included.
struct CorpusRunReport {
  int items_total = 0;      ///< twig x document units considered
  int items_evaluated = 0;  ///< dispatched and evaluated (or cache hits)
  int items_pruned = 0;     ///< never dispatched (provably outside top-k)
  int items_aborted = 0;    ///< cancelled in flight by the threshold
  /// Of items_aborted, those whose abort happened INSIDE the evaluation
  /// kernel rather than at the driver's cheap pre-evaluation checks.
  int items_aborted_in_kernel = 0;
  /// Items that failed (their twig's answer slot holds the status) plus
  /// items never dispatched because their twig had already failed — a
  /// compile failure charges the twig's whole document count here.
  int items_failed = 0;
  int dispatches = 0;  ///< executor waves issued
  /// Of items_aborted, items never dispatched at all because the run's
  /// budget (deadline / max_evaluations) expired first. Budget aborts of
  /// items already in flight land in items_aborted(_in_kernel) like
  /// threshold aborts.
  int items_deadline_skipped = 0;
  /// Wall-clock nanoseconds this scheduler spent (bound phase + dispatch
  /// waves). A scattered run's shard_reports entries carry their own
  /// scheduler's time and the aggregate is their SUM — total scheduler
  /// nanoseconds, not the batch's wall-clock latency.
  int64_t elapsed_ns = 0;
};

/// \brief Batch answers, one slot per input twig (input order), plus the
/// underlying executor's run statistics and the scheduler's pruning
/// accounting.
struct CorpusBatchResponse {
  std::vector<Result<CorpusQueryResult>> answers;
  BatchRunReport report;
  CorpusRunReport corpus;
  /// Per-shard scheduler reports, in shard index order, when the bounded
  /// scheduler scattered the batch over S > 1 shards — each shard's own
  /// evaluated/pruned/aborted/failed split (all zero for a shard the
  /// selection left empty), summing field-by-field to `corpus`. Empty
  /// when one scheduler ran the whole selection: S = 1, a selection of
  /// fewer than two documents, or the exhaustive path.
  std::vector<CorpusRunReport> shard_reports;
  /// False iff any answer slot was budget-truncated — an OK slot with
  /// `exact == false`, or a kDeadlineExceeded failure under
  /// OnDeadline::kFail. A quick "was this batch the exact answer?" bit.
  bool exact = true;
};

/// Default shard count: min(usable CPUs, 8), floor 1. Eight is where
/// the scatter-gather win flattens for in-process serving — more shards
/// mean more driver threads contending for the one evaluation pool
/// without adding bound-phase parallelism.
int DefaultShardCount();

/// The slice a document lands in when a run scatters over `num_shards`
/// schedulers: FNV-1a-64 of the document name modulo `num_shards`
/// (clamped to >= 1). A pure function of the name — never of
/// registration order, corpus size or pointer identity — so the same
/// corpus always partitions the same way, across runs, processes and
/// snapshot save/load (per-shard snapshot files rely on it).
size_t ShardForDocument(const std::string& name, size_t num_shards);

/// Global answer order: probability descending, then document name, then
/// match list (both ascending) so equal-probability answers have one
/// canonical ranking. Exposed for testing (CollapseForCorpus, MergeTopK
/// and TopKTracker all rank by it).
bool AnswerBefore(const CorpusAnswer& a, const CorpusAnswer& b);

/// \brief The k best answers seen so far for one twig. With AnswerBefore
/// as the priority_queue "less", top() is the element that ranks before
/// nothing else — the current k-th best — whose probability is the
/// pruning threshold once k answers are in hand.
///
/// k <= 0 means "no budget": the tracker holds nothing, full() is never
/// true and kth_probability() is 0.0, so a caller that prunes only
/// against a full tracker (the scheduler's contract) prunes nothing.
/// The tracker defends itself rather than relying on a check in
/// CorpusExecutor::Run, so no call site can reintroduce the undefined
/// behavior a k <= 0 heap would have.
class TopKTracker {
 public:
  explicit TopKTracker(int k) : k_(k) {}

  void Push(const CorpusAnswer& answer) {
    if (k_ <= 0) return;
    if (static_cast<int>(heap_.size()) < k_) {
      heap_.push(answer);
    } else if (AnswerBefore(answer, heap_.top())) {
      heap_.pop();
      heap_.push(answer);
    }
  }

  /// True iff k answers are in hand (never for k <= 0).
  bool full() const { return k_ > 0 && static_cast<int>(heap_.size()) >= k_; }

  /// The current k-th best probability; 0.0 while empty (a threshold no
  /// bound can strictly fall below, so it never prunes).
  double kth_probability() const {
    return heap_.empty() ? 0.0 : heap_.top().probability;
  }

  /// The current k-th best answer itself (the worst one held) — what the
  /// scheduler's tie test compares document names against. Requires
  /// full().
  const CorpusAnswer& kth() const { return heap_.top(); }

 private:
  struct WorseLast {
    bool operator()(const CorpusAnswer& a, const CorpusAnswer& b) const {
      return AnswerBefore(a, b);
    }
  };
  int k_;
  std::priority_queue<CorpusAnswer, std::vector<CorpusAnswer>, WorseLast>
      heap_;
};

/// Collapses one document's PtqResult into per-match-set corpus answers
/// tagged `name`, dropping empty match sets, sorted descending by
/// (probability, then ascending matches). Exposed for testing.
std::vector<CorpusAnswer> CollapseForCorpus(const std::string& name,
                                            const PtqResult& result);

/// K-way-merges per-document answer lists (each sorted the way
/// CollapseForCorpus sorts) into the global top-k. `k <= 0` keeps all.
/// Exposed for testing: the facade acceptance property is that this over
/// per-document Query results equals QueryCorpus.
std::vector<CorpusAnswer> MergeTopK(
    const std::vector<std::vector<CorpusAnswer>>& per_document, int k);

/// \brief Fans twigs across a corpus on a BatchQueryExecutor.
///
/// The executor is borrowed, not owned: the facade hands in the same
/// cached BatchQueryExecutor its RunBatch path uses, so corpus and
/// single-document traffic share one thread pool and one set of caches.
class CorpusExecutor {
 public:
  /// `bound_cache` (optional, borrowed — normally the registry's, see
  /// SchemaPairRegistry::bound_cache) supplies and receives the
  /// per-(twig, document) bounds of the bounded scheduler; null disables
  /// document-sensitive bound caching (probe bounds are then computed
  /// per run and realized bounds are not remembered). `num_shards` is
  /// the number of bounded schedulers a run scatters over (see file
  /// comment; 0 counts as 1) — the facade passes its resolved
  /// SystemOptions::corpus_shards, so slice s holds exactly the documents
  /// SaveShardSnapshot(s) exports.
  explicit CorpusExecutor(const BatchQueryExecutor* executor,
                          BoundCache* bound_cache = nullptr,
                          size_t num_shards = 1)
      : executor_(executor),
        bound_cache_(bound_cache),
        num_shards_(num_shards) {}

  /// Evaluates every twig against the corpus (or the options.documents
  /// subset) — through the bound-driven scheduler when options.bounded
  /// and options.top_k > 0, exhaustively otherwise — and merges per
  /// twig. Per-twig failures (e.g. parse errors) error only their own
  /// answer slot. Compile failures are detected before any dispatch and
  /// fail the twig either way; EVALUATION failures are reported only
  /// for items that actually evaluated — a document the bounded
  /// scheduler pruned or aborted never ran, so a failure it would have
  /// produced under the exhaustive path is legitimately never observed
  /// (the answer-equality guarantee is unaffected: a skipped item
  /// provably contributes no top-k answer). When `cache` is non-null,
  /// each item is cached under its document's epoch.
  Result<CorpusBatchResponse> Run(const CorpusSnapshot& corpus,
                                  const std::vector<std::string>& twigs,
                                  const CorpusQueryOptions& options,
                                  const BatchCacheContext* cache) const;

 private:
  /// The pre-PR-5 evaluate-everything path: one executor dispatch over
  /// all twig x document items, then per-twig collapse + merge.
  Result<CorpusBatchResponse> RunExhaustive(
      const std::vector<const CorpusDocument*>& selected,
      const std::vector<std::string>& twigs,
      const CorpusQueryOptions& options, const BatchCacheContext* cache) const;

  /// The Threshold-Algorithm scheduler (see file comment), one per
  /// non-empty shard slice: per-twig bound phase (pair bound min'd with
  /// the cached/probed document bound) -> ONE cross-twig pool sorted
  /// best-bound-first -> dispatch waves against the shared per-twig
  /// trackers/thresholds -> prune/abort/fail accounting; then per-twig
  /// merge + debug certificate over every slice.
  Result<CorpusBatchResponse> RunBounded(
      const std::vector<const CorpusDocument*>& selected,
      const std::vector<std::string>& twigs,
      const CorpusQueryOptions& options, const BatchCacheContext* cache) const;

  const BatchQueryExecutor* executor_;
  BoundCache* bound_cache_;
  size_t num_shards_;
};

}  // namespace uxm

#endif  // UXM_CORPUS_CORPUS_EXECUTOR_H_
