#include "corpus/corpus_executor.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "common/checksum.h"
#include "common/timer.h"
#include "corpus/bounded_scheduler.h"
#include "corpus/run_budget.h"
#include "exec/thread_pool.h"
#include "plan/driver.h"

namespace uxm {

int DefaultShardCount() {
  return std::min(ThreadPool::DefaultThreadCount(), 8);
}

size_t ShardForDocument(const std::string& name, size_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<size_t>(Fnv1a64(name.data(), name.size())) % num_shards;
}

bool AnswerBefore(const CorpusAnswer& a, const CorpusAnswer& b) {
  if (a.probability != b.probability) return a.probability > b.probability;
  if (a.document != b.document) return a.document < b.document;
  return a.matches < b.matches;
}

std::vector<CorpusAnswer> CollapseForCorpus(const std::string& name,
                                            const PtqResult& result) {
  // One grouping definition in the codebase: CollapseByMatches does the
  // per-match-set probability aggregation; here we only drop empty match
  // sets, tag the document, and impose the canonical total order (the
  // collapse's probability-only sort leaves ties unordered).
  std::vector<CorpusAnswer> out;
  for (MappingAnswer& a : result.CollapseByMatches()) {
    if (a.matches.empty()) continue;
    out.push_back(CorpusAnswer{name, a.probability, std::move(a.matches)});
  }
  std::sort(out.begin(), out.end(), AnswerBefore);
  return out;
}

std::vector<CorpusAnswer> MergeTopK(
    const std::vector<std::vector<CorpusAnswer>>& per_document, int k) {
  // Each input list is already sorted by AnswerBefore (restricted to one
  // document), so a heap over list heads yields the global order.
  struct Head {
    size_t list;
    size_t pos;
  };
  auto worse = [&](const Head& x, const Head& y) {
    return AnswerBefore(per_document[y.list][y.pos],
                        per_document[x.list][x.pos]);
  };
  std::priority_queue<Head, std::vector<Head>, decltype(worse)> heap(worse);
  size_t total = 0;
  for (size_t l = 0; l < per_document.size(); ++l) {
    total += per_document[l].size();
    if (!per_document[l].empty()) heap.push(Head{l, 0});
  }
  const size_t want = k > 0 ? std::min<size_t>(static_cast<size_t>(k), total)
                            : total;
  std::vector<CorpusAnswer> merged;
  merged.reserve(want);
  while (!heap.empty() && merged.size() < want) {
    const Head head = heap.top();
    heap.pop();
    merged.push_back(per_document[head.list][head.pos]);
    if (head.pos + 1 < per_document[head.list].size()) {
      heap.push(Head{head.list, head.pos + 1});
    }
  }
  return merged;
}

namespace {

/// Resolves a CorpusQueryOptions::documents filter against a name-sorted
/// corpus snapshot: empty selects the whole corpus, unknown names fail
/// with NotFound, duplicates collapse, and the result is name-sorted.
Result<std::vector<const CorpusDocument*>> ResolveCorpusSelection(
    const CorpusSnapshot& corpus, const std::vector<std::string>& documents) {
  // The snapshot is name-sorted, so the fan-out (and the merge tie
  // order) is independent of filter order.
  std::vector<const CorpusDocument*> selected;
  if (documents.empty()) {
    selected.reserve(corpus.size());
    for (const CorpusDocument& entry : corpus) selected.push_back(&entry);
    return selected;
  }
  for (const std::string& name : documents) {
    const auto it = std::lower_bound(
        corpus.begin(), corpus.end(), name,
        [](const CorpusDocument& e, const std::string& n) {
          return e.name < n;
        });
    if (it == corpus.end() || it->name != name) {
      return Status::NotFound("no corpus document named '" + name + "'");
    }
    if (std::find(selected.begin(), selected.end(), &*it) == selected.end()) {
      selected.push_back(&*it);
    }
  }
  std::sort(selected.begin(), selected.end(),
            [](const CorpusDocument* a, const CorpusDocument* b) {
              return a->name < b->name;
            });
  return selected;
}

/// Recomputes response->exact from its answer slots (see
/// CorpusBatchResponse::exact).
void StampResponseExact(CorpusBatchResponse* response) {
  response->exact = true;
  for (const Result<CorpusQueryResult>& slot : response->answers) {
    const bool truncated =
        slot.ok() ? !slot->exact : slot.status().IsDeadlineExceeded();
    if (truncated) {
      response->exact = false;
      return;
    }
  }
}

/// Field-by-field sum of one shard's disposition counts into the run's
/// report (every field of CorpusRunReport is additive).
void AccumulateCorpusReport(const CorpusRunReport& shard,
                            CorpusRunReport* total) {
  total->items_total += shard.items_total;
  total->items_evaluated += shard.items_evaluated;
  total->items_pruned += shard.items_pruned;
  total->items_aborted += shard.items_aborted;
  total->items_aborted_in_kernel += shard.items_aborted_in_kernel;
  total->items_failed += shard.items_failed;
  total->dispatches += shard.dispatches;
  total->items_deadline_skipped += shard.items_deadline_skipped;
  // Summed too: the aggregate is total scheduler-nanoseconds across
  // shards (see CorpusRunReport::elapsed_ns).
  total->elapsed_ns += shard.elapsed_ns;
}

}  // namespace

Result<CorpusBatchResponse> CorpusExecutor::Run(
    const CorpusSnapshot& corpus, const std::vector<std::string>& twigs,
    const CorpusQueryOptions& options, const BatchCacheContext* cache) const {
  if (executor_ == nullptr) {
    return Status::Internal("corpus executor has no batch executor");
  }
  std::vector<const CorpusDocument*> selected;
  UXM_ASSIGN_OR_RETURN(selected,
                       ResolveCorpusSelection(corpus, options.documents));
  // Bounding needs a finite answer budget to beat: with top_k <= 0 every
  // answer is part of the result and nothing can ever be pruned.
  if (options.bounded && options.top_k > 0) {
    return RunBounded(selected, twigs, options, cache);
  }
  return RunExhaustive(selected, twigs, options, cache);
}

Result<CorpusBatchResponse> CorpusExecutor::RunExhaustive(
    const std::vector<const CorpusDocument*>& selected,
    const std::vector<std::string>& twigs, const CorpusQueryOptions& options,
    const BatchCacheContext* cache) const {
  // The exhaustive path ignores budgets by design: it is the oracle the
  // differential/certificate tests compare budgeted runs against.
  Timer timer;
  const size_t num_docs = selected.size();
  std::vector<BatchQueryItem> items;
  items.reserve(twigs.size() * num_docs);
  for (const std::string& twig : twigs) {
    for (const CorpusDocument* entry : selected) {
      BatchQueryItem item;
      item.doc = entry->annotated.get();
      item.twig = twig;
      item.epoch = entry->epoch;
      item.pair = entry->pair;  // evaluate under the document's own pair
      items.push_back(std::move(item));
    }
  }

  CorpusBatchResponse response;
  const std::vector<Result<PtqResult>> evaluated =
      executor_->Run(items, /*default_pair=*/nullptr, &response.report, cache);
  response.corpus.items_total = static_cast<int>(items.size());
  response.corpus.items_evaluated = static_cast<int>(items.size());
  response.corpus.dispatches = items.empty() ? 0 : 1;

  response.answers.reserve(twigs.size());
  for (size_t q = 0; q < twigs.size(); ++q) {
    Status failed = Status::OK();
    CorpusQueryResult merged;
    merged.documents_evaluated = static_cast<int>(num_docs);
    std::vector<std::vector<CorpusAnswer>> per_document;
    per_document.reserve(num_docs);
    for (size_t d = 0; d < num_docs; ++d) {
      const Result<PtqResult>& r = evaluated[q * num_docs + d];
      if (!r.ok()) {
        failed = r.status();
        break;
      }
      merged.truncated_embeddings |= r->truncated_embeddings;
      per_document.push_back(CollapseForCorpus(selected[d]->name, *r));
    }
    if (!failed.ok()) {
      response.answers.push_back(std::move(failed));
      continue;
    }
    merged.answers = MergeTopK(per_document, options.top_k);
    response.answers.push_back(std::move(merged));
  }
  response.corpus.elapsed_ns = timer.ElapsedNanos();
  return response;
}

Result<CorpusBatchResponse> CorpusExecutor::RunBounded(
    const std::vector<const CorpusDocument*>& selected,
    const std::vector<std::string>& twigs, const CorpusQueryOptions& options,
    const BatchCacheContext* cache) const {
  const size_t num_docs = selected.size();
  const size_t num_twigs = twigs.size();
  // Scattering fewer than two documents cannot race anything.
  const size_t num_shards =
      num_docs < 2 ? 1 : std::max<size_t>(num_shards_, 1);

  // Scatter: slice the (name-sorted) selection by the stable name hash.
  // Slices inherit the global order, so each shard's pool append order —
  // and with it every bound tie-break — is deterministic.
  std::vector<std::vector<uint32_t>> slices(num_shards);
  for (size_t d = 0; d < num_docs; ++d) {
    slices[ShardForDocument(selected[d]->name, num_shards)].push_back(
        static_cast<uint32_t>(d));
  }

  // One race per twig, shared by every shard: each twig keeps its OWN
  // top-k and threshold even though all twigs share one dispatch pool —
  // an item only ever prunes/cancels against its own twig's k-th best.
  std::vector<std::unique_ptr<TwigRace>> races;
  races.reserve(num_twigs);
  for (size_t t = 0; t < num_twigs; ++t) {
    races.push_back(std::make_unique<TwigRace>(options.top_k, num_docs));
  }

  BoundedRunContext ctx;
  ctx.executor = executor_;
  ctx.bound_cache = bound_cache_;
  ctx.selected = &selected;
  ctx.twigs = &twigs;
  ctx.cache = cache;
  ctx.probe_bounds = options.probe_bounds;
  // Corpus items carry no per-item top_k, so every evaluation runs under
  // the executor's base PtqOptions — the k the per-item bound must match.
  ctx.item_k = executor_->options().ptq.top_k;
  ctx.races = &races;
  // A budget exists only when the caller set one: a null ctx.budget IS
  // the unbudgeted exact path, byte for byte. One budget serves every
  // shard, so the merged certificate is global.
  std::optional<RunBudget> budget;
  if (RunBudget::Limited(options.deadline, options.max_evaluations)) {
    budget.emplace(options.deadline, options.max_evaluations);
    ctx.budget = &*budget;
  }
  ctx.on_deadline = options.on_deadline;

  // One scheduler per non-empty slice: bound phase, then the wave loop.
  // Each writes only its own result slot, so no locks.
  std::vector<BoundedScheduleResult> results(num_shards);
  auto run_slice = [&](size_t s) {
    Timer timer;
    const std::vector<uint32_t>& slice = slices[s];
    BoundedScheduleResult& result = results[s];
    result.corpus.items_total = static_cast<int>(num_twigs * slice.size());
    std::vector<BoundedPoolItem> pool;
    pool.reserve(num_twigs * slice.size());
    BuildBoundedPool(ctx, slice, &pool, &result);
    RunBoundedWaves(ctx, std::move(pool), &result);
    result.corpus.elapsed_ns = timer.ElapsedNanos();
  };
  {
    // The calling thread runs the first non-empty slice; dedicated
    // drivers run the rest, so S=1 spawns no thread.
    ScopedThreads drivers;
    size_t own = num_shards;
    for (size_t s = 0; s < num_shards; ++s) {
      if (slices[s].empty()) continue;
      if (own == num_shards) {
        own = s;
      } else {
        drivers.Spawn([&run_slice, s] { run_slice(s); });
      }
    }
    if (own < num_shards) run_slice(own);
  }

  CorpusBatchResponse response;
  for (size_t s = 0; s < num_shards; ++s) {
    if (!slices[s].empty()) {
      AccumulateBatchReport(results[s].report, &response.report);
    }
    AccumulateCorpusReport(results[s].corpus, &response.corpus);
    if (num_shards > 1) response.shard_reports.push_back(results[s].corpus);
  }
  FinalizeBoundedAnswers(ctx, options.top_k, &response.answers);
  StampResponseExact(&response);
  return response;
}

}  // namespace uxm
