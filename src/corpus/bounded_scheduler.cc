#include "corpus/bounded_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "plan/driver.h"

namespace uxm {

namespace {

/// Smallest wave: below this the per-dispatch pool overhead dominates
/// any pruning win. The effective wave is max(threads, kMinWaveItems) so
/// every worker has an item even on wide pools.
constexpr size_t kMinWaveItems = 8;

#ifndef NDEBUG
/// Re-evaluates every document the scheduler skipped into `collapsed` and
/// returns true; false when any re-evaluation errors (e.g. an armed
/// fault-injection site — certification needs ground truth it then cannot
/// establish, which is not a scheduling bug).
bool FillSkippedForCertificate(const std::vector<const CorpusDocument*>& docs,
                               const std::string& twig,
                               const BatchExecutorOptions& exec_options,
                               std::vector<std::vector<CorpusAnswer>>* collapsed,
                               const std::vector<char>& have) {
  for (size_t d = 0; d < docs.size(); ++d) {
    if (have[d]) continue;
    DriverRequest request;
    request.pair = docs[d]->pair.get();
    request.doc = docs[d]->annotated.get();
    request.twig = &twig;
    request.options = exec_options.ptq;
    request.use_block_tree = exec_options.use_block_tree;
    auto result = ExecutionDriver::Execute(request);
    if (!result.ok()) return false;
    (*collapsed)[d] = CollapseForCorpus(docs[d]->name, *result);
  }
  return true;
}

/// Debug-build exactness certificate: evaluate every document the
/// scheduler skipped (no caches, no cancellation), merge over ALL
/// documents, and require the result to be identical to what the bounded
/// run returned. Pruning must never be observable in the answers.
void CertifyBoundedTopK(const std::vector<const CorpusDocument*>& docs,
                        const std::string& twig, int merge_k,
                        const BatchExecutorOptions& exec_options,
                        std::vector<std::vector<CorpusAnswer>> collapsed,
                        const std::vector<char>& have,
                        const std::vector<CorpusAnswer>& got) {
  if (!FillSkippedForCertificate(docs, twig, exec_options, &collapsed, have)) {
    return;
  }
  const std::vector<CorpusAnswer> want = MergeTopK(collapsed, merge_k);
  bool equal = want.size() == got.size();
  for (size_t i = 0; equal && i < want.size(); ++i) {
    equal = want[i].document == got[i].document &&
            want[i].probability == got[i].probability &&
            want[i].matches == got[i].matches;
  }
  if (!equal) {
    std::fprintf(stderr,
                 "bounded corpus top-k certificate FAILED for twig '%s': "
                 "bounded run returned %zu answers, exhaustive merge %zu\n",
                 twig.c_str(), got.size(), want.size());
  }
  assert(equal && "bound-driven pruning changed the corpus top-k");
}

/// Debug-build ANYTIME certificate for a budget-truncated twig: every
/// answer the exhaustive merge ranks in the true top-k but missing from
/// the partial result must have probability <= the reported residual
/// bound, and every answer present must be a real answer with its exact
/// probability.
void CertifyAnytimeTopK(const std::vector<const CorpusDocument*>& docs,
                        const std::string& twig, int merge_k,
                        const BatchExecutorOptions& exec_options,
                        std::vector<std::vector<CorpusAnswer>> collapsed,
                        const std::vector<char>& have,
                        const std::vector<CorpusAnswer>& got,
                        double residual_bound) {
  if (!FillSkippedForCertificate(docs, twig, exec_options, &collapsed, have)) {
    return;
  }
  const std::vector<CorpusAnswer> want = MergeTopK(collapsed, merge_k);
  bool sound = true;
  for (const CorpusAnswer& w : want) {
    bool present = false;
    for (const CorpusAnswer& g : got) {
      if (g.document == w.document && g.probability == w.probability &&
          g.matches == w.matches) {
        present = true;
        break;
      }
    }
    if (!present && w.probability > residual_bound + kAnswerBoundSlack) {
      sound = false;
      break;
    }
  }
  // Presence check: partial answers come from fully evaluated documents,
  // so each must appear verbatim in the exhaustive merge over ALL
  // answers (merge with no k cap to see past the true top-k).
  const std::vector<CorpusAnswer> all = MergeTopK(collapsed, /*k=*/0);
  for (const CorpusAnswer& g : got) {
    bool real = false;
    for (const CorpusAnswer& a : all) {
      if (g.document == a.document && g.probability == a.probability &&
          g.matches == a.matches) {
        real = true;
        break;
      }
    }
    if (!real) {
      sound = false;
      break;
    }
  }
  if (!sound) {
    std::fprintf(stderr,
                 "anytime corpus top-k certificate FAILED for twig '%s': "
                 "partial result (%zu answers, residual %.17g) does not "
                 "cover the true top-%d\n",
                 twig.c_str(), got.size(), residual_bound, merge_k);
  }
  assert(sound && "budget truncation broke the anytime certificate");
}
#endif  // NDEBUG

/// The one "provably outside" test behind every prune and every exact
/// abort: true iff no answer `pi` can produce will ever rank inside its
/// twig's top-k. `document` is the item's document name.
///   * An inexact bound (pair bound, probe) carries float noise, so the
///     item is out only when bound + kAnswerBoundSlack falls strictly
///     below the threshold.
///   * An exact bound is the item's realized best answer, bit for bit. It
///     is out when it falls strictly below the threshold, and also on a
///     TIE with the k-th answer when `document` sorts after that answer's
///     document: AnswerBefore breaks equal probabilities by document
///     name, so every answer of the item ranks after the k-th. The tie
///     case reads the tracker under race->mu.
/// The k-th answer only ever improves (Push only tightens), so a true
/// verdict is final under any concurrent schedule.
bool ProvablyOutside(const BoundedPoolItem& pi, const std::string& document,
                     TwigRace* race) {
  const double threshold = race->threshold.load(std::memory_order_acquire);
  if (!pi.exact) return pi.bound + kAnswerBoundSlack < threshold;
  if (pi.bound < threshold) return true;
  if (pi.bound != threshold) return false;
  std::lock_guard<std::mutex> lock(race->mu);
  if (!race->tracker.full()) return false;
  const CorpusAnswer& kth = race->tracker.kth();
  return pi.bound < kth.probability ||
         (pi.bound == kth.probability && document > kth.document);
}

}  // namespace

void RaiseThreshold(std::atomic<double>* threshold, double value) {
  double current = threshold->load(std::memory_order_relaxed);
  while (value > current &&
         !threshold->compare_exchange_weak(current, value,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
  }
}

void AccumulateBatchReport(const BatchRunReport& wave, BatchRunReport* total) {
  total->num_threads = wave.num_threads;
  if (total->items_per_thread.size() != wave.items_per_thread.size()) {
    total->items_per_thread.assign(wave.items_per_thread.size(), 0);
  }
  for (size_t i = 0; i < wave.items_per_thread.size(); ++i) {
    total->items_per_thread[i] += wave.items_per_thread[i];
  }
  total->query_cache_hits += wave.query_cache_hits;
  total->result_cache_hits += wave.result_cache_hits;
  total->result_cache_misses += wave.result_cache_misses;
  total->mappings_pruned += wave.mappings_pruned;
  total->items_aborted += wave.items_aborted;
  total->items_aborted_in_kernel += wave.items_aborted_in_kernel;
  total->compiler = wave.compiler;
  total->result_cache = wave.result_cache;
}

void BuildBoundedPool(const BoundedRunContext& ctx,
                      const std::vector<uint32_t>& docs,
                      std::vector<BoundedPoolItem>* pool,
                      BoundedScheduleResult* out) {
  const std::vector<const CorpusDocument*>& selected = *ctx.selected;
  const BatchExecutorOptions& exec_options = ctx.executor->options();
  const size_t num_twigs = ctx.twigs->size();
  std::vector<BoundedPoolItem> twig_items;
  for (size_t t = 0; t < num_twigs; ++t) {
    TwigRace& race = *(*ctx.races)[t];
    const BoundTwig twig_key((*ctx.twigs)[t]);
    // Compile once per distinct pair: the schema-level bound is
    // document-free and shared by all of the pair's documents.
    struct PairInfo {
      Status status = Status::OK();
      std::shared_ptr<const QueryPlan> plan;
      double bound = 0.0;
    };
    std::unordered_map<uint64_t, PairInfo> pairs;
    twig_items.clear();
    bool compile_failed = false;
    for (const uint32_t d : docs) {
      const CorpusDocument& entry = *selected[d];
      auto it = pairs.find(entry.pair->pair_id);
      if (it == pairs.end()) {
        PairInfo info;
        auto compiled = entry.pair->compiler->Compile((*ctx.twigs)[t]);
        if (compiled.ok()) {
          info.plan = *compiled;
          info.bound = info.plan->AnswerUpperBound(ctx.item_k);
        } else {
          info.status = compiled.status();
        }
        it = pairs.emplace(entry.pair->pair_id, std::move(info)).first;
      }
      const PairInfo& info = it->second;
      if (!info.status.ok()) {
        // A compile failure fails EVERY document of its pair, so the
        // first name-order document of the first failing pair is exactly
        // the exhaustive path's first failure. Compilation is
        // deterministic per (twig, pair), so every scheduler whose slice
        // holds such a document records the same status, and the min
        // over slices is the min over all documents — shard-count
        // independent.
        {
          std::lock_guard<std::mutex> lock(race.mu);
          if (d < race.compile_doc) {
            race.compile_doc = d;
            race.compile_status = info.status;
          }
        }
        race.failed.store(true, std::memory_order_release);
        // The twig's whole slice is charged to items_failed and none of
        // it enters the pool, keeping the run-report invariant.
        out->corpus.items_failed += static_cast<int>(docs.size());
        compile_failed = true;
        break;
      }
      double bound = info.bound;
      bool exact = false;
      // Once the budget expires the bound phase stops doing real work
      // too: no probes (they walk the document's annotation), just the
      // free pair/cached bounds — the pool still gets every item so the
      // drain can classify and certify all of them.
      const bool probe =
          ctx.probe_bounds &&
          (ctx.budget == nullptr || !ctx.budget->ExpiredNow());
      if (ctx.bound_cache != nullptr) {
        const BoundCacheKey key{twig_key,
                                entry.doc,
                                entry.epoch,
                                ctx.item_k,
                                exec_options.use_block_tree,
                                entry.pair->pair_id};
        if (const auto cached = ctx.bound_cache->Lookup(key)) {
          // An exact bound is used as-is: min'ing it with the pair bound
          // could trade the realized value for one a hair below it, and
          // the tie test needs the realized value bit for bit.
          exact = cached->exact;
          bound = exact ? cached->bound : std::min(bound, cached->bound);
        } else if (probe && entry.annotated != nullptr) {
          const double probed =
              info.plan->DocumentAnswerUpperBound(ctx.item_k, *entry.annotated);
          ctx.bound_cache->Insert(key, probed, /*exact=*/false);
          bound = std::min(bound, probed);
        }
      } else if (probe && entry.annotated != nullptr) {
        bound = std::min(bound, info.plan->DocumentAnswerUpperBound(
                                    ctx.item_k, *entry.annotated));
      }
      twig_items.push_back(
          BoundedPoolItem{static_cast<uint32_t>(t), d, bound, exact});
    }
    if (!compile_failed) {
      pool->insert(pool->end(), twig_items.begin(), twig_items.end());
    }
  }
}

void RunBoundedWaves(const BoundedRunContext& ctx,
                     std::vector<BoundedPoolItem> pool,
                     BoundedScheduleResult* out) {
  const std::vector<const CorpusDocument*>& selected = *ctx.selected;
  const BatchExecutorOptions& exec_options = ctx.executor->options();
  const size_t wave_size =
      std::max<size_t>(static_cast<size_t>(ctx.executor->num_threads()),
                       kMinWaveItems);
  out->report.num_threads = ctx.executor->num_threads();
  out->report.items_per_thread.assign(
      static_cast<size_t>(ctx.executor->num_threads()), 0);

  // Highest bound first; stable_sort keeps the caller's (twig order,
  // name order) for equal bounds, so a single-twig batch dispatches in
  // exactly the order the per-twig scheduler used.
  std::stable_sort(pool.begin(), pool.end(),
                   [](const BoundedPoolItem& a, const BoundedPoolItem& b) {
                     return a.bound > b.bound;
                   });

  size_t pos = 0;
  while (pos < pool.size()) {
    // Budget poll between waves: once the run expires, nothing further
    // is dispatched — the leftover pool drains into the residual
    // classification below, and items already in flight are cancelled by
    // the driver/kernel polls of the same shared budget.
    if (ctx.budget != nullptr && ctx.budget->ExpiredNow()) break;
    // Collect the next wave. The threshold is read lock-free: it only
    // ever rises (and starts below every bound), so a prune decision
    // made against a concurrently rising value stays sound.
    std::vector<BatchQueryItem> items;
    std::vector<BoundedPoolItem> wave;  // wave index -> pool item
    while (pos < pool.size() && items.size() < wave_size) {
      if (ctx.budget != nullptr && ctx.budget->expired()) break;
      const BoundedPoolItem pi = pool[pos++];
      TwigRace& race = *(*ctx.races)[pi.twig];
      if (race.failed.load(std::memory_order_acquire)) {
        // The twig failed (here or in a concurrent scheduler); its
        // leftover items are never dispatched, but still accounted.
        ++out->corpus.items_failed;
        continue;
      }
      if (ProvablyOutside(pi, selected[pi.doc]->name, &race)) {
        // No tail cut: a later pool item may belong to a different twig
        // whose threshold it still beats.
        race.docs_pruned.fetch_add(1, std::memory_order_relaxed);
        ++out->corpus.items_pruned;
        continue;
      }
      const CorpusDocument& entry = *selected[pi.doc];
      BatchQueryItem item;
      item.doc = entry.annotated.get();
      item.twig = (*ctx.twigs)[pi.twig];
      item.epoch = entry.epoch;
      item.pair = entry.pair;
      item.priority = pi.bound;
      item.cancel_threshold = &race.threshold;  // races its own twig only
      items.push_back(std::move(item));
      wave.push_back(pi);
    }
    if (items.empty()) continue;

    // Workers fold each finished item into its twig's tracker
    // immediately, so thresholds rise mid-wave and later items of this
    // very wave — or of any concurrent scheduler's wave — can abort, at
    // the driver's checks or inside the kernel.
    BatchRunControl control;
    control.budget = ctx.budget;
    control.on_item_done = [&](size_t i, const Result<PtqResult>& r) {
      if (!r.ok()) return;
      const BoundedPoolItem pi = wave[i];
      TwigRace& race = *(*ctx.races)[pi.twig];
      const CorpusDocument& entry = *selected[pi.doc];
      std::vector<CorpusAnswer> answers = CollapseForCorpus(entry.name, *r);
      if (ctx.bound_cache != nullptr) {
        // Realized bound: evaluation is deterministic in this key, so
        // the best collapsed answer (0 when there is none) is an exact
        // bound for any later run under the same key — usually far
        // tighter than the probe it replaces.
        ctx.bound_cache->Insert(
            BoundCacheKey{BoundTwig((*ctx.twigs)[pi.twig]), entry.doc,
                          entry.epoch, ctx.item_k, exec_options.use_block_tree,
                          entry.pair->pair_id},
            answers.empty() ? 0.0 : answers.front().probability,
            /*exact=*/true);
      }
      std::lock_guard<std::mutex> lock(race.mu);
      for (const CorpusAnswer& a : answers) race.tracker.Push(a);
      if (race.tracker.full()) {
        RaiseThreshold(&race.threshold, race.tracker.kth_probability());
      }
      race.collapsed[pi.doc] = std::move(answers);
      race.have[pi.doc] = 1;
    };

    BatchRunReport wave_report;
    const std::vector<Result<PtqResult>> results = ctx.executor->Run(
        items, /*default_pair=*/nullptr, &wave_report, ctx.cache, &control);
    AccumulateBatchReport(wave_report, &out->report);
    ++out->corpus.dispatches;

    for (size_t i = 0; i < results.size(); ++i) {
      const BoundedPoolItem pi = wave[i];
      TwigRace& race = *(*ctx.races)[pi.twig];
      const Result<PtqResult>& r = results[i];
      if (r.ok()) {
        if (r->truncated_embeddings) {
          race.truncated.store(true, std::memory_order_relaxed);
        }
        ++out->corpus.items_evaluated;
      } else if (r.status().IsCancelled()) {
        race.docs_aborted.fetch_add(1, std::memory_order_relaxed);
        ++out->corpus.items_aborted;
        // Classify the abort. A threshold abort is exact: the (monotone)
        // threshold proves the item's every answer out of the top-k, now
        // and forever. ANY other cancellation — budget expiry, an
        // injected fault — leaves the item's contribution unknown unless
        // the same test proves it out (a tie included), so its bound is
        // charged to the twig's certified residual and the twig's result
        // becomes a partial. Checking here (instead of trusting why the
        // driver cancelled) keeps the certificate sound even under
        // spurious cancels.
        if (!ProvablyOutside(pi, selected[pi.doc]->name, &race)) {
          RaiseThreshold(&race.residual_bound, pi.bound);
          race.inexact.store(true, std::memory_order_release);
        }
      } else {
        ++out->corpus.items_failed;
        {
          std::lock_guard<std::mutex> lock(race.mu);
          if (pi.doc < race.eval_doc) {
            race.eval_doc = pi.doc;
            race.eval_status = r.status();
          }
        }
        race.failed.store(true, std::memory_order_release);
      }
    }
  }
  // Budget expiry drain: everything still in the pool was never
  // dispatched. Items the (final, monotone) threshold already proves out
  // of the top-k are exact prunes as usual; the rest are the budget's
  // casualties — counted as aborted + deadline-skipped, their bounds
  // charged to the certified residual.
  for (; pos < pool.size(); ++pos) {
    const BoundedPoolItem pi = pool[pos];
    TwigRace& race = *(*ctx.races)[pi.twig];
    if (race.failed.load(std::memory_order_acquire)) {
      ++out->corpus.items_failed;
      continue;
    }
    if (ProvablyOutside(pi, selected[pi.doc]->name, &race)) {
      race.docs_pruned.fetch_add(1, std::memory_order_relaxed);
      ++out->corpus.items_pruned;
      continue;
    }
    race.docs_aborted.fetch_add(1, std::memory_order_relaxed);
    ++out->corpus.items_aborted;
    ++out->corpus.items_deadline_skipped;
    RaiseThreshold(&race.residual_bound, pi.bound);
    race.inexact.store(true, std::memory_order_release);
  }
  out->corpus.items_aborted_in_kernel = out->report.items_aborted_in_kernel;
}

void FinalizeBoundedAnswers(const BoundedRunContext& ctx, int merge_k,
                            std::vector<Result<CorpusQueryResult>>* answers) {
  const size_t num_twigs = ctx.twigs->size();
  answers->reserve(answers->size() + num_twigs);
  for (size_t t = 0; t < num_twigs; ++t) {
    TwigRace& race = *(*ctx.races)[t];
    // Compile failures take precedence: no scheduler ever dispatches a
    // twig whose bound phase failed, so only they are
    // guaranteed observable under every schedule.
    if (race.compile_doc < race.num_docs) {
      answers->push_back(race.compile_status);
      continue;
    }
    if (race.eval_doc < race.num_docs) {
      answers->push_back(race.eval_status);
      continue;
    }
    const bool inexact = race.inexact.load(std::memory_order_acquire);
    const double residual =
        race.residual_bound.load(std::memory_order_relaxed);
    if (inexact && ctx.on_deadline == OnDeadline::kFail) {
      answers->push_back(Status::DeadlineExceeded(
          "corpus run budget expired before twig '" + (*ctx.twigs)[t] +
          "' finished (a certified partial top-k with residual bound " +
          std::to_string(residual) +
          " is available under OnDeadline::kReturnPartialCertified)"));
      continue;
    }
    CorpusQueryResult merged;
    merged.exact = !inexact;
    merged.max_residual_bound = inexact ? residual : 0.0;
    merged.documents_evaluated = static_cast<int>(race.num_docs);
    merged.documents_pruned = race.docs_pruned.load(std::memory_order_relaxed);
    merged.documents_aborted =
        race.docs_aborted.load(std::memory_order_relaxed);
    merged.truncated_embeddings =
        race.truncated.load(std::memory_order_relaxed);
    // Skipped documents left empty lists in `collapsed`; MergeTopK
    // ignores empty lists, and their absence is exactly what the bounds
    // proved sound.
    merged.answers = MergeTopK(race.collapsed, merge_k);
#ifndef NDEBUG
    if (merged.exact) {
      CertifyBoundedTopK(*ctx.selected, (*ctx.twigs)[t], merge_k,
                         ctx.executor->options(), std::move(race.collapsed),
                         race.have, merged.answers);
    } else {
      CertifyAnytimeTopK(*ctx.selected, (*ctx.twigs)[t], merge_k,
                         ctx.executor->options(), std::move(race.collapsed),
                         race.have, merged.answers,
                         merged.max_residual_bound);
    }
#endif
    answers->push_back(std::move(merged));
  }
}

}  // namespace uxm
