#include "core/system.h"

#include <chrono>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "exec/thread_pool.h"
#include "plan/driver.h"
#include "snapshot/snapshot_loader.h"
#include "snapshot/snapshot_writer.h"

namespace uxm {

UncertainMatchingSystem::UncertainMatchingSystem(SystemOptions options)
    : options_(std::move(options)),
      result_cache_(std::make_shared<ResultCache>(
          ResultCacheOptions{options_.cache.max_result_bytes})),
      corpus_shards_(static_cast<size_t>(options_.corpus_shards > 0
                                             ? options_.corpus_shards
                                             : DefaultShardCount())) {}

Status UncertainMatchingSystem::Prepare(const Schema* source,
                                        const Schema* target) {
  if (source == nullptr || target == nullptr) {
    return Status::InvalidArgument("schemas must be non-null");
  }
  ComposedMatcher matcher(options_.matcher);
  SchemaMatching matching;
  UXM_ASSIGN_OR_RETURN(matching, matcher.Match(*source, *target));
  return PrepareFromMatching(std::move(matching));
}

Status UncertainMatchingSystem::PrepareFromMatching(SchemaMatching matching) {
  // Build the whole pair off to the side; nothing the running queries can
  // see changes until InstallPair publishes the finished product.
  PairBuildOptions build;
  build.top_h = options_.top_h;
  build.block_tree = options_.block_tree;
  build.max_embeddings = options_.ptq.max_embeddings;
  // All pairs share the registry-wide embedding cache: twigs are
  // embedded once per target schema, not once per pair.
  build.embedding_cache = registry_.embedding_cache();
  std::shared_ptr<const PreparedSchemaPair> pair;
  UXM_ASSIGN_OR_RETURN(pair,
                       BuildPreparedSchemaPair(std::move(matching), build));
  InstallPair(std::move(pair));
  return Status::OK();
}

void UncertainMatchingSystem::InstallPair(
    std::shared_ptr<const PreparedSchemaPair> pair) {
  std::shared_ptr<const PreparedSchemaPair> replaced;
  std::vector<std::shared_ptr<const PreparedSchemaPair>> evicted;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++epoch_;  // before the swap: in-flight inserts keyed on the old
               // epoch become unreachable the moment we publish
    doc_epoch_ = epoch_;
    // A document annotated against a different source schema cannot be
    // queried through the new default pair; one bound to the same schema
    // stays.
    if (annotated_ != nullptr &&
        &annotated_->schema() != pair->source()) {
      annotated_ = nullptr;
    }
    // Corpus documents of the replaced incarnation re-bind to the new
    // pair and are re-stamped with the new epoch, so answers cached under
    // the old preparation are unreachable. Documents registered under
    // OTHER pairs are untouched — their pairs stay registered.
    replaced = registry_.Install(pair);
    store_.RebindPair(pair, epoch_);
    default_pair_ = std::move(pair);
    // The new pair is the default, so EvictPairsOverCap's default
    // exclusion protects it; victims are the least-recently-queried
    // OTHER pairs.
    EvictPairsOverCap(nullptr, &evicted);
  }
  prepared_.store(true, std::memory_order_release);
  // Reclaim only the replaced incarnation's entries: answers of other
  // pairs are still reachable (their epochs and pair ids are untouched)
  // and stay hot across this pair's re-preparation. The epoch/doc_epoch
  // bump above already made every entry of THIS pair's documents
  // unreachable, so the sweep is memory hygiene, not correctness.
  if (replaced != nullptr) {
    result_cache_->ErasePair(replaced->pair_id);
  }
  for (const auto& victim : evicted) {
    result_cache_->ErasePair(victim->pair_id);
  }
}

Status UncertainMatchingSystem::RemovePair(const Schema* source,
                                           const Schema* target) {
  std::shared_ptr<const PreparedSchemaPair> removed;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    removed = registry_.Remove(source, target);
    if (removed == nullptr) {
      return Status::NotFound(
          "no prepared pair for these schemas is registered");
    }
    // Its corpus documents can no longer be evaluated (their pair is
    // gone); in-flight corpus queries hold an older snapshot and finish.
    store_.RemovePairDocuments(source, target);
    if (default_pair_ == removed) {
      // No default pair any more: single-document traffic must Prepare
      // again. The attached document was bound to this pair's source.
      default_pair_ = nullptr;
      annotated_ = nullptr;
      prepared_.store(false, std::memory_order_release);
    }
  }
  // Memory hygiene, same as re-Prepare: the pair id can never be issued
  // again, so its entries are unreachable to every future lookup. A late
  // insert from an in-flight query lands unreachable too and ages out by
  // LRU.
  result_cache_->ErasePair(removed->pair_id);
  return Status::OK();
}

void UncertainMatchingSystem::EvictPairsOverCap(
    const PreparedSchemaPair* keep,
    std::vector<std::shared_ptr<const PreparedSchemaPair>>* evicted) {
  const size_t cap = options_.cache.max_pairs;
  if (cap == 0) return;
  // Caller holds state_mu_. Each round removes exactly one pair through
  // the same internals as RemovePair (registry + its corpus documents);
  // the caller sweeps the victims' cached answers outside the lock.
  while (registry_.size() > cap) {
    std::shared_ptr<const PreparedSchemaPair> victim =
        registry_.LeastRecentlyUsed(default_pair_.get(), keep);
    if (victim == nullptr) break;  // only protected pairs remain
    registry_.Remove(victim->source(), victim->target());
    store_.RemovePairDocuments(victim->source(), victim->target());
    pair_evictions_.fetch_add(1, std::memory_order_relaxed);
    evicted->push_back(std::move(victim));
  }
}

Status UncertainMatchingSystem::AttachDocument(const Document* doc) {
  std::shared_ptr<const PreparedSchemaPair> pair = prepared_pair();
  if (pair == nullptr) {
    return Status::Internal("call Prepare before AttachDocument");
  }
  UXM_ASSIGN_OR_RETURN(AnnotatedDocument ad,
                       AnnotatedDocument::Bind(doc, pair->source()));
  auto annotated = std::make_shared<const AnnotatedDocument>(std::move(ad));
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    // The binding above ran outside the lock; a concurrent Prepare may
    // have swapped in a default pair with a different source schema, and
    // a document bound against the old one must not be installed.
    if (default_pair_ == nullptr ||
        default_pair_->source() != &annotated->schema()) {
      return Status::Internal(
          "a concurrent Prepare changed the source schema during "
          "AttachDocument; re-attach against the new schemas");
    }
    ++epoch_;
    doc_epoch_ = epoch_;
    annotated_ = std::move(annotated);
  }
  result_cache_->Clear();
  return Status::OK();
}

Status UncertainMatchingSystem::AddDocument(const std::string& name,
                                            const Document* doc) {
  if (doc == nullptr) {
    return Status::InvalidArgument("document must be non-null");
  }
  const std::vector<std::shared_ptr<const PreparedSchemaPair>> pairs =
      registry_.All();
  if (pairs.empty()) {
    return Status::Internal("call Prepare before AddDocument");
  }
  // Infer the pair from the document: bind against every registered
  // source schema and rank full conformance (every node labeled by the
  // schema) above partial. Binding only hard-fails on a root-label
  // mismatch, so partial matches are common — a full match is the
  // stronger signal of which schema the document was authored against.
  const std::shared_ptr<const PreparedSchemaPair> def = prepared_pair();
  std::vector<std::shared_ptr<const PreparedSchemaPair>> full, partial;
  for (const auto& pair : pairs) {
    Result<AnnotatedDocument> bound =
        AnnotatedDocument::Bind(doc, pair->source());
    if (!bound.ok()) continue;
    (bound->UnboundCount() == 0 ? full : partial).push_back(pair);
  }
  const std::vector<std::shared_ptr<const PreparedSchemaPair>>& tier =
      !full.empty() ? full : partial;
  if (tier.empty()) {
    return Status::NotFound(
        "document conforms to no registered pair's source schema; use "
        "AddDocument(name, doc, source, target) after Prepare");
  }
  // Within a tier the default pair wins outright (ties are expected when
  // schemas overlap; the default is the declared intent).
  for (const auto& pair : tier) {
    if (def != nullptr && pair == def) {
      return AddDocument(name, doc, pair->source(), pair->target());
    }
  }
  if (tier.size() > 1) {
    std::string candidates;
    for (const auto& pair : tier) {
      if (!candidates.empty()) candidates += ", ";
      candidates += pair->source()->schema_name() + " -> " +
                    pair->target()->schema_name();
    }
    return Status::InvalidArgument(
        "document conforms to several registered pairs' source schemas (" +
        candidates + "); disambiguate with AddDocument(name, doc, source, "
        "target)");
  }
  return AddDocument(name, doc, tier[0]->source(), tier[0]->target());
}

Status UncertainMatchingSystem::AddDocument(const std::string& name,
                                            const Document* doc,
                                            const Schema* source,
                                            const Schema* target) {
  std::shared_ptr<const PreparedSchemaPair> pair =
      registry_.Find(source, target);
  if (pair == nullptr) {
    return Status::NotFound(
        "no prepared pair for these schemas; call Prepare(source, target) "
        "before AddDocument");
  }
  // Annotation is the expensive part; do it outside the lock, then
  // re-validate under it (same protocol as AttachDocument).
  UXM_ASSIGN_OR_RETURN(AnnotatedDocument ad,
                       AnnotatedDocument::Bind(doc, pair->source()));
  auto annotated = std::make_shared<const AnnotatedDocument>(std::move(ad));
  std::lock_guard<std::mutex> lock(state_mu_);
  // The pair we bound against must still be the installed incarnation
  // for its key — a racing re-Prepare swaps in a new one whose epochs
  // this registration would dodge.
  if (registry_.Find(pair->source(), pair->target()) != pair) {
    return Status::Internal(
        "a concurrent Prepare replaced the schema pair during AddDocument; "
        "re-add against the new preparation");
  }
  const uint64_t pair_id = pair->pair_id;
  CorpusDocument entry;
  entry.name = name;
  entry.doc = doc;
  entry.annotated = std::move(annotated);
  entry.epoch = epoch_ + 1;
  entry.pair = std::move(pair);
  UXM_RETURN_NOT_OK(store_.Add(std::move(entry)));
  // Advance the shared counter only after the store accepted the entry —
  // and leave doc_epoch_ alone: registering a corpus document must not
  // invalidate the attached document's (or external batch documents')
  // cached answers.
  ++epoch_;
  registry_.Touch(pair_id);  // targeting a pair counts as use (max_pairs LRU)
  return Status::OK();
}

Status UncertainMatchingSystem::RemoveDocument(const std::string& name) {
  // No epoch bump: the removed document's cached answers are unreachable
  // (no snapshot lists it any more), and a future re-registration gets a
  // fresh epoch from AddDocument.
  CorpusDocument removed;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    UXM_RETURN_NOT_OK(store_.Remove(name, &removed));
  }
  // Its bounds are unreachable too; drop them now instead of letting
  // every re-registration leave a bucket behind until the generational
  // flush. A late insert from an in-flight query lands unreachable and
  // ages out by flush.
  registry_.bound_cache()->EraseRegistration(removed.doc, removed.epoch);
  return Status::OK();
}

size_t UncertainMatchingSystem::corpus_size() const { return store_.size(); }

size_t UncertainMatchingSystem::corpus_shard_count() const {
  return corpus_shards_;
}

size_t UncertainMatchingSystem::CorpusShardOf(const std::string& name) const {
  return ShardForDocument(name, corpus_shards_);
}

std::vector<std::string> UncertainMatchingSystem::CorpusDocumentNames() const {
  return store_.Names();
}

Result<CorpusQueryResult> UncertainMatchingSystem::QueryCorpus(
    const std::string& twig, const CorpusQueryOptions& options) const {
  UXM_ASSIGN_OR_RETURN(CorpusBatchResponse response,
                       RunCorpusBatch({twig}, options));
  return std::move(response.answers[0]);
}

Result<CorpusBatchResponse> UncertainMatchingSystem::RunCorpusBatch(
    const std::vector<std::string>& twigs, const CorpusQueryOptions& options,
    const BatchRunOptions& run) const {
  const Session session = Snapshot(&run);
  // Corpus items carry their own pair, so the corpus stays queryable as
  // long as ANY pair is registered — removing the default pair must not
  // take other pairs' documents offline.
  if (session.pair == nullptr && !session.has_pairs) {
    return Status::Internal("call Prepare before RunCorpusBatch");
  }
  // A corpus batch uses every pair its documents carry: touch each
  // distinct one so the max_pairs LRU never evicts a pair that is still
  // serving corpus traffic.
  std::unordered_set<uint64_t> touched;
  for (const CorpusDocument& entry : *session.corpus) {
    if (entry.pair != nullptr && touched.insert(entry.pair->pair_id).second) {
      registry_.Touch(entry.pair->pair_id);
    }
  }
  BatchCacheContext cache_ctx;
  cache_ctx.results =
      options_.cache.enable_result_cache ? result_cache_.get() : nullptr;
  cache_ctx.epoch = session.epoch;  // items carry per-document epochs
  CorpusExecutor corpus_exec(session.executor.get(),
                             options_.cache.enable_bound_cache
                                 ? registry_.bound_cache().get()
                                 : nullptr,
                             corpus_shards_);
  return corpus_exec.Run(*session.corpus, twigs, options, &cache_ctx);
}

UncertainMatchingSystem::Session UncertainMatchingSystem::Snapshot(
    const BatchRunOptions* run) const {
  Session session;
  int want_threads = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    session.pair = default_pair_;
    session.annotated = annotated_;
    session.corpus = store_.Snapshot();
    session.epoch = doc_epoch_;
    session.has_pairs = registry_.size() > 0;
    // Corpus runs need the executor even without a default pair (their
    // items carry their own pair), so gate on any registered pair.
    if (run != nullptr && session.has_pairs) {
      want_threads = run->num_threads > 0 ? run->num_threads
                                          : ThreadPool::DefaultThreadCount();
      if (executor_ != nullptr &&
          executor_->num_threads() == want_threads &&
          executor_use_block_tree_ == run->use_block_tree) {
        session.executor = executor_;
      }
    }
  }
  if (want_threads == 0 || session.executor != nullptr) {
    return session;
  }
  // Build the executor outside the lock: spawning a thread pool takes
  // milliseconds, and every concurrent Query would otherwise stall on
  // state_mu_ for the duration. The executor holds no pair state (items
  // carry their pair), so it is keyed only on (threads, algorithm) and
  // survives re-preparation.
  BatchExecutorOptions exec_opts;
  exec_opts.num_threads = want_threads;
  exec_opts.use_block_tree = run->use_block_tree;
  exec_opts.ptq = options_.ptq;
  auto fresh = std::make_shared<BatchQueryExecutor>(exec_opts);
  std::shared_ptr<BatchQueryExecutor> stale;  // destroyed outside the lock
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (executor_ != nullptr && executor_->num_threads() == want_threads &&
        executor_use_block_tree_ == run->use_block_tree) {
      // A racing Snapshot built an equivalent executor first; share it
      // and let ours die (its pool joins idle workers, nothing ran).
      session.executor = executor_;
    } else {
      stale = std::move(executor_);
      executor_ = fresh;
      executor_use_block_tree_ = run->use_block_tree;
      session.executor = std::move(fresh);
    }
  }
  return session;
}

Result<PtqResult> UncertainMatchingSystem::CachedQuery(
    const std::string& twig, int top_k, bool use_block_tree) const {
  const Session session = Snapshot(nullptr);
  if (session.pair == nullptr) {
    return Status::Internal("call Prepare before Query");
  }
  if (session.annotated == nullptr) {
    return Status::Internal("no document attached");
  }
  registry_.Touch(session.pair->pair_id);  // default-pair use (max_pairs LRU)
  DriverRequest request;
  request.pair = session.pair.get();
  request.doc = session.annotated.get();
  request.twig = &twig;
  request.options = options_.ptq;
  if (top_k > 0) request.options.top_k = top_k;
  request.use_block_tree = use_block_tree;
  request.cache =
      options_.cache.enable_result_cache ? result_cache_.get() : nullptr;
  request.epoch = session.epoch;
  return ExecutionDriver::Execute(request);
}

Result<PtqResult> UncertainMatchingSystem::Query(
    const std::string& twig) const {
  return CachedQuery(twig, 0, /*use_block_tree=*/true);
}

Result<PtqResult> UncertainMatchingSystem::QueryTopK(const std::string& twig,
                                                     int k) const {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  return CachedQuery(twig, k, /*use_block_tree=*/true);
}

Result<PtqResult> UncertainMatchingSystem::QueryBasic(
    const std::string& twig) const {
  return CachedQuery(twig, 0, /*use_block_tree=*/false);
}

Result<BatchQueryResponse> UncertainMatchingSystem::RunBatch(
    const std::vector<BatchQueryRequest>& requests,
    const BatchRunOptions& run) const {
  const Session session = Snapshot(&run);
  if (session.pair == nullptr) {
    return Status::Internal("call Prepare before RunBatch");
  }
  registry_.Touch(session.pair->pair_id);  // default-pair use (max_pairs LRU)

  // Annotate each distinct external document exactly once; requests with
  // doc == nullptr reuse the AttachDocument annotation. A document that
  // fails to bind fails only its own requests' answer slots, which are
  // compacted out of the executor batch so no worker time (or report
  // accounting) is spent on them.
  std::unordered_map<const Document*, Result<AnnotatedDocument>> annotations;
  std::vector<BatchQueryItem> items;
  std::vector<size_t> item_slot;  // executor index -> request index
  std::vector<std::pair<size_t, Status>> prefailed;  // (slot, why)
  items.reserve(requests.size());
  item_slot.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const BatchQueryRequest& req = requests[i];
    const AnnotatedDocument* ad = nullptr;
    if (req.doc == nullptr) {
      if (session.annotated == nullptr) {
        return Status::Internal(
            "request targets the attached document but none is attached");
      }
      ad = session.annotated.get();
    } else {
      auto it = annotations.find(req.doc);
      if (it == annotations.end()) {
        it = annotations
                 .emplace(req.doc, AnnotatedDocument::Bind(
                                       req.doc, session.pair->source()))
                 .first;
      }
      if (!it->second.ok()) {
        prefailed.emplace_back(i, it->second.status());
        continue;
      }
      ad = &it->second.value();
    }
    BatchQueryItem item;
    item.doc = ad;
    item.twig = req.twig;
    item.top_k = req.top_k;
    items.push_back(std::move(item));
    item_slot.push_back(i);
  }

  BatchCacheContext cache_ctx;
  cache_ctx.results =
      options_.cache.enable_result_cache ? result_cache_.get() : nullptr;
  cache_ctx.epoch = session.epoch;

  BatchQueryResponse response;
  std::vector<Result<PtqResult>> compact =
      session.executor->Run(items, session.pair, &response.report, &cache_ctx);
  response.answers.assign(
      requests.size(),
      Result<PtqResult>(Status::Internal("item not executed")));
  for (size_t k = 0; k < compact.size(); ++k) {
    response.answers[item_slot[k]] = std::move(compact[k]);
  }
  for (const auto& [slot, status] : prefailed) {
    response.answers[slot] = status;
  }
  return response;
}

Status UncertainMatchingSystem::SaveSnapshot(const std::string& path,
                                             SnapshotStats* stats) const {
  return SaveSnapshotView(/*shard=*/-1, path, stats);
}

Status UncertainMatchingSystem::SaveShardSnapshot(size_t shard,
                                                  const std::string& path,
                                                  SnapshotStats* stats) const {
  if (shard >= corpus_shards_) {
    return Status::InvalidArgument(
        "shard " + std::to_string(shard) + " out of range (corpus has " +
        std::to_string(corpus_shards_) + " shards)");
  }
  return SaveSnapshotView(static_cast<int>(shard), path, stats);
}

Status UncertainMatchingSystem::SaveSnapshotView(int shard,
                                                 const std::string& path,
                                                 SnapshotStats* stats) const {
  const auto start = std::chrono::steady_clock::now();
  SnapshotWriteInput input;
  // The doc inputs below carry raw Document*/AnnotatedDocument* pointers
  // into this snapshot's entries, so it must outlive the unlocked
  // WriteSnapshot call: a concurrent RemoveDocument/RemovePair publishes
  // a new corpus vector, and this reference is then the only thing
  // keeping the removed entries' owners alive.
  std::shared_ptr<const CorpusSnapshot> corpus;
  {
    // Capture pairs, corpus, and the default-pair choice under one lock
    // acquisition so the snapshot is a consistent instant of the system.
    std::lock_guard<std::mutex> lock(state_mu_);
    input.pairs = registry_.All();
    for (size_t i = 0; i < input.pairs.size(); ++i) {
      if (input.pairs[i] == default_pair_) {
        input.default_pair = static_cast<int32_t>(i);
        break;
      }
    }
    corpus = store_.Snapshot();
    // Every pair is always written (replicas must evaluate any shard's
    // documents); `shard` only narrows which documents go along.
    for (const CorpusDocument& entry : *corpus) {
      if (shard >= 0 && ShardForDocument(entry.name, corpus_shards_) !=
                            static_cast<size_t>(shard)) {
        continue;
      }
      SnapshotDocInput doc;
      doc.name = entry.name;
      doc.doc = entry.doc;
      doc.annotated = entry.annotated.get();
      size_t pair_index = input.pairs.size();
      for (size_t i = 0; i < input.pairs.size(); ++i) {
        if (input.pairs[i] == entry.pair) {
          pair_index = i;
          break;
        }
      }
      if (pair_index == input.pairs.size()) {
        return Status::Internal("corpus document '" + entry.name +
                                "' is bound to an unregistered pair");
      }
      doc.pair_index = static_cast<uint32_t>(pair_index);
      input.documents.push_back(std::move(doc));
    }
  }
  SnapshotWriteResult written;
  UXM_ASSIGN_OR_RETURN(written, WriteSnapshot(path, input));
  if (stats != nullptr) {
    stats->file_bytes = written.file_bytes;
    stats->sections = written.sections;
    stats->pairs = input.pairs.size();
    stats->documents = input.documents.size();
    stats->seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  }
  return Status::OK();
}

Status UncertainMatchingSystem::LoadSnapshot(const std::string& path,
                                             SnapshotStats* stats) {
  const auto start = std::chrono::steady_clock::now();
  LoadedSnapshot loaded;
  UXM_ASSIGN_OR_RETURN(loaded, ::uxm::LoadSnapshot(path));

  // Assemble everything expensive outside the lock. Each pair gets a
  // fresh pair_id here, and adopts the serialized work-unit order; its
  // flat arrays stay views into the snapshot mmap, which the pair keeps
  // alive through FlatPairIndex::storage.
  std::vector<std::shared_ptr<const PreparedSchemaPair>> pairs;
  pairs.reserve(loaded.pairs.size());
  for (LoadedPair& lp : loaded.pairs) {
    pairs.push_back(MakePreparedSchemaPairFromFlatIndex(
        std::move(lp.matching), std::move(lp.flat), std::move(lp.source),
        std::move(lp.target), options_.ptq.max_embeddings,
        registry_.embedding_cache(), std::move(lp.order)));
  }

  // The store holds a raw Document* next to the annotation; a loaded
  // document is owned by the loader, so park both owners behind the
  // annotation shared_ptr the entry keeps (aliasing constructor).
  struct DocKeepAlive {
    std::shared_ptr<const Document> doc;
    std::shared_ptr<const AnnotatedDocument> annotated;
  };

  std::vector<std::shared_ptr<const PreparedSchemaPair>> evicted;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    // All-or-nothing: reject name collisions (against the live corpus
    // and within the snapshot) before mutating any state.
    std::unordered_set<std::string> taken;
    for (const std::string& name : store_.Names()) taken.insert(name);
    for (const LoadedDoc& ld : loaded.documents) {
      if (!taken.insert(ld.name).second) {
        return Status::AlreadyExists("corpus document '" + ld.name +
                                     "' is already registered");
      }
    }

    ++epoch_;  // loaded state is a new serving instant; in-flight
               // inserts keyed on the old epoch become unreachable
    doc_epoch_ = epoch_;
    for (const auto& pair : pairs) {
      // Loaded schemas are fresh heap objects, so these keys can never
      // collide with an existing registration — Install always adds.
      registry_.Install(pair);
    }
    if (loaded.default_pair >= 0) {
      default_pair_ = pairs[static_cast<size_t>(loaded.default_pair)];
      // The attached document (if any) was bound against the previous
      // default pair's source schema, never the freshly materialized one.
      annotated_ = nullptr;
      prepared_.store(true, std::memory_order_release);
    }
    for (LoadedDoc& ld : loaded.documents) {
      auto keep = std::make_shared<DocKeepAlive>();
      keep->doc = ld.doc;
      keep->annotated = std::move(ld.annotated);
      CorpusDocument entry;
      entry.name = std::move(ld.name);
      entry.doc = keep->doc.get();
      entry.annotated = std::shared_ptr<const AnnotatedDocument>(
          keep, keep->annotated.get());
      entry.epoch = epoch_ + 1;
      entry.pair = pairs[ld.pair_index];
      UXM_RETURN_NOT_OK(store_.Add(std::move(entry)));
      ++epoch_;
    }
    // Loading is an install burst: enforce the max_pairs cap after the
    // documents land so a victim's corpus entries are dropped with it
    // (loaded pairs are most-recently-used, so standing pairs go first).
    EvictPairsOverCap(nullptr, &evicted);
  }
  for (const auto& victim : evicted) {
    result_cache_->ErasePair(victim->pair_id);
  }

  if (stats != nullptr) {
    stats->file_bytes = loaded.file_bytes;
    stats->sections = loaded.section_count;
    stats->pairs = pairs.size();
    stats->documents = loaded.documents.size();
    stats->seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  }
  return Status::OK();
}

void UncertainMatchingSystem::InvalidateResultCache() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++epoch_;  // in-flight runs insert under the old epoch, never served
    doc_epoch_ = epoch_;
    // Re-stamp every corpus registration too, so an in-flight corpus
    // run's late insert (keyed under a pre-bump per-document epoch) can
    // never satisfy a lookup issued after this call.
    store_.Restamp(epoch_);
  }
  result_cache_->Clear();
  // The restamp already made every cached bound structurally unreachable
  // (keys carry epochs); clearing reclaims the memory immediately.
  registry_.bound_cache()->Clear();
}

ResultCacheStats UncertainMatchingSystem::result_cache_stats() const {
  return result_cache_->Stats();
}

QueryCompilerStats UncertainMatchingSystem::compiler_stats() const {
  std::shared_ptr<const PreparedSchemaPair> pair = prepared_pair();
  return pair != nullptr ? pair->compiler->Stats() : QueryCompilerStats{};
}

EmbeddingCacheStats UncertainMatchingSystem::embedding_cache_stats() const {
  return registry_.embedding_cache()->Stats();
}

BoundCacheStats UncertainMatchingSystem::bound_cache_stats() const {
  return registry_.bound_cache()->Stats();
}

std::shared_ptr<const PreparedSchemaPair>
UncertainMatchingSystem::prepared_pair() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return default_pair_;
}

std::shared_ptr<const PreparedSchemaPair>
UncertainMatchingSystem::prepared_pair(const Schema* source,
                                       const Schema* target) const {
  return registry_.Find(source, target);
}

size_t UncertainMatchingSystem::pair_count() const { return registry_.size(); }

}  // namespace uxm
