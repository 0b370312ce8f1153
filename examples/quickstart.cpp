// Quickstart: match two schemas, generate probabilistic mappings, build
// the block tree, and run probabilistic twig queries — all through the
// UncertainMatchingSystem facade.
//
//   $ ./quickstart
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/uxm.h"

using namespace uxm;

int main() {
  // 1. Take two heterogeneous purchase-order schemas (the paper's D7
  //    pair: a big XCBL-like source, an Apertum-like target).
  auto source = GetStandardSchema(StandardId::kXcbl);
  auto target = GetStandardSchema(StandardId::kApertum);
  std::printf("source %s: %d elements, target %s: %d elements\n",
              source->schema_name().c_str(), source->size(),
              target->schema_name().c_str(), target->size());

  // 2. Prepare the system: match, derive the top-100 possible mappings,
  //    build the block tree.
  SystemOptions options;
  options.top_h.h = 100;
  options.block_tree.tau = 0.2;
  UncertainMatchingSystem system(options);
  if (Status s = system.Prepare(source.get(), target.get()); !s.ok()) {
    std::fprintf(stderr, "Prepare failed: %s\n", s.ToString().c_str());
    return 1;
  }
  // The prepared products come back as an immutable snapshot that stays
  // valid even if another thread re-Prepares concurrently.
  auto pair = system.prepared_pair();
  std::printf("matching capacity: %d correspondences\n",
              pair->matching.size());
  // The pair keeps only its flat evaluation index: the mapping matrix
  // and the flattened block tree.
  std::printf("possible mappings: %u\n", pair->flat->mappings.num_mappings);
  std::printf("block tree: %u c-blocks\n", pair->flat->tree.num_blocks());

  // 3. Attach a document conforming to the source schema (stands in for
  //    the paper's Order.xml with 3473 nodes).
  Document doc = GenerateDocument(
      *source, DocGenOptions{.seed = 7, .target_nodes = 3473});
  if (Status s = system.AttachDocument(&doc); !s.ok()) {
    std::fprintf(stderr, "AttachDocument failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("document: %d nodes\n\n", doc.size());

  // 4. Ask a probabilistic twig query on the *target* schema: "email of
  //    the delivery contact". Every possible mapping contributes its own
  //    answer with the mapping's probability.
  const std::string query = "Order/DeliverTo/Contact/EMail";
  auto result = system.Query(query);
  if (!result.ok()) {
    std::fprintf(stderr, "Query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("PTQ %s\n", query.c_str());
  for (const MappingAnswer& group : result->CollapseByMatches()) {
    std::printf("  p=%.3f ->", group.probability);
    if (group.matches.empty()) {
      std::printf(" (no match)");
    }
    for (DocNodeId n : group.matches) {
      std::printf(" \"%s\"", doc.text(n).c_str());
    }
    std::printf("\n");
  }

  // 5. Same query, but only the 5 most probable mappings (top-k PTQ).
  auto topk = system.QueryTopK(query, 5);
  if (!topk.ok()) {
    std::fprintf(stderr, "QueryTopK failed: %s\n",
                 topk.status().ToString().c_str());
    return 1;
  }
  std::printf("\ntop-5 PTQ returned answers for %zu mappings\n",
              topk->answers.size());

  // 6. Production shape: a whole batch of queries answered in parallel
  //    on a thread pool via RunBatch. The mapping set and block tree are
  //    shared read-only across workers; answers come back in request
  //    order and are identical for any thread count.
  std::vector<BatchQueryRequest> requests;
  for (int copy = 0; copy < 4; ++copy) {
    for (const std::string& q : TableIIIQueries()) {
      requests.push_back(BatchQueryRequest{nullptr, q, 0});
    }
  }
  // Each timed run starts from an empty result cache so the printed
  // scaling numbers measure evaluation, not cache probes (the compiled
  // queries stay warm — that is part of the serving path either way).
  auto time_batch = [&](int threads) {
    system.InvalidateResultCache();
    BatchRunOptions run;
    run.num_threads = threads;
    Timer timer;
    auto response = system.RunBatch(requests, run);
    const double seconds = timer.ElapsedSeconds();
    if (!response.ok()) {
      std::fprintf(stderr, "RunBatch failed: %s\n",
                   response.status().ToString().c_str());
      std::exit(1);
    }
    return std::make_pair(std::move(response).ValueOrDie(), seconds);
  };
  auto [serial, serial_s] = time_batch(1);
  const int hw = ThreadPool::DefaultThreadCount();
  auto [wide, wide_s] = time_batch(hw);
  std::printf("\nbatch of %zu PTQs: 1 thread %.3fs, %d threads %.3fs "
              "(%.2fx)\n",
              requests.size(), serial_s, hw, wide_s, serial_s / wide_s);
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto& a = serial.answers[i];
    const auto& b = wide.answers[i];
    bool same = a.ok() && b.ok() && a->answers.size() == b->answers.size();
    for (size_t j = 0; same && j < a->answers.size(); ++j) {
      same = a->answers[j].mapping == b->answers[j].mapping &&
             a->answers[j].probability == b->answers[j].probability &&
             a->answers[j].matches == b->answers[j].matches;
    }
    if (!same) {
      std::fprintf(stderr, "batch answers diverged at request %zu\n", i);
      return 1;
    }
  }
  std::printf("1-thread and %d-thread batch answers are identical\n", hw);

  // 7. Hot-traffic serving: the same batch again is answered from the
  //    sharded result cache — no parsing, no embedding, no evaluation.
  //    (The runs above already warmed it; production workloads are
  //    heavily skewed toward repeated twigs, so this is the common case.)
  Timer warm_timer;
  auto warm = system.RunBatch(requests, BatchRunOptions{hw, true});
  const double warm_s = warm_timer.ElapsedSeconds();
  if (!warm.ok()) {
    std::fprintf(stderr, "warm RunBatch failed: %s\n",
                 warm.status().ToString().c_str());
    return 1;
  }
  if (warm->report.result_cache_hits !=
      static_cast<int>(requests.size())) {
    std::fprintf(stderr, "expected %zu cache hits, got %d\n",
                 requests.size(), warm->report.result_cache_hits);
    return 1;
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto& a = serial.answers[i];
    const auto& b = warm->answers[i];
    if (!a.ok() || !b.ok() || a->answers.size() != b->answers.size()) {
      std::fprintf(stderr, "cached answers diverged at request %zu\n", i);
      return 1;
    }
    for (size_t j = 0; j < a->answers.size(); ++j) {
      if (a->answers[j].matches != b->answers[j].matches) {
        std::fprintf(stderr, "cached answers diverged at request %zu\n", i);
        return 1;
      }
    }
  }
  // 8. Corpus serving: register three generated documents (the corpus
  //    scenario uses the same D7 schema pair the system was prepared
  //    with) and ask which documents — and which answers within them —
  //    are the top-5 most probable matches for a twig. Every answer
  //    carries its document's name as provenance.
  CorpusGenOptions corpus_gen;
  corpus_gen.num_documents = 3;
  corpus_gen.min_target_nodes = 200;
  corpus_gen.max_target_nodes = 400;
  corpus_gen.clone_probability = 0.34;
  auto scenario = MakeCorpusScenario("D7", corpus_gen);
  if (!scenario.ok()) {
    std::fprintf(stderr, "corpus scenario failed: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  // Brute-force expectation first: attach each document in turn and run
  // the plain single-document Query, then merge per-document answers the
  // way the corpus engine claims to.
  std::vector<std::vector<CorpusAnswer>> per_document;
  for (size_t i = 0; i < scenario->documents.size(); ++i) {
    if (Status s = system.AttachDocument(scenario->documents[i].get());
        !s.ok()) {
      std::fprintf(stderr, "attach %s failed: %s\n",
                   scenario->names[i].c_str(), s.ToString().c_str());
      return 1;
    }
    auto r = system.Query(query);
    if (!r.ok()) {
      std::fprintf(stderr, "per-document query failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    per_document.push_back(CollapseForCorpus(scenario->names[i], *r));
  }
  for (size_t i = 0; i < scenario->documents.size(); ++i) {
    if (Status s = system.AddDocument(scenario->names[i],
                                      scenario->documents[i].get());
        !s.ok()) {
      std::fprintf(stderr, "AddDocument failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  CorpusQueryOptions corpus_opts;
  corpus_opts.top_k = 5;
  auto corpus = system.QueryCorpus(query, corpus_opts);
  if (!corpus.ok()) {
    std::fprintf(stderr, "QueryCorpus failed: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  std::printf("\ncorpus PTQ %s over %zu documents, top-%d:\n", query.c_str(),
              system.corpus_size(), corpus_opts.top_k);
  for (const CorpusAnswer& a : corpus->answers) {
    std::printf("  [%s] p=%.3f ->", a.document.c_str(), a.probability);
    for (size_t i = 0; i < scenario->documents.size(); ++i) {
      if (scenario->names[i] != a.document) continue;
      for (DocNodeId n : a.matches) {
        std::printf(" \"%s\"", scenario->documents[i]->text(n).c_str());
      }
    }
    std::printf("\n");
  }
  // The merged top-k must equal the brute-force merge of the per-document
  // single-shot answers, bit for bit — CI runs this binary.
  const std::vector<CorpusAnswer> expected =
      MergeTopK(per_document, corpus_opts.top_k);
  if (corpus->answers.size() != expected.size()) {
    std::fprintf(stderr, "corpus top-k diverged: %zu vs %zu answers\n",
                 corpus->answers.size(), expected.size());
    return 1;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (corpus->answers[i].document != expected[i].document ||
        corpus->answers[i].probability != expected[i].probability ||
        corpus->answers[i].matches != expected[i].matches) {
      std::fprintf(stderr, "corpus top-k diverged at answer %zu\n", i);
      return 1;
    }
  }
  std::printf("corpus top-%d equals the brute-force merge of per-document "
              "queries\n", corpus_opts.top_k);

  // 9. Heterogeneous corpus: register a SECOND schema pair (D1's
  //    Excel-like source against its Noris-like target) and add a
  //    document that conforms to it. The same corpus now spans two
  //    prepared pairs; one QueryCorpus fans the twig across all
  //    documents, each evaluated under its own pair, and the merged
  //    top-k must equal the brute-force per-pair merge.
  auto src2 = GetStandardSchema(StandardId::kExcel);
  auto tgt2 = GetStandardSchema(StandardId::kNoris);
  if (Status s = system.Prepare(src2.get(), tgt2.get()); !s.ok()) {
    std::fprintf(stderr, "second Prepare failed: %s\n", s.ToString().c_str());
    return 1;
  }
  Document doc2 = GenerateDocument(
      *src2, DocGenOptions{.seed = 11, .target_nodes = 200});
  if (Status s = system.AddDocument("excel-doc", &doc2); !s.ok()) {
    std::fprintf(stderr, "heterogeneous AddDocument failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("\nheterogeneous corpus: %zu documents across %zu schema "
              "pairs\n", system.corpus_size(), system.pair_count());
  // Oracle: the D7 documents' collapses from step 8 (still valid — their
  // pair is untouched by the second Prepare) plus a fresh single-pair
  // query of the new document. Checked for the D7 twig AND a twig that
  // only the second pair's target schema can answer.
  {
    UncertainMatchingSystem oracle1;
    UncertainMatchingSystem oracle2;
    if (!oracle1.Prepare(source.get(), target.get()).ok() ||
        !oracle2.Prepare(src2.get(), tgt2.get()).ok() ||
        !oracle2.AttachDocument(&doc2).ok()) {
      std::fprintf(stderr, "oracle setup failed\n");
      return 1;
    }
    const std::string noris_twig = "//" + tgt2->name(1);
    for (const std::string& twig : {query, noris_twig}) {
      std::vector<std::vector<CorpusAnswer>> mixed_expected;
      for (size_t i = 0; i < scenario->documents.size(); ++i) {
        if (!oracle1.AttachDocument(scenario->documents[i].get()).ok()) {
          std::fprintf(stderr, "oracle attach failed\n");
          return 1;
        }
        auto r1 = oracle1.Query(twig);
        if (!r1.ok()) {
          std::fprintf(stderr, "oracle query failed: %s\n",
                       r1.status().ToString().c_str());
          return 1;
        }
        mixed_expected.push_back(
            CollapseForCorpus(scenario->names[i], *r1));
      }
      auto r2 = oracle2.Query(twig);
      if (!r2.ok()) {
        std::fprintf(stderr, "oracle query failed: %s\n",
                     r2.status().ToString().c_str());
        return 1;
      }
      mixed_expected.push_back(CollapseForCorpus("excel-doc", *r2));
      const std::vector<CorpusAnswer> want =
          MergeTopK(mixed_expected, corpus_opts.top_k);
      auto mixed = system.QueryCorpus(twig, corpus_opts);
      if (!mixed.ok()) {
        std::fprintf(stderr, "heterogeneous QueryCorpus failed: %s\n",
                     mixed.status().ToString().c_str());
        return 1;
      }
      bool same = mixed->answers.size() == want.size();
      for (size_t i = 0; same && i < want.size(); ++i) {
        same = mixed->answers[i].document == want[i].document &&
               mixed->answers[i].probability == want[i].probability &&
               mixed->answers[i].matches == want[i].matches;
      }
      if (!same) {
        std::fprintf(stderr,
                     "heterogeneous top-k diverged on twig %s\n",
                     twig.c_str());
        return 1;
      }
    }
  }
  std::printf("heterogeneous top-%d equals the brute-force per-pair merge\n",
              corpus_opts.top_k);

  // 10. Deadline-aware serving: the same corpus query under a budget of
  //     a single kernel evaluation. The run degrades gracefully — the
  //     answers that come back are real answers with exact
  //     probabilities, and max_residual_bound certifies how much
  //     probability any missing answer can carry at most. The unbudgeted
  //     run above is the oracle for checking the certificate.
  CorpusQueryOptions oracle_opts = corpus_opts;
  oracle_opts.top_k = 0;  // every answer, so the subset check is complete
  auto exact_oracle = system.QueryCorpus(query, oracle_opts);
  if (!exact_oracle.ok()) {
    std::fprintf(stderr, "oracle QueryCorpus failed: %s\n",
                 exact_oracle.status().ToString().c_str());
    return 1;
  }
  CorpusQueryOptions budgeted_opts = corpus_opts;
  budgeted_opts.max_evaluations = 1;
  // Cold cache, so the budget actually truncates instead of retiring
  // every item on free cache hits (budgeted runs still read the cache —
  // they just never populate it).
  system.InvalidateResultCache();
  auto partial = system.QueryCorpus(query, budgeted_opts);
  if (!partial.ok()) {
    std::fprintf(stderr, "budgeted QueryCorpus failed: %s\n",
                 partial.status().ToString().c_str());
    return 1;
  }
  const size_t true_top_k =
      std::min<size_t>(corpus_opts.top_k, exact_oracle->answers.size());
  std::printf("\nbudgeted corpus PTQ (max_evaluations=1): %zu of %zu "
              "top-%d answers, exact=%s, residual bound %.3f\n",
              partial->answers.size(), true_top_k, corpus_opts.top_k,
              partial->exact ? "true" : "false",
              partial->max_residual_bound);
  // The certificate, checked CI-fatally: every answer served must be a
  // real answer with its exact probability, and every true top-k answer
  // the budget cut off must rank below the certified residual bound.
  const double slack = 1e-9;
  auto served = [&](const CorpusAnswer& e) {
    for (const CorpusAnswer& a : partial->answers) {
      if (a.document == e.document && a.matches == e.matches) return true;
    }
    return false;
  };
  for (const CorpusAnswer& a : partial->answers) {
    bool found = false;
    for (const CorpusAnswer& e : exact_oracle->answers) {
      if (e.document == a.document && e.matches == a.matches) {
        found = e.probability == a.probability;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "budgeted answer [%s] is not an exact answer\n",
                   a.document.c_str());
      return 1;
    }
  }
  for (size_t i = 0; i < true_top_k; ++i) {
    const CorpusAnswer& e = exact_oracle->answers[i];
    if (!served(e) &&
        e.probability > partial->max_residual_bound + slack) {
      std::fprintf(stderr,
                   "certificate violated: missing answer [%s] p=%.17g > "
                   "residual bound %.17g\n",
                   e.document.c_str(), e.probability,
                   partial->max_residual_bound);
      return 1;
    }
  }
  if (partial->exact &&
      (partial->max_residual_bound != 0.0 ||
       partial->answers.size() != true_top_k)) {
    std::fprintf(stderr, "exact budgeted result must equal the oracle\n");
    return 1;
  }
  std::printf("certificate holds: served answers are exact, missing ones "
              "are bounded\n");

  const ResultCacheStats cache_stats = system.result_cache_stats();
  const QueryCompilerStats compile_stats = system.compiler_stats();
  std::printf(
      "\ncached rerun of the batch: %.4fs (%.1fx vs cold 1-thread), "
      "%d/%zu served from cache\n",
      warm_s, serial_s / warm_s, warm->report.result_cache_hits,
      requests.size());
  std::printf(
      "result cache: %llu hits / %llu misses / %zu entries (%zu KiB); "
      "compiler: %llu hits / %llu compilations\n",
      static_cast<unsigned long long>(cache_stats.hits),
      static_cast<unsigned long long>(cache_stats.misses),
      cache_stats.entries, cache_stats.bytes_in_use / 1024,
      static_cast<unsigned long long>(compile_stats.hits),
      static_cast<unsigned long long>(compile_stats.misses));
  return 0;
}
