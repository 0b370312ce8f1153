// Query compilation + result caching: a compiled QueryPlan must
// reproduce the uncompiled parse/embed/filter pipeline exactly (including
// the lazy-relevance top-k selection), the sharded LRU must honor its
// byte budget and stats, and the facade must (a) serve repeated queries
// from cache, (b) never serve a stale answer after Prepare/
// AttachDocument, and (c) report cache statistics through
// BatchRunReport.
#include "cache/query_compiler.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cache/bound_cache.h"
#include "cache/result_cache.h"
#include "core/system.h"
#include "query/ptq.h"
#include "tests/test_util.h"
#include "workload/corpus_generator.h"
#include "workload/datasets.h"
#include "workload/document_generator.h"

namespace uxm {
namespace {

// ------------------------------------------------------------ compiler

class QueryCompilerTest : public ::testing::Test {
 protected:
  void SetUp() override { ex_ = testutil::MakePaperExample(); }

  testutil::PaperExample ex_;
};

TEST_F(QueryCompilerTest, CompilationMatchesUncompiledPipeline) {
  QueryCompiler compiler(&ex_.mappings);
  const std::string twig = "//IP//ICN";
  auto compiled = compiler.Compile(twig);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const QueryPlan& plan = **compiled;

  auto parsed = TwigQuery::Parse(twig);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(plan.query().ToString(), parsed->ToString());
  EXPECT_EQ(plan.embeddings(), EmbedQueryInSchema(*parsed, *ex_.target, 256));
  EXPECT_FALSE(plan.truncated_embeddings());
  EXPECT_EQ(plan.AllRelevant(),
            FilterRelevantMappings(ex_.mappings, plan.embeddings(), 0));
}

TEST_F(QueryCompilerTest, SelectForTopKMatchesFilterMappings) {
  // Distinct probabilities so top-k order is meaningful.
  auto* ms = ex_.mappings.mutable_mappings();
  for (size_t i = 0; i < ms->size(); ++i) {
    (*ms)[i].score = static_cast<double>(ms->size() - i);
  }
  ex_.mappings.NormalizeProbabilities();
  QueryCompiler compiler(&ex_.mappings);
  auto compiled = compiler.Compile("//IP//ICN");
  ASSERT_TRUE(compiled.ok());
  const QueryPlan& plan = **compiled;
  for (int k = 0; k <= ex_.mappings.size() + 1; ++k) {
    EXPECT_EQ(plan.SelectForTopK(k),
              FilterRelevantMappings(ex_.mappings, plan.embeddings(), k))
        << "k=" << k;
  }
}

TEST_F(QueryCompilerTest, TopKSelectionTerminatesEarly) {
  // Probabilities descend with the mapping id, so the work-unit order is
  // m0, m1, ... and a top-1 selection must stop after the first relevant
  // unit — never touching the tail.
  auto* ms = ex_.mappings.mutable_mappings();
  for (size_t i = 0; i < ms->size(); ++i) {
    (*ms)[i].score = static_cast<double>(ms->size() - i);
  }
  ex_.mappings.NormalizeProbabilities();
  QueryCompiler compiler(&ex_.mappings);
  auto compiled = compiler.Compile("//IP//ICN");  // every mapping relevant
  ASSERT_TRUE(compiled.ok());
  const QueryPlan& plan = **compiled;
  PlanSelectStats stats;
  const auto top1 = plan.SelectForTopK(1, &stats);
  EXPECT_EQ(top1, (std::vector<MappingId>{0}));
  EXPECT_EQ(stats.selected, 1);
  EXPECT_EQ(stats.scanned, 1);
  EXPECT_EQ(stats.skipped, ex_.mappings.size() - 1);
  EXPECT_GT(stats.residual_mass, 0.0);
  // Only the scanned prefix was ever relevance-checked.
  EXPECT_EQ(plan.relevance_checks(), 1u);
  // The unpruned path later computes the rest exactly once.
  EXPECT_EQ(plan.AllRelevant().size(), 5u);
  EXPECT_EQ(plan.relevance_checks(),
            static_cast<uint64_t>(ex_.mappings.size()));
}

TEST_F(QueryCompilerTest, SecondCompileHitsCache) {
  QueryCompiler compiler(&ex_.mappings);
  bool hit = true;
  auto first = compiler.Compile("//ICN", &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  auto second = compiler.Compile("//ICN", &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.value().get(), second.value().get());  // shared, not rebuilt
  const QueryCompilerStats stats = compiler.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(QueryCompilerTest, ParseFailuresAreCachedNegatively) {
  QueryCompiler compiler(&ex_.mappings);
  bool hit = false;
  auto bad = compiler.Compile("ORDER//", &hit);
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(hit);
  auto again = compiler.Compile("ORDER//", &hit);
  EXPECT_FALSE(again.ok());
  EXPECT_TRUE(hit);  // no second parse
  EXPECT_EQ(bad.status(), again.status());
  const QueryCompilerStats stats = compiler.Stats();
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST_F(QueryCompilerTest, EntryCapFlushesGenerationally) {
  QueryCompiler compiler(&ex_.mappings, 256, /*max_entries=*/3);
  // Distinct (failing) twigs are cached too, so unique-twig spray is the
  // worst case; the map must never exceed the cap.
  for (int i = 0; i < 10; ++i) {
    compiler.Compile("//ICN[" + std::to_string(i));  // parse error, cached
    EXPECT_LE(compiler.Stats().entries, 3u);
  }
  EXPECT_GE(compiler.Stats().flushes, 2u);
  // A hot twig still caches right after a flush.
  ASSERT_TRUE(compiler.Compile("//ICN").ok());
  bool hit = false;
  ASSERT_TRUE(compiler.Compile("//ICN", &hit).ok());
  EXPECT_TRUE(hit);
}

TEST_F(QueryCompilerTest, ClearDropsEntriesKeepsCounters) {
  QueryCompiler compiler(&ex_.mappings);
  ASSERT_TRUE(compiler.Compile("//ICN").ok());
  compiler.Clear();
  EXPECT_EQ(compiler.Stats().entries, 0u);
  EXPECT_EQ(compiler.Stats().misses, 1u);
  bool hit = true;
  ASSERT_TRUE(compiler.Compile("//ICN", &hit).ok());
  EXPECT_FALSE(hit);  // recompiled after Clear
}

// -------------------------------------------------------- result cache

PtqResult MakeResult(int num_answers, int matches_per_answer) {
  PtqResult r;
  for (int i = 0; i < num_answers; ++i) {
    MappingAnswer a;
    a.mapping = i;
    a.probability = 1.0 / num_answers;
    for (int j = 0; j < matches_per_answer; ++j) {
      a.matches.push_back(j);
    }
    r.answers.push_back(std::move(a));
  }
  return r;
}

TEST(ResultCacheTest, RoundTripAndStats) {
  ResultCache cache;
  const ResultCacheKey key{"//A", nullptr, 1, 0, true};
  EXPECT_EQ(cache.Lookup(key), nullptr);
  cache.Insert(key, std::make_shared<const PtqResult>(MakeResult(3, 2)));
  auto hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->answers.size(), 3u);
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes_in_use, 0u);
}

TEST(ResultCacheTest, DistinctKeyDimensionsDoNotCollide) {
  ResultCache cache;
  const int docs[2] = {0, 0};
  const ResultCacheKey base{"//A", &docs[0], 1, 0, true};
  cache.Insert(base, std::make_shared<const PtqResult>(MakeResult(1, 1)));
  ResultCacheKey other = base;
  other.twig = "//B";
  EXPECT_EQ(cache.Lookup(other), nullptr);
  other = base;
  other.doc = &docs[1];
  EXPECT_EQ(cache.Lookup(other), nullptr);
  other = base;
  other.epoch = 2;
  EXPECT_EQ(cache.Lookup(other), nullptr);
  other = base;
  other.top_k = 5;
  EXPECT_EQ(cache.Lookup(other), nullptr);
  other = base;
  other.block_tree = false;
  EXPECT_EQ(cache.Lookup(other), nullptr);
  other = base;
  other.pair = 7;  // same doc + epoch under a different prepared pair
  EXPECT_EQ(cache.Lookup(other), nullptr);
  EXPECT_NE(cache.Lookup(base), nullptr);
}

TEST(ResultCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  // Large results so the per-entry bookkeeping overhead is noise: a
  // budget of 3.5x one result holds exactly three entries.
  const PtqResult sample = MakeResult(64, 64);
  ResultCacheOptions opts;
  opts.num_shards = 1;  // one shard so the LRU order is global
  opts.max_bytes = ApproxPtqResultBytes(sample) * 7 / 2;
  ResultCache cache(opts);
  auto key = [](int i) {
    return ResultCacheKey{"q" + std::to_string(i), nullptr, 1, 0, true};
  };
  for (int i = 0; i < 3; ++i) {
    cache.Insert(key(i), std::make_shared<const PtqResult>(sample));
  }
  ASSERT_EQ(cache.Stats().entries, 3u);
  EXPECT_NE(cache.Lookup(key(0)), nullptr);  // refresh 0: 1 is now LRU
  cache.Insert(key(3), std::make_shared<const PtqResult>(sample));
  EXPECT_GE(cache.Stats().evictions, 1u);
  EXPECT_EQ(cache.Lookup(key(1)), nullptr);  // the LRU victim
  EXPECT_NE(cache.Lookup(key(0)), nullptr);
  EXPECT_NE(cache.Lookup(key(3)), nullptr);
  EXPECT_LE(cache.Stats().bytes_in_use, opts.max_bytes);
}

TEST(ResultCacheTest, OversizedEntriesAreNotCached) {
  ResultCacheOptions opts;
  opts.num_shards = 1;
  opts.max_bytes = 64;  // smaller than any real result
  ResultCache cache(opts);
  const ResultCacheKey key{"//A", nullptr, 1, 0, true};
  cache.Insert(key, std::make_shared<const PtqResult>(MakeResult(64, 64)));
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Lookup(key), nullptr);
}

TEST(ResultCacheTest, ErasePairSweepsOnlyThatPair) {
  ResultCache cache;
  auto key = [](int i, uint64_t pair) {
    ResultCacheKey k{"q" + std::to_string(i), nullptr, 1, 0, true};
    k.pair = pair;
    return k;
  };
  for (int i = 0; i < 6; ++i) {
    cache.Insert(key(i, i % 2 == 0 ? 7 : 9),
                 std::make_shared<const PtqResult>(MakeResult(2, 2)));
  }
  ASSERT_EQ(cache.Stats().entries, 6u);
  EXPECT_EQ(cache.ErasePair(7), 3u);
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.pair_sweeps, 1u);
  EXPECT_EQ(stats.swept_entries, 3u);
  EXPECT_EQ(stats.invalidations, 0u);  // a sweep is not a Clear
  // Pair-9 entries survive and still hit; pair-7 ones are gone.
  EXPECT_EQ(cache.Lookup(key(0, 7)), nullptr);
  EXPECT_NE(cache.Lookup(key(1, 9)), nullptr);
  EXPECT_EQ(cache.ErasePair(12345), 0u);  // unknown pair: no-op
}

TEST(ResultCacheTest, ClearInvalidatesEverything) {
  ResultCache cache;
  for (int i = 0; i < 10; ++i) {
    cache.Insert(ResultCacheKey{"q" + std::to_string(i), nullptr, 1, 0, true},
                 std::make_shared<const PtqResult>(MakeResult(2, 2)));
  }
  cache.Clear();
  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes_in_use, 0u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(cache.Lookup(ResultCacheKey{"q1", nullptr, 1, 0, true}), nullptr);
}

// --------------------------------------------------------- bound cache

TEST(BoundCacheTest, ExactInsertReplacesALowerProbe) {
  BoundCache cache;
  const BoundTwig twig("//a/b");
  const BoundCacheKey key{twig, nullptr, 1, 0, true, 7};
  cache.Insert(key, 0.5 - 1e-12, /*exact=*/false);  // probe a hair low
  cache.Insert(key, 0.5, /*exact=*/true);           // the realized value
  const auto got = cache.Lookup(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bound, 0.5);
  EXPECT_TRUE(got->exact);
}

TEST(BoundCacheTest, ProbeNeverDisplacesAnExactEntry) {
  BoundCache cache;
  const BoundTwig twig("//a/b");
  const BoundCacheKey key{twig, nullptr, 1, 0, true, 7};
  cache.Insert(key, 0.5, /*exact=*/true);
  cache.Insert(key, 0.25, /*exact=*/false);  // lower, but only a probe
  cache.Insert(key, 0.75, /*exact=*/false);
  const auto got = cache.Lookup(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bound, 0.5);
  EXPECT_TRUE(got->exact);
}

TEST(BoundCacheTest, InexactInsertsKeepTheMin) {
  BoundCache cache;
  const BoundTwig twig("//a/b");
  const BoundCacheKey key{twig, nullptr, 1, 0, true, 7};
  cache.Insert(key, 0.75, /*exact=*/false);
  cache.Insert(key, 0.25, /*exact=*/false);
  cache.Insert(key, 0.5, /*exact=*/false);
  const auto got = cache.Lookup(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bound, 0.25);
  EXPECT_FALSE(got->exact);
  cache.Insert(key, -1.0, /*exact=*/false);  // clamped to 0
  EXPECT_EQ(cache.Lookup(key)->bound, 0.0);
}

TEST(BoundCacheTest, DistinctKeyDimensionsDoNotCollide) {
  BoundCache cache;
  const BoundTwig a("//a");
  const BoundTwig b("//b");
  int doc = 0;
  const BoundCacheKey base{a, &doc, 1, 0, true, 7};
  cache.Insert(base, 0.5, /*exact=*/true);
  for (const BoundCacheKey& other :
       {BoundCacheKey{b, &doc, 1, 0, true, 7},
        BoundCacheKey{a, nullptr, 1, 0, true, 7},
        BoundCacheKey{a, &doc, 2, 0, true, 7},
        BoundCacheKey{a, &doc, 1, 3, true, 7},
        BoundCacheKey{a, &doc, 1, 0, false, 7},
        BoundCacheKey{a, &doc, 1, 0, true, 8}}) {
    EXPECT_FALSE(cache.Lookup(other).has_value());
  }
  // The key borrows its twig text: an equal text elsewhere finds it.
  const std::string copy = "//a";
  EXPECT_TRUE(
      cache.Lookup(BoundCacheKey{BoundTwig(copy), &doc, 1, 0, true, 7})
          .has_value());
}

TEST(BoundCacheTest, EraseRegistrationDropsExactlyThatDocAndEpoch) {
  BoundCache cache;
  const BoundTwig t1("//a");
  const BoundTwig t2("//b");
  int doc_a = 0;
  int doc_b = 0;
  for (const BoundTwig& t : {t1, t2}) {
    cache.Insert(BoundCacheKey{t, &doc_a, 1, 0, true, 7}, 0.5, true);
    cache.Insert(BoundCacheKey{t, &doc_a, 2, 0, true, 7}, 0.5, true);
    cache.Insert(BoundCacheKey{t, &doc_b, 1, 0, true, 7}, 0.5, true);
  }
  EXPECT_EQ(cache.Stats().entries, 6u);
  cache.EraseRegistration(&doc_a, 1);
  EXPECT_EQ(cache.Stats().entries, 4u);
  for (const BoundTwig& t : {t1, t2}) {
    EXPECT_FALSE(cache.Lookup(BoundCacheKey{t, &doc_a, 1, 0, true, 7}));
    EXPECT_TRUE(cache.Lookup(BoundCacheKey{t, &doc_a, 2, 0, true, 7}));
    EXPECT_TRUE(cache.Lookup(BoundCacheKey{t, &doc_b, 1, 0, true, 7}));
  }
  cache.EraseRegistration(&doc_a, 1);  // already gone: no-op
  EXPECT_EQ(cache.Stats().entries, 4u);
}

// One registration holding many twigs (an ad hoc stream on a small
// corpus) grows its index several times; every bound stays findable.
TEST(BoundCacheTest, ManyTwigsInOneRegistrationStayFindable) {
  BoundCache cache;
  int doc = 0;
  std::vector<std::string> twigs;
  for (int i = 0; i < 1000; ++i) twigs.push_back("//t" + std::to_string(i));
  for (size_t i = 0; i < twigs.size(); ++i) {
    cache.Insert(BoundCacheKey{BoundTwig(twigs[i]), &doc, 1, 0, true, 7},
                 static_cast<double>(i) / 1000.0, (i % 2) == 0);
  }
  EXPECT_EQ(cache.Stats().entries, twigs.size());
  for (size_t i = 0; i < twigs.size(); ++i) {
    const auto got =
        cache.Lookup(BoundCacheKey{BoundTwig(twigs[i]), &doc, 1, 0, true, 7});
    ASSERT_TRUE(got.has_value()) << twigs[i];
    EXPECT_EQ(got->bound, static_cast<double>(i) / 1000.0);
    EXPECT_EQ(got->exact, (i % 2) == 0);
  }
  EXPECT_FALSE(
      cache.Lookup(BoundCacheKey{BoundTwig("//t1000"), &doc, 1, 0, true, 7})
          .has_value());
  cache.EraseRegistration(&doc, 1);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(BoundCacheTest, EntryCapFlushesGenerationally) {
  BoundCache cache(/*max_entries=*/4);
  std::vector<std::string> twigs;
  for (int i = 0; i < 5; ++i) twigs.push_back("//t" + std::to_string(i));
  for (const std::string& t : twigs) {
    cache.Insert(BoundCacheKey{BoundTwig(t), nullptr, 1, 0, true, 7}, 0.5,
                 false);
  }
  const BoundCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.flushes, 1u);
  EXPECT_EQ(stats.entries, 1u);  // the fifth key, after the flush
  EXPECT_EQ(stats.insertions, 5u);
}

// Erasing registrations keeps the entry count low, but every distinct
// twig text is stored until a flush; the cap counts those too, so a
// stream of fresh twigs over churning documents stays bounded.
TEST(BoundCacheTest, EntryCapAlsoBoundsStoredTwigTexts) {
  BoundCache cache(/*max_entries=*/4);
  int doc = 0;
  for (int i = 0; i < 5; ++i) {
    const std::string twig = "//t" + std::to_string(i);
    const uint64_t epoch = static_cast<uint64_t>(i) + 1;
    cache.Insert(BoundCacheKey{BoundTwig(twig), &doc, epoch, 0, true, 7}, 0.5,
                 true);
    cache.EraseRegistration(&doc, epoch);
  }
  const BoundCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.flushes, 1u);  // at the fifth text
  EXPECT_EQ(stats.entries, 0u);
}

// ------------------------------------------------------------- facade

class SystemCacheTest : public ::testing::Test {
 protected:
  // The dataset (D7's matcher run included), its documents and the
  // prepared D7 pair are built once per suite: the pair is prepared once
  // and saved as a snapshot, and every test restores its own systems
  // from that file instead of re-running matching, top-h and the block
  // tree per system.
  static void SetUpTestSuite() {
    auto d = LoadDataset("D7");
    ASSERT_TRUE(d.ok());
    dataset_ = std::make_unique<Dataset>(std::move(d).ValueOrDie());
    doc_ = std::make_unique<Document>(GenerateDocument(
        *dataset_->source, DocGenOptions{.seed = 42, .target_nodes = 300}));
    doc2_ = std::make_unique<Document>(GenerateDocument(
        *dataset_->source, DocGenOptions{.seed = 99, .target_nodes = 300}));
    UncertainMatchingSystem prepared(Options(/*cache_enabled=*/true));
    ASSERT_TRUE(
        prepared.Prepare(dataset_->source.get(), dataset_->target.get())
            .ok());
    ASSERT_TRUE(prepared.SaveSnapshot(kSnapshotPath).ok());
    snapshot_saved_ = true;
  }

  static void TearDownTestSuite() {
    std::remove(kSnapshotPath);
    snapshot_saved_ = false;
    doc2_.reset();
    doc_.reset();
    dataset_.reset();
  }

  void SetUp() override {
    ASSERT_NE(doc2_, nullptr);
    ASSERT_TRUE(snapshot_saved_);
  }

  static SystemOptions Options(bool cache_enabled) {
    SystemOptions opts;
    opts.top_h.h = 12;
    opts.cache.enable_result_cache = cache_enabled;
    return opts;
  }

  /// A fresh system serving the D7 pair with doc_ attached. The pair is
  /// restored from the suite's snapshot; `prepare` builds it with
  /// Prepare instead, for the cases that test Prepare itself.
  std::unique_ptr<UncertainMatchingSystem> MakeSystem(bool cache_enabled,
                                                      bool prepare = false) {
    auto sys = std::make_unique<UncertainMatchingSystem>(
        Options(cache_enabled));
    if (prepare) {
      EXPECT_TRUE(
          sys->Prepare(dataset_->source.get(), dataset_->target.get()).ok());
    } else {
      EXPECT_TRUE(sys->LoadSnapshot(kSnapshotPath).ok());
    }
    EXPECT_TRUE(sys->AttachDocument(doc_.get()).ok());
    return sys;
  }

  static void ExpectSameResult(const Result<PtqResult>& a,
                               const Result<PtqResult>& b) {
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->answers.size(), b->answers.size());
    for (size_t i = 0; i < a->answers.size(); ++i) {
      EXPECT_EQ(a->answers[i].mapping, b->answers[i].mapping);
      EXPECT_DOUBLE_EQ(a->answers[i].probability, b->answers[i].probability);
      EXPECT_EQ(a->answers[i].matches, b->answers[i].matches);
    }
  }

  static constexpr const char* kSnapshotPath = "cache_test_d7.uxmsnap";
  static std::unique_ptr<Dataset> dataset_;
  static std::unique_ptr<Document> doc_;
  static std::unique_ptr<Document> doc2_;
  static bool snapshot_saved_;
};

std::unique_ptr<Dataset> SystemCacheTest::dataset_;
std::unique_ptr<Document> SystemCacheTest::doc_;
std::unique_ptr<Document> SystemCacheTest::doc2_;
bool SystemCacheTest::snapshot_saved_ = false;

// Re-registering a document (RemoveDocument + AddDocument under one name)
// mints a fresh epoch each time; the removed registration's bounds are
// dropped at RemoveDocument, so the cache never holds more entries than
// there are live (twig, document) keys.
TEST_F(SystemCacheTest, ReRegistrationDropsTheRemovedDocumentsBounds) {
  auto sys = MakeSystem(/*cache_enabled=*/true);
  ASSERT_TRUE(sys->AddDocument("a", doc_.get()).ok());
  ASSERT_TRUE(sys->AddDocument("b", doc2_.get()).ok());
  const std::vector<std::string> twigs = {TableIIIQueries()[0],
                                          TableIIIQueries()[1]};
  CorpusQueryOptions bounded;
  bounded.top_k = 3;
  BatchRunOptions run;
  run.num_threads = 1;
  const size_t live_keys = twigs.size() * 2;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    ASSERT_TRUE(sys->RunCorpusBatch(twigs, bounded, run).ok());
    ASSERT_LE(sys->bound_cache_stats().entries, live_keys) << cycle;
    ASSERT_TRUE(sys->RemoveDocument("a").ok());
    ASSERT_LE(sys->bound_cache_stats().entries, live_keys - twigs.size())
        << cycle;
    ASSERT_TRUE(sys->AddDocument("a", doc_.get()).ok());
  }
  EXPECT_EQ(sys->bound_cache_stats().flushes, 0u);
}

TEST_F(SystemCacheTest, RepeatedQueryIsServedFromCache) {
  auto sys = MakeSystem(true);
  const std::string q = TableIIIQueries()[0];
  auto first = sys->Query(q);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(sys->result_cache_stats().hits, 0u);
  auto second = sys->Query(q);
  ExpectSameResult(first, second);
  const ResultCacheStats stats = sys->result_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST_F(SystemCacheTest, CachedAnswersEqualUncachedOnes) {
  auto cached = MakeSystem(true);
  auto uncached = MakeSystem(false);
  for (const std::string& q : TableIIIQueries()) {
    for (int round = 0; round < 2; ++round) {
      ExpectSameResult(uncached->Query(q), cached->Query(q));
      ExpectSameResult(uncached->QueryTopK(q, 3), cached->QueryTopK(q, 3));
      ExpectSameResult(uncached->QueryBasic(q), cached->QueryBasic(q));
    }
  }
  EXPECT_GT(cached->result_cache_stats().hits, 0u);
  EXPECT_EQ(uncached->result_cache_stats().insertions, 0u);
}

TEST_F(SystemCacheTest, DisabledCacheNeverStoresAnything) {
  auto sys = MakeSystem(false);
  const std::string q = TableIIIQueries()[0];
  ASSERT_TRUE(sys->Query(q).ok());
  ASSERT_TRUE(sys->Query(q).ok());
  const ResultCacheStats stats = sys->result_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  // The compiled-query cache still works — it holds no answers.
  EXPECT_GT(sys->compiler_stats().hits, 0u);
}

TEST_F(SystemCacheTest, AttachDocumentInvalidatesCachedAnswers) {
  auto sys = MakeSystem(true);
  auto fresh = MakeSystem(false);  // oracle, never caches
  const std::string q = TableIIIQueries()[0];
  auto on_doc1 = sys->Query(q);
  ASSERT_TRUE(on_doc1.ok());
  ASSERT_TRUE(sys->AttachDocument(doc2_.get()).ok());
  ASSERT_TRUE(fresh->AttachDocument(doc2_.get()).ok());
  auto on_doc2 = sys->Query(q);
  ExpectSameResult(fresh->Query(q), on_doc2);
  EXPECT_GE(sys->result_cache_stats().invalidations, 1u);
  // The doc1 entry must not have been served for doc2.
  EXPECT_EQ(sys->result_cache_stats().hits, 0u);
}

TEST_F(SystemCacheTest, PrepareInvalidatesCachedAnswersAndCompiler) {
  auto sys = MakeSystem(true, /*prepare=*/true);
  const std::string q = TableIIIQueries()[0];
  ASSERT_TRUE(sys->Query(q).ok());
  ASSERT_TRUE(
      sys->Prepare(dataset_->source.get(), dataset_->target.get()).ok());
  // Same source schema: the attached document survives re-Prepare...
  auto after = sys->Query(q);
  ASSERT_TRUE(after.ok()) << after.status();
  // ...but the answer was recomputed, not served from the old epoch.
  EXPECT_EQ(sys->result_cache_stats().hits, 0u);
  // The compiler was rebuilt with the new mapping set.
  EXPECT_EQ(sys->compiler_stats().hits, 0u);
}

TEST_F(SystemCacheTest, InvalidateResultCacheDropsEntries) {
  auto sys = MakeSystem(true);
  const std::string q = TableIIIQueries()[0];
  ASSERT_TRUE(sys->Query(q).ok());
  EXPECT_EQ(sys->result_cache_stats().entries, 1u);
  sys->InvalidateResultCache();
  EXPECT_EQ(sys->result_cache_stats().entries, 0u);
  ASSERT_TRUE(sys->Query(q).ok());
  EXPECT_EQ(sys->result_cache_stats().hits, 0u);  // recomputed
}

TEST_F(SystemCacheTest, RunBatchReportsCacheStatistics) {
  auto sys = MakeSystem(true);
  std::vector<BatchQueryRequest> requests;
  for (int copy = 0; copy < 3; ++copy) {
    for (const std::string& q : TableIIIQueries()) {
      requests.push_back(BatchQueryRequest{nullptr, q, 0});
    }
  }
  BatchRunOptions run;
  run.num_threads = 2;
  auto cold = sys->RunBatch(requests, run);
  ASSERT_TRUE(cold.ok());
  // 30 items over 10 distinct twigs: at least 20 repeats hit the result
  // cache even within the first batch.
  EXPECT_GE(cold->report.result_cache_hits, 10);
  EXPECT_EQ(cold->report.result_cache_hits + cold->report.result_cache_misses,
            static_cast<int>(requests.size()));
  auto warm = sys->RunBatch(requests, run);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->report.result_cache_hits,
            static_cast<int>(requests.size()));
  EXPECT_EQ(warm->report.result_cache_misses, 0);
  EXPECT_GT(warm->report.result_cache.hits, 0u);
  EXPECT_GT(warm->report.compiler.misses, 0u);
  for (size_t i = 0; i < requests.size(); ++i) {
    ExpectSameResult(cold->answers[i], warm->answers[i]);
  }
}

TEST_F(SystemCacheTest, SingleQueryAndBatchShareTheCache) {
  auto sys = MakeSystem(true);
  const std::string q = TableIIIQueries()[0];
  ASSERT_TRUE(sys->Query(q).ok());  // populates (twig, attached doc, 0, tree)
  auto response = sys->RunBatch({BatchQueryRequest{nullptr, q, 0}});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->report.result_cache_hits, 1);
  ExpectSameResult(sys->Query(q), response->answers[0]);
}

// Re-Preparing ONE pair must sweep only that pair's cached answers:
// other pairs' corpus documents keep their hot entries (the hit-
// retention half of the per-pair invalidation deferral).
TEST(PairSweepRetentionTest, RePrepareKeepsOtherPairsHotAnswers) {
  auto d7 = LoadDataset("D7");
  auto d1 = LoadDataset("D1");
  ASSERT_TRUE(d7.ok());
  ASSERT_TRUE(d1.ok());
  const Document doc7 = GenerateDocument(
      *d7->source, DocGenOptions{.seed = 3, .target_nodes = 120});
  const Document doc1 = GenerateDocument(
      *d1->source, DocGenOptions{.seed = 4, .target_nodes = 120});

  SystemOptions opts;
  opts.top_h.h = 12;
  UncertainMatchingSystem sys(opts);
  ASSERT_TRUE(sys.Prepare(d7->source.get(), d7->target.get()).ok());
  ASSERT_TRUE(sys.Prepare(d1->source.get(), d1->target.get()).ok());
  ASSERT_TRUE(sys.AddDocument("a7", &doc7, d7->source.get(),
                              d7->target.get())
                  .ok());
  ASSERT_TRUE(sys.AddDocument("b1", &doc1, d1->source.get(),
                              d1->target.get())
                  .ok());

  const std::string twig = TableIIIQueries()[0];
  CorpusQueryOptions all;
  all.top_k = 0;
  ASSERT_TRUE(sys.QueryCorpus(twig, all).ok());  // cold: both inserted
  ASSERT_TRUE(sys.QueryCorpus(twig, all).ok());  // warm: both hit
  const ResultCacheStats before = sys.result_cache_stats();
  EXPECT_EQ(before.hits, 2u);
  EXPECT_EQ(before.entries, 2u);

  // Re-Prepare the D7 pair: its entry is swept, D1's is retained.
  ASSERT_TRUE(sys.Prepare(d7->source.get(), d7->target.get()).ok());
  const ResultCacheStats after = sys.result_cache_stats();
  EXPECT_EQ(after.entries, 1u);
  EXPECT_GE(after.pair_sweeps, 1u);
  EXPECT_EQ(after.invalidations, before.invalidations);  // no full Clear

  // The D1 document still answers from cache...
  CorpusQueryOptions only_d1 = all;
  only_d1.documents = {"b1"};
  ASSERT_TRUE(sys.QueryCorpus(twig, only_d1).ok());
  EXPECT_EQ(sys.result_cache_stats().hits, before.hits + 1);
  // ...while the re-prepared D7 document recomputes (miss), then hits.
  CorpusQueryOptions only_d7 = all;
  only_d7.documents = {"a7"};
  ASSERT_TRUE(sys.QueryCorpus(twig, only_d7).ok());
  EXPECT_EQ(sys.result_cache_stats().hits, before.hits + 1);
  ASSERT_TRUE(sys.QueryCorpus(twig, only_d7).ok());
  EXPECT_EQ(sys.result_cache_stats().hits, before.hits + 2);
}

// N pairs over ONE target schema pay each twig's embedding enumeration
// once: the registry-wide EmbeddingCache is consulted by every pair's
// compiler, and the plans share the embedding object itself.
TEST(SharedEmbeddingCacheTest, PairsOverOneTargetShareEmbeddings) {
  SkewedCorpusOptions gen;
  gen.hot_documents = 1;
  gen.cold_pairs = 1;
  gen.cold_documents_per_pair = 0;
  gen.doc_target_nodes = 40;
  auto scenario = MakeSkewedCorpusScenario(gen);
  ASSERT_TRUE(scenario.ok()) << scenario.status();

  SystemOptions opts;
  opts.top_h.h = 30;
  UncertainMatchingSystem sys(opts);
  for (const SkewedPair& pair : scenario->pairs) {
    ASSERT_TRUE(sys.PrepareFromMatching(pair.matching).ok());
  }
  ASSERT_EQ(sys.pair_count(), 2u);
  EXPECT_EQ(sys.embedding_cache_stats().misses, 0u);

  auto hot = sys.prepared_pair(scenario->pairs[0].source.get(),
                               scenario->target.get());
  auto cold = sys.prepared_pair(scenario->pairs[1].source.get(),
                                scenario->target.get());
  ASSERT_NE(hot, nullptr);
  ASSERT_NE(cold, nullptr);
  auto hot_plan = hot->compiler->Compile(scenario->probe_twig);
  ASSERT_TRUE(hot_plan.ok());
  EXPECT_EQ(sys.embedding_cache_stats().misses, 1u);
  EXPECT_EQ(sys.embedding_cache_stats().hits, 0u);
  auto cold_plan = cold->compiler->Compile(scenario->probe_twig);
  ASSERT_TRUE(cold_plan.ok());
  const EmbeddingCacheStats stats = sys.embedding_cache_stats();
  EXPECT_EQ(stats.misses, 1u);  // embedded once, not once per pair
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  // Not just equal — the SAME embedding storage.
  EXPECT_EQ(&(*hot_plan)->embeddings(), &(*cold_plan)->embeddings());
}

// ----------------------------------------------------- pair LRU cap

// CacheOptions::max_pairs: installs beyond the cap evict the least-
// recently-QUERIED pair through the RemovePair internals — the victim's
// corpus documents go with it, the default pair is never the victim, and
// pair_evictions() counts every eviction.
class PairLruTest : public ::testing::Test {
 protected:
  // The three datasets (one matcher run each) and the D7 document are
  // built once per suite; every test builds its own systems over them.
  static void SetUpTestSuite() {
    for (const char* id : {"D7", "D1", "D6"}) {
      auto d = LoadDataset(id);
      ASSERT_TRUE(d.ok()) << id << ": " << d.status();
      datasets_.push_back(std::make_unique<Dataset>(std::move(d).ValueOrDie()));
    }
    doc7_ = std::make_unique<Document>(GenerateDocument(
        *datasets_[0]->source, DocGenOptions{.seed = 3, .target_nodes = 100}));
  }

  static void TearDownTestSuite() {
    doc7_.reset();
    datasets_.clear();
  }

  void SetUp() override { ASSERT_NE(doc7_, nullptr); }

  SystemOptions Options(size_t max_pairs) const {
    SystemOptions opts;
    opts.top_h.h = 12;
    opts.cache.max_pairs = max_pairs;
    return opts;
  }

  Status Prepare(UncertainMatchingSystem* sys, size_t i) {
    return sys->PrepareFromMatching(datasets_[i]->matching);
  }

  bool Registered(const UncertainMatchingSystem& sys, size_t i) const {
    return sys.prepared_pair(datasets_[i]->source.get(),
                             datasets_[i]->target.get()) != nullptr;
  }

  static std::vector<std::unique_ptr<Dataset>> datasets_;
  static std::unique_ptr<Document> doc7_;
};

std::vector<std::unique_ptr<Dataset>> PairLruTest::datasets_;
std::unique_ptr<Document> PairLruTest::doc7_;

TEST_F(PairLruTest, CapEvictsLeastRecentlyQueriedAndDropsItsDocuments) {
  UncertainMatchingSystem sys(Options(2));
  ASSERT_TRUE(Prepare(&sys, 0).ok());  // D7
  ASSERT_TRUE(Prepare(&sys, 1).ok());  // D1 (default)
  EXPECT_EQ(sys.pair_count(), 2u);
  EXPECT_EQ(sys.pair_evictions(), 0u);
  // Register a document under D7 — AddDocument targeting a pair counts
  // as a query, so D7 is now more recently used than... nothing yet:
  // both touches happened after D7's install, so without them D7 (the
  // older install) would be the victim.
  ASSERT_TRUE(sys.AddDocument("a7", doc7_.get(), datasets_[0]->source.get(),
                              datasets_[0]->target.get())
                  .ok());
  EXPECT_EQ(sys.corpus_size(), 1u);

  // Third install overflows the cap. D1 is the LEAST recently queried —
  // but it is the default until the new install lands; the new pair
  // becomes the default, so D1 is evictable and D7 (just touched by
  // AddDocument) survives.
  ASSERT_TRUE(Prepare(&sys, 2).ok());  // D6 (new default)
  EXPECT_EQ(sys.pair_count(), 2u);
  EXPECT_EQ(sys.pair_evictions(), 1u);
  EXPECT_TRUE(Registered(sys, 0));   // D7: recently queried, retained
  EXPECT_FALSE(Registered(sys, 1));  // D1: evicted
  EXPECT_TRUE(Registered(sys, 2));   // D6: the default
  // D7's document is untouched by D1's eviction.
  EXPECT_EQ(sys.corpus_size(), 1u);
}

TEST_F(PairLruTest, EvictionFollowsRecencyNotInstallOrder) {
  UncertainMatchingSystem sys(Options(2));
  ASSERT_TRUE(Prepare(&sys, 0).ok());  // D7 — oldest install
  ASSERT_TRUE(Prepare(&sys, 1).ok());  // D1 (default)
  // No touches in between: install order IS recency order, so the
  // victim is D7 this time.
  ASSERT_TRUE(Prepare(&sys, 2).ok());
  EXPECT_FALSE(Registered(sys, 0));
  EXPECT_TRUE(Registered(sys, 1));
  EXPECT_TRUE(Registered(sys, 2));
  EXPECT_EQ(sys.pair_evictions(), 1u);
}

TEST_F(PairLruTest, DefaultPairIsNeverEvictedEvenAtCapOne) {
  UncertainMatchingSystem sys(Options(1));
  ASSERT_TRUE(Prepare(&sys, 0).ok());
  ASSERT_TRUE(Prepare(&sys, 1).ok());  // overflow: D7 evicted, D1 stays
  EXPECT_EQ(sys.pair_count(), 1u);
  EXPECT_FALSE(Registered(sys, 0));
  EXPECT_TRUE(Registered(sys, 1));  // the default survives the cap
  EXPECT_EQ(sys.pair_evictions(), 1u);
  // An evicted pair's documents cannot be added any more (NotFound), and
  // the evicted pair's schemas can be re-prepared cleanly.
  EXPECT_TRUE(sys.AddDocument("a7", doc7_.get(), datasets_[0]->source.get(),
                              datasets_[0]->target.get())
                  .IsNotFound());
  ASSERT_TRUE(Prepare(&sys, 0).ok());  // D7 back (default), D1 evicted
  EXPECT_EQ(sys.pair_count(), 1u);
  EXPECT_EQ(sys.pair_evictions(), 2u);
}

TEST_F(PairLruTest, CorpusBatchesTouchTheirDocumentsPairs) {
  UncertainMatchingSystem sys(Options(2));
  ASSERT_TRUE(Prepare(&sys, 0).ok());  // D7 — oldest install
  ASSERT_TRUE(sys.AddDocument("a7", doc7_.get(), datasets_[0]->source.get(),
                              datasets_[0]->target.get())
                  .ok());
  ASSERT_TRUE(Prepare(&sys, 1).ok());  // D1 (default) — D7 is now LRU
  // A corpus batch carries the D7 document, touching the D7 pair PAST
  // D1's install stamp — so the next overflow evicts D1, not D7, even
  // though D7 lost on install order.
  ASSERT_TRUE(sys.QueryCorpus(TableIIIQueries()[0], {}).ok());
  ASSERT_TRUE(Prepare(&sys, 2).ok());  // D6 (default)
  EXPECT_TRUE(Registered(sys, 0));
  EXPECT_FALSE(Registered(sys, 1));
  EXPECT_EQ(sys.pair_evictions(), 1u);
}

TEST_F(PairLruTest, ZeroCapMeansUnlimited) {
  UncertainMatchingSystem sys(Options(0));
  for (size_t i = 0; i < datasets_.size(); ++i) {
    ASSERT_TRUE(Prepare(&sys, i).ok());
  }
  EXPECT_EQ(sys.pair_count(), datasets_.size());
  EXPECT_EQ(sys.pair_evictions(), 0u);
}

}  // namespace
}  // namespace uxm
