// Differential tests for the probabilistic core: on hundreds of
// seeded-random small schema pairs, an exponential brute-force oracle
// (enumerate every 1:1-consistent subset of the matching's
// correspondences) must agree with the production Murty / partition-merge
// top-h pipeline on the top-h mapping set, the scores, and the
// normalized probabilities; ExecutionDriver PTQ answers must equal the
// naive Definition-4 evaluator of tests/oracle/; and single-shot Query
// must agree with QueryCorpus on a one-document corpus for generated
// documents and schema-derived twigs. Unlike the unit tests, nothing here hand-picks
// scenarios: every disagreement is a real divergence between two
// independent implementations of the same definition.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocktree/block_tree.h"
#include "common/random.h"
#include "core/system.h"
#include "corpus/corpus_executor.h"
#include "mapping/top_h.h"
#include "plan/prepared_pair.h"
#include "tests/oracle/naive_ptq.h"
#include "tests/test_util.h"
#include "workload/corpus_generator.h"
#include "workload/document_generator.h"
#include "xml/schema.h"

namespace uxm {
namespace {

// ------------------------------------------------- random scenario gen

/// Builds a random rooted schema of `nodes` elements. Labels are
/// `prefix<i>`, except that with probability 0.25 a node reuses an
/// earlier label — duplicate tags are what make twig-to-schema embedding
/// non-trivial (the paper's ContactName situation).
std::shared_ptr<Schema> RandomSchema(Rng* rng, const std::string& prefix,
                                     int nodes) {
  auto schema = std::make_shared<Schema>(prefix + "schema");
  std::vector<std::string> labels;
  labels.push_back(prefix + "0");
  schema->AddRoot(labels[0]);
  for (int i = 1; i < nodes; ++i) {
    std::string label = prefix + std::to_string(i);
    if (rng->Bernoulli(0.25)) {
      label = labels[rng->Index(labels.size())];
    }
    labels.push_back(label);
    const auto parent = static_cast<SchemaNodeId>(rng->Uniform(
        static_cast<uint64_t>(i)));
    schema->AddChild(parent, label, /*repeatable=*/rng->Bernoulli(0.3),
                     /*optional=*/rng->Bernoulli(0.3));
  }
  schema->Finalize();
  return schema;
}

/// A random scenario: two small schemas plus a matching of at most
/// `max_edges` scored correspondences (at least one).
struct RandomPair {
  std::shared_ptr<Schema> source;
  std::shared_ptr<Schema> target;
  SchemaMatching matching;
};

RandomPair MakeRandomPair(Rng* rng, int max_nodes, int max_edges) {
  RandomPair pair;
  for (;;) {
    pair.source = RandomSchema(rng, "S", 3 + static_cast<int>(rng->Uniform(
                                               static_cast<uint64_t>(
                                                   max_nodes - 2))));
    pair.target = RandomSchema(rng, "T", 3 + static_cast<int>(rng->Uniform(
                                               static_cast<uint64_t>(
                                                   max_nodes - 2))));
    pair.matching = SchemaMatching(pair.source.get(), pair.target.get());
    std::vector<std::pair<SchemaNodeId, SchemaNodeId>> candidates;
    for (SchemaNodeId s = 0; s < pair.source->size(); ++s) {
      for (SchemaNodeId t = 0; t < pair.target->size(); ++t) {
        candidates.emplace_back(s, t);
      }
    }
    rng->Shuffle(&candidates);
    int edges = 0;
    for (const auto& [s, t] : candidates) {
      if (edges >= max_edges) break;
      if (!rng->Bernoulli(0.3)) continue;
      const double score = 0.05 + 0.95 * rng->NextDouble();
      if (pair.matching.Add(s, t, score).ok()) ++edges;
    }
    if (edges > 0) return pair;  // retry the rare all-empty draw
  }
}

// ------------------------------------------------- brute-force oracle

/// One brute-forced possible mapping in canonical form.
struct BruteMapping {
  std::vector<SchemaNodeId> target_to_source;
  double score = 0.0;
};

/// Enumerates EVERY subset of the matching's correspondences in which
/// each source and each target element is used at most once — by
/// construction of the assignment problem (one row per source, one
/// column per target, a private null column per row) this is exactly the
/// solution space the Murty/top-h pipeline ranks. Returned sorted by
/// descending score.
std::vector<BruteMapping> BruteForceAllMappings(const SchemaMatching& m) {
  const auto& corrs = m.correspondences();
  const size_t n = corrs.size();
  std::vector<BruteMapping> all;
  std::vector<uint8_t> src_used(static_cast<size_t>(m.source().size()), 0);
  std::vector<uint8_t> tgt_used(static_cast<size_t>(m.target().size()), 0);
  BruteMapping current;
  current.target_to_source.assign(static_cast<size_t>(m.target().size()),
                                  kInvalidSchemaNode);
  std::function<void(size_t)> rec = [&](size_t i) {
    if (i == n) {
      all.push_back(current);
      return;
    }
    rec(i + 1);  // exclude correspondence i
    const Correspondence& c = corrs[i];
    if (src_used[static_cast<size_t>(c.source)] ||
        tgt_used[static_cast<size_t>(c.target)]) {
      return;
    }
    src_used[static_cast<size_t>(c.source)] = 1;
    tgt_used[static_cast<size_t>(c.target)] = 1;
    current.target_to_source[static_cast<size_t>(c.target)] = c.source;
    current.score += c.score;
    rec(i + 1);  // include correspondence i
    current.score -= c.score;
    current.target_to_source[static_cast<size_t>(c.target)] =
        kInvalidSchemaNode;
    src_used[static_cast<size_t>(c.source)] = 0;
    tgt_used[static_cast<size_t>(c.target)] = 0;
  };
  rec(0);
  std::stable_sort(all.begin(), all.end(),
                   [](const BruteMapping& a, const BruteMapping& b) {
                     return a.score > b.score;
                   });
  return all;
}

// ------------------------------------------------- top-h differential

class TopHDifferentialTest
    : public ::testing::TestWithParam<std::tuple<TopHStrategy, uint64_t>> {};

TEST_P(TopHDifferentialTest, PipelineMatchesBruteForceEnumeration) {
  const auto [strategy, seed] = GetParam();
  Rng rng(seed);
  constexpr int kTrials = 125;  // x2 strategies x2 seeds = 500 pairs
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomPair pair = MakeRandomPair(&rng, /*max_nodes=*/6,
                                           /*max_edges=*/12);
    const std::vector<BruteMapping> all = BruteForceAllMappings(pair.matching);
    // h spans [1, 20] and sometimes exceeds the solution space (the
    // "return everything" regime); it stays small because Murty's cost is
    // O(h) solver passes and 500 trials must stay test-suite fast.
    const int h = 1 + static_cast<int>(rng.Uniform(
                          std::min<uint64_t>(all.size() + 2, 20)));
    const size_t expect = std::min<size_t>(static_cast<size_t>(h), all.size());
    double expect_mass = 0.0;
    for (size_t i = 0; i < expect; ++i) expect_mass += all[i].score;

    TopHOptions opts;
    opts.h = h;
    opts.strategy = strategy;
    TopHGenerator generator(opts);
    auto generated = generator.Generate(pair.matching);
    ASSERT_TRUE(generated.ok())
        << generated.status() << " trial " << trial;
    ASSERT_EQ(static_cast<size_t>(generated->size()), expect)
        << "trial " << trial << " h=" << h << " edges "
        << pair.matching.size();

    // Rank-by-rank: scores and normalized probabilities must match the
    // oracle exactly (modulo float noise).
    std::set<std::vector<SchemaNodeId>> seen;
    for (size_t i = 0; i < expect; ++i) {
      const PossibleMapping& got = generated->mapping(static_cast<int>(i));
      EXPECT_NEAR(got.score, all[i].score, 1e-9)
          << "rank " << i << " trial " << trial;
      EXPECT_NEAR(got.probability, all[i].score / expect_mass, 1e-9)
          << "rank " << i << " trial " << trial;
      // Every returned mapping must be a distinct member of the oracle's
      // solution space with a consistent score.
      EXPECT_TRUE(seen.insert(got.target_to_source).second)
          << "duplicate mapping at rank " << i << " trial " << trial;
      double recomputed = 0.0;
      for (SchemaNodeId t = 0; t < pair.target->size(); ++t) {
        const SchemaNodeId s = got.SourceFor(t);
        if (s == kInvalidSchemaNode) continue;
        bool is_edge = false;
        for (const Correspondence& c : pair.matching.correspondences()) {
          if (c.source == s && c.target == t) {
            recomputed += c.score;
            is_edge = true;
            break;
          }
        }
        EXPECT_TRUE(is_edge) << "mapping uses a non-correspondence pair ("
                             << s << ", " << t << ") trial " << trial;
      }
      EXPECT_NEAR(recomputed, got.score, 1e-9) << "trial " << trial;
    }

    // When the cut at h is unambiguous, the returned *set* of mappings
    // must be exactly the brute-force top-h (ties inside the set may
    // order differently; continuous random scores make boundary ties
    // vanishingly rare, but guard anyway).
    const bool boundary_tie =
        expect < all.size() &&
        all[expect - 1].score - all[expect].score <= 1e-9;
    if (!boundary_tie) {
      std::set<std::vector<SchemaNodeId>> brute_set;
      for (size_t i = 0; i < expect; ++i) {
        brute_set.insert(all[i].target_to_source);
      }
      EXPECT_EQ(seen, brute_set) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, TopHDifferentialTest,
    ::testing::Values(
        std::make_tuple(TopHStrategy::kMurty, uint64_t{101}),
        std::make_tuple(TopHStrategy::kMurty, uint64_t{202}),
        std::make_tuple(TopHStrategy::kPartition, uint64_t{101}),
        std::make_tuple(TopHStrategy::kPartition, uint64_t{202})));

// ------------------------------------------------- query differential

/// Builds twig texts a random target schema can answer: root paths
/// ("T0/T3/T5") and descendant probes ("//T5").
std::vector<std::string> SchemaTwigs(const Schema& schema, Rng* rng,
                                     int count) {
  std::vector<std::string> twigs;
  for (int i = 0; i < count; ++i) {
    const auto node = static_cast<SchemaNodeId>(
        rng->Uniform(static_cast<uint64_t>(schema.size())));
    if (rng->Bernoulli(0.5)) {
      std::string path = schema.path(node);
      std::replace(path.begin(), path.end(), '.', '/');
      twigs.push_back(std::move(path));
    } else {
      twigs.push_back("//" + schema.name(node));
    }
  }
  return twigs;
}

// --------------------------------------- pruned top-k differential

// The kernel against its independent oracle. ExecutionDriver answers —
// the early-termination top-k selection (consume work units most-
// probable-first, stop once k relevant mappings are in hand), then
// Algorithm 3 or Algorithm 4 over the flat index — must equal the naive
// Definition-4 evaluator in tests/oracle/: the eager FilterRelevantMappings
// scan cut to k, then one TwigMatcher::MatchProjected per (mapping,
// embedding), with none of the kernel's binding-tuple memoization,
// fingerprint-shared assembly, c-block fast path, arena or cancellation.
// Across random schema pairs × generated documents × schema-derived twigs
// × {Algorithm 3, Algorithm 4} × k ∈ {0, 1, 3, 10}, both must produce
// identical answer lists: mapping ids, probabilities and match lists, bit
// for bit. τ cycles so that both the c-block fast path and the
// decomposition path carry real work.
TEST(PrunedTopKDifferentialTest, PrunedEqualsUnprunedEnumeration) {
  Rng rng(31);
  constexpr int kTrials = 500;
  constexpr double kTaus[] = {0.1, 0.3, 0.6};
  int compared = 0;
  int nonempty = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomPair pair = MakeRandomPair(&rng, /*max_nodes=*/8,
                                           /*max_edges=*/12);
    DocGenOptions doc_opts;
    doc_opts.seed = rng.NextU64();
    doc_opts.target_nodes = 40;
    const Document doc = GenerateDocument(*pair.source, doc_opts);

    TopHOptions top_h;
    top_h.h = 12;
    auto mappings = TopHGenerator(top_h).Generate(pair.matching);
    ASSERT_TRUE(mappings.ok()) << "trial " << trial;
    BlockTreeOptions tree_opts;
    tree_opts.tau = kTaus[trial % 3];
    auto built = BlockTreeBuilder(tree_opts).Build(*mappings);
    ASSERT_TRUE(built.ok()) << "trial " << trial;
    const auto prepared = MakePreparedSchemaPairFromProducts(
        pair.matching, *mappings, built->tree);
    auto ad = AnnotatedDocument::Bind(&doc, pair.source.get());
    ASSERT_TRUE(ad.ok());

    for (const std::string& twig : SchemaTwigs(*pair.target, &rng, 3)) {
      auto parsed = TwigQuery::Parse(twig);
      ASSERT_TRUE(parsed.ok()) << twig;
      for (const int k : {0, 1, 3, 10}) {
        PtqOptions options;
        options.top_k = k;
        const PtqResult want =
            oracle::NaivePtq(*mappings, *ad, *parsed, options);
        for (const bool use_block_tree : {false, true}) {
          const std::string context =
              "trial " + std::to_string(trial) + " " + twig +
              " k=" + std::to_string(k) +
              (use_block_tree ? " Algorithm 4" : " Algorithm 3");
          auto got = testutil::DrivePtq(*prepared, *ad, twig, k,
                                        use_block_tree);
          ASSERT_TRUE(got.ok()) << context << ": " << got.status();
          testutil::ExpectSamePtq(*got, want, context);
          ASSERT_FALSE(::testing::Test::HasFailure()) << context;
          compared += static_cast<int>(want.answers.size());
          for (const MappingAnswer& a : want.answers) {
            if (!a.matches.empty()) ++nonempty;
          }
        }
      }
    }
  }
  // The generator must produce real answer sets — many of them with
  // matches — or the sweep is vacuous (seed 31 yields 40110 compared
  // answers, 29380 of them non-empty).
  EXPECT_GT(compared, 20000);
  EXPECT_GT(nonempty, 10000);
}

// ------------------------------------ multi-schema corpus differential

// A corpus spanning two random schema pairs must answer exactly the
// brute-force merge of per-document single-shot queries run on
// single-pair oracle systems. The random schemas share their label
// alphabets (S*/T*), so twigs regularly embed in BOTH targets and the
// merge genuinely mixes answers across pairs.
TEST(MultiSchemaCorpusDifferentialTest, HeterogeneousCorpusEqualsPerPairMerge) {
  Rng rng(13);
  constexpr int kTrials = 12;
  int cross_pair_merges = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomPair a = MakeRandomPair(&rng, /*max_nodes=*/8,
                                        /*max_edges=*/12);
    const RandomPair b = MakeRandomPair(&rng, /*max_nodes=*/8,
                                        /*max_edges=*/12);
    DocGenOptions gen;
    gen.seed = rng.NextU64();
    gen.target_nodes = 40;
    const Document doc_a = GenerateDocument(*a.source, gen);
    gen.seed = rng.NextU64();
    const Document doc_b = GenerateDocument(*b.source, gen);

    SystemOptions opts;
    opts.top_h.h = 8;
    UncertainMatchingSystem sys(opts);
    ASSERT_TRUE(sys.PrepareFromMatching(a.matching).ok());
    ASSERT_TRUE(sys.PrepareFromMatching(b.matching).ok());
    ASSERT_EQ(sys.pair_count(), 2u);
    ASSERT_TRUE(sys.AddDocument("a-doc", &doc_a, a.source.get(),
                                a.target.get())
                    .ok());
    ASSERT_TRUE(sys.AddDocument("b-doc", &doc_b).ok());  // default = b

    UncertainMatchingSystem oracle_a(opts);
    ASSERT_TRUE(oracle_a.PrepareFromMatching(a.matching).ok());
    ASSERT_TRUE(oracle_a.AttachDocument(&doc_a).ok());
    UncertainMatchingSystem oracle_b(opts);
    ASSERT_TRUE(oracle_b.PrepareFromMatching(b.matching).ok());
    ASSERT_TRUE(oracle_b.AttachDocument(&doc_b).ok());

    std::vector<std::string> twigs = SchemaTwigs(*a.target, &rng, 3);
    for (std::string& t : SchemaTwigs(*b.target, &rng, 3)) {
      twigs.push_back(std::move(t));
    }
    for (const std::string& twig : twigs) {
      auto ra = oracle_a.Query(twig);
      ASSERT_TRUE(ra.ok()) << twig << ": " << ra.status();
      auto rb = oracle_b.Query(twig);
      ASSERT_TRUE(rb.ok()) << twig << ": " << rb.status();
      const std::vector<std::vector<CorpusAnswer>> per_document = {
          CollapseForCorpus("a-doc", *ra), CollapseForCorpus("b-doc", *rb)};
      if (!per_document[0].empty() && !per_document[1].empty()) {
        ++cross_pair_merges;
      }
      for (const int k : {0, 2}) {
        const std::vector<CorpusAnswer> want = MergeTopK(per_document, k);
        CorpusQueryOptions corpus_opts;
        corpus_opts.top_k = k;
        auto got = sys.QueryCorpus(twig, corpus_opts);
        ASSERT_TRUE(got.ok()) << twig << ": " << got.status();
        ASSERT_EQ(got->answers.size(), want.size())
            << twig << " k=" << k << " trial " << trial;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got->answers[i].document, want[i].document);
          EXPECT_DOUBLE_EQ(got->answers[i].probability,
                           want[i].probability);
          EXPECT_EQ(got->answers[i].matches, want[i].matches);
        }
      }
    }
  }
  // At least some merges must actually mix answers from both pairs.
  EXPECT_GT(cross_pair_merges, 3);
}

// ------------------------------------ bounded corpus differential

// The bound-driven corpus scheduler must be invisible in the answers:
// across random multi-pair corpora and k in {1, 3, 10}, the bounded
// QueryCorpus (Threshold-Algorithm dispatch, pruning, in-flight aborts)
// must return byte-identical answer sets and scores to (a) the
// brute-force merge of per-document single-shot queries on single-pair
// oracle systems and (b) its own exhaustive evaluate-everything path.
// Random pairs give genuinely skewed relevant masses, so the sweep also
// asserts that pruning/aborting actually fired somewhere — the equality
// is not vacuously about unpruned runs. (Debug builds additionally
// re-evaluate every skipped item via the scheduler's built-in
// certificate.)
TEST(BoundedCorpusDifferentialTest, BoundedEqualsBruteForcePerDocumentMerge) {
  Rng rng(23);
  constexpr int kTrials = 10;
  int items_skipped = 0;
  int compared = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomPair a = MakeRandomPair(&rng, /*max_nodes=*/8,
                                        /*max_edges=*/12);
    const RandomPair b = MakeRandomPair(&rng, /*max_nodes=*/8,
                                        /*max_edges=*/12);
    SystemOptions opts;
    opts.top_h.h = 8;
    UncertainMatchingSystem sys(opts);
    ASSERT_TRUE(sys.PrepareFromMatching(a.matching).ok());
    ASSERT_TRUE(sys.PrepareFromMatching(b.matching).ok());
    UncertainMatchingSystem oracle_a(opts);
    ASSERT_TRUE(oracle_a.PrepareFromMatching(a.matching).ok());
    UncertainMatchingSystem oracle_b(opts);
    ASSERT_TRUE(oracle_b.PrepareFromMatching(b.matching).ok());

    // Two documents per pair, registered under their own pair.
    std::vector<Document> docs;
    docs.reserve(4);
    std::vector<std::string> names;
    for (int d = 0; d < 4; ++d) {
      const RandomPair& pair = d < 2 ? a : b;
      DocGenOptions gen;
      gen.seed = rng.NextU64();
      gen.target_nodes = 30;
      docs.push_back(GenerateDocument(*pair.source, gen));
      names.push_back((d < 2 ? "a-doc-" : "b-doc-") + std::to_string(d));
    }
    for (int d = 0; d < 4; ++d) {
      const RandomPair& pair = d < 2 ? a : b;
      ASSERT_TRUE(sys.AddDocument(names[static_cast<size_t>(d)], &docs[d],
                                  pair.source.get(), pair.target.get())
                      .ok());
    }

    std::vector<std::string> twigs = SchemaTwigs(*a.target, &rng, 3);
    for (std::string& t : SchemaTwigs(*b.target, &rng, 3)) {
      twigs.push_back(std::move(t));
    }
    for (const std::string& twig : twigs) {
      // Brute force: per-document single-shot queries on the oracles.
      std::vector<std::vector<CorpusAnswer>> per_document;
      for (int d = 0; d < 4; ++d) {
        UncertainMatchingSystem& oracle = d < 2 ? oracle_a : oracle_b;
        ASSERT_TRUE(oracle.AttachDocument(&docs[d]).ok());
        auto r = oracle.Query(twig);
        ASSERT_TRUE(r.ok()) << twig << ": " << r.status();
        per_document.push_back(
            CollapseForCorpus(names[static_cast<size_t>(d)], *r));
      }
      for (const int k : {1, 3, 10}) {
        const std::vector<CorpusAnswer> want = MergeTopK(per_document, k);
        CorpusQueryOptions bounded;
        bounded.top_k = k;
        auto got = sys.RunCorpusBatch({twig}, bounded);
        ASSERT_TRUE(got.ok()) << twig << ": " << got.status();
        ASSERT_TRUE(got->answers[0].ok()) << twig;
        items_skipped +=
            got->corpus.items_pruned + got->corpus.items_aborted;
        CorpusQueryOptions exhaustive = bounded;
        exhaustive.bounded = false;
        auto full = sys.QueryCorpus(twig, exhaustive);
        ASSERT_TRUE(full.ok()) << twig;
        const std::vector<CorpusAnswer>& answers =
            got->answers[0]->answers;
        ASSERT_EQ(answers.size(), want.size())
            << twig << " k=" << k << " trial " << trial;
        ASSERT_EQ(full->answers.size(), want.size()) << twig << " k=" << k;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(answers[i].document, want[i].document)
              << twig << " k=" << k << " answer " << i;
          EXPECT_DOUBLE_EQ(answers[i].probability, want[i].probability)
              << twig << " k=" << k << " answer " << i;
          EXPECT_EQ(answers[i].matches, want[i].matches)
              << twig << " k=" << k << " answer " << i;
          EXPECT_EQ(full->answers[i].document, want[i].document);
          EXPECT_DOUBLE_EQ(full->answers[i].probability,
                           want[i].probability);
          EXPECT_EQ(full->answers[i].matches, want[i].matches);
          ++compared;
        }
      }
    }
  }
  // The sweep must have produced answers AND exercised real pruning.
  EXPECT_GT(compared, 100);
  EXPECT_GT(items_skipped, 0);
}

// The homogeneous single-pair corpus: every document shares ONE pair-level
// bound, so the document-sensitive bound (probe + realized cache) is the
// only pruning lever — this sweep pins that document-level pruning is
// answer-invisible. Both twig shapes, k in {1, 3, 5}, bounded vs its own
// exhaustive path vs the brute-force per-document merge; run twice so the
// second pass schedules off realized cached bounds. (Debug builds
// additionally re-evaluate every skipped item via the scheduler's
// built-in certificate.)
TEST(BoundedCorpusDifferentialTest, SinglePairDocumentBoundsAreInvisible) {
  SinglePairCorpusOptions gen;
  gen.hot_documents = 4;
  gen.cold_documents = 12;
  gen.doc_target_nodes = 100;
  auto scenario = MakeSinglePairCorpusScenario(gen);
  ASSERT_TRUE(scenario.ok()) << scenario.status();

  SystemOptions opts;
  opts.top_h.h = 16;
  UncertainMatchingSystem sys(opts);
  ASSERT_TRUE(sys.PrepareFromMatching(scenario->matching).ok());
  for (size_t i = 0; i < scenario->documents.size(); ++i) {
    ASSERT_TRUE(
        sys.AddDocument(scenario->names[i], scenario->documents[i].get())
            .ok());
  }
  SystemOptions oracle_opts = opts;
  oracle_opts.cache.enable_result_cache = false;
  UncertainMatchingSystem oracle(oracle_opts);
  ASSERT_TRUE(oracle.PrepareFromMatching(scenario->matching).ok());

  int items_skipped = 0;
  for (const std::string& twig :
       {scenario->probe_twig, scenario->deep_probe_twig}) {
    std::vector<std::vector<CorpusAnswer>> per_document;
    for (size_t d = 0; d < scenario->documents.size(); ++d) {
      ASSERT_TRUE(oracle.AttachDocument(scenario->documents[d].get()).ok());
      auto r = oracle.Query(twig);
      ASSERT_TRUE(r.ok()) << twig << ": " << r.status();
      per_document.push_back(CollapseForCorpus(scenario->names[d], *r));
    }
    for (const int k : {1, 3, 5}) {
      const std::vector<CorpusAnswer> want = MergeTopK(per_document, k);
      for (int pass = 0; pass < 2; ++pass) {
        CorpusQueryOptions bounded;
        bounded.top_k = k;
        auto got = sys.RunCorpusBatch({twig}, bounded);
        ASSERT_TRUE(got.ok()) << twig << ": " << got.status();
        ASSERT_TRUE(got->answers[0].ok()) << twig;
        items_skipped +=
            got->corpus.items_pruned + got->corpus.items_aborted;
        EXPECT_EQ(got->corpus.items_total,
                  got->corpus.items_evaluated + got->corpus.items_pruned +
                      got->corpus.items_aborted + got->corpus.items_failed)
            << twig << " k=" << k;
        const std::vector<CorpusAnswer>& answers = got->answers[0]->answers;
        ASSERT_EQ(answers.size(), want.size())
            << twig << " k=" << k << " pass " << pass;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(answers[i].document, want[i].document)
              << twig << " k=" << k << " answer " << i;
          EXPECT_DOUBLE_EQ(answers[i].probability, want[i].probability)
              << twig << " k=" << k << " answer " << i;
          EXPECT_EQ(answers[i].matches, want[i].matches)
              << twig << " k=" << k << " answer " << i;
        }
        CorpusQueryOptions exhaustive = bounded;
        exhaustive.bounded = false;
        auto full = sys.QueryCorpus(twig, exhaustive);
        ASSERT_TRUE(full.ok()) << twig;
        ASSERT_EQ(full->answers.size(), want.size()) << twig << " k=" << k;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(full->answers[i].document, want[i].document);
          EXPECT_DOUBLE_EQ(full->answers[i].probability,
                           want[i].probability);
          EXPECT_EQ(full->answers[i].matches, want[i].matches);
        }
      }
    }
  }
  // Document-level pruning must actually have fired — the property that
  // was impossible before document-sensitive bounds existed.
  EXPECT_GT(items_skipped, 0);
}

// Single-shot Query and QueryCorpus must agree answer-for-answer on a
// one-document corpus, across random schema pairs, generated documents,
// and schema-derived twigs — the corpus fan-out/merge must be a no-op
// wrapper in the degenerate case.
TEST(QueryCorpusDifferentialTest, OneDocumentCorpusEqualsSingleShotQuery) {
  Rng rng(7);
  constexpr int kTrials = 40;
  int compared = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomPair pair = MakeRandomPair(&rng, /*max_nodes=*/8,
                                           /*max_edges=*/12);
    DocGenOptions doc_opts;
    doc_opts.seed = rng.NextU64();
    doc_opts.target_nodes = 40;
    const Document doc = GenerateDocument(*pair.source, doc_opts);

    SystemOptions opts;
    opts.top_h.h = 8;
    UncertainMatchingSystem sys(opts);
    ASSERT_TRUE(sys.PrepareFromMatching(pair.matching).ok())
        << "trial " << trial;
    ASSERT_TRUE(sys.AttachDocument(&doc).ok()) << "trial " << trial;
    ASSERT_TRUE(sys.AddDocument("solo", &doc).ok()) << "trial " << trial;

    for (const std::string& twig : SchemaTwigs(*pair.target, &rng, 4)) {
      auto single = sys.Query(twig);
      ASSERT_TRUE(single.ok()) << twig << ": " << single.status();
      CorpusQueryOptions corpus_opts;
      corpus_opts.top_k = 0;
      auto corpus = sys.QueryCorpus(twig, corpus_opts);
      ASSERT_TRUE(corpus.ok()) << twig << ": " << corpus.status();
      const std::vector<CorpusAnswer> expected =
          CollapseForCorpus("solo", *single);
      ASSERT_EQ(corpus->answers.size(), expected.size())
          << twig << " trial " << trial;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(corpus->answers[i].document, "solo");
        EXPECT_DOUBLE_EQ(corpus->answers[i].probability,
                         expected[i].probability)
            << twig << " answer " << i;
        EXPECT_EQ(corpus->answers[i].matches, expected[i].matches)
            << twig << " answer " << i;
      }
      compared += static_cast<int>(expected.size());
    }
  }
  // The scenario generator must actually produce answers to compare, or
  // the equality above is vacuous.
  EXPECT_GT(compared, 50);
}

}  // namespace
}  // namespace uxm
