// PTQ evaluation tests: the paper's introduction example end-to-end, the
// basic ≡ block-tree ≡ naive-oracle equivalence on real datasets, top-k
// semantics, and embedding/rewriting edge cases. Evaluation runs through
// the one front-end, ExecutionDriver::Execute (Algorithm 3 with
// use_block_tree = false, Algorithm 4 with true).
#include "query/ptq.h"

#include <map>

#include <gtest/gtest.h>

#include "mapping/top_h.h"
#include "tests/oracle/naive_ptq.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/document_generator.h"

namespace uxm {
namespace {

using testutil::DrivePtq;
using testutil::MakePairFromMappings;
using testutil::MakePaperExample;
using testutil::PaperExample;

class PaperPtqTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = MakePaperExample();
    auto ad = AnnotatedDocument::Bind(ex_.doc.get(), ex_.source.get());
    ASSERT_TRUE(ad.ok()) << ad.status();
    annotated_ = std::make_unique<AnnotatedDocument>(std::move(ad).ValueOrDie());
  }

  /// Runs `twig` over the example's current mappings (block tree at
  /// tau = 0.4): Algorithm 4 when `use_block_tree`, else Algorithm 3.
  Result<PtqResult> Run(const std::string& twig, int top_k = 0,
                        bool use_block_tree = false) {
    return DrivePtq(*MakePairFromMappings(ex_.mappings, 0.4), *annotated_,
                    twig, top_k, use_block_tree);
  }

  /// Maps answer text values to aggregated probability.
  std::map<std::string, double> ValueDistribution(const PtqResult& r) {
    std::map<std::string, double> dist;
    for (const MappingAnswer& a : r.answers) {
      if (a.matches.empty()) {
        dist["<empty>"] += a.probability;
        continue;
      }
      for (DocNodeId n : a.matches) {
        dist[ex_.doc->text(n)] += a.probability;
      }
    }
    return dist;
  }

  PaperExample ex_;
  std::unique_ptr<AnnotatedDocument> annotated_;
};

TEST_F(PaperPtqTest, IntroExampleQuery) {
  // Q = //IP//ICN over the five mappings of Figure 3 (uniform p=0.2).
  // m1, m2: ICN ~ BCN under BP ~ IP -> "Cathy" (mass 0.4)
  // m3: IP ~ SSP but RCN is not under SSP -> empty (mass 0.2)
  // m4: ICN ~ RCN -> "Bob" (0.2); m5: ICN ~ OCN -> "Alice" (0.2)
  auto r = Run("//IP//ICN");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->answers.size(), 5u);  // all mappings map IP and ICN
  const auto dist = ValueDistribution(*r);
  EXPECT_NEAR(dist.at("Cathy"), 0.4, 1e-9);
  EXPECT_NEAR(dist.at("Bob"), 0.2, 1e-9);
  EXPECT_NEAR(dist.at("Alice"), 0.2, 1e-9);
  EXPECT_NEAR(dist.at("<empty>"), 0.2, 1e-9);
  EXPECT_NEAR(r->NonEmptyMass(), 0.8, 1e-9);
}

TEST_F(PaperPtqTest, BlockTreeAgreesOnIntroExample) {
  auto basic = Run("//IP//ICN", 0, /*use_block_tree=*/false);
  auto tree = Run("//IP//ICN", 0, /*use_block_tree=*/true);
  ASSERT_TRUE(basic.ok());
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(basic->answers.size(), tree->answers.size());
  for (size_t i = 0; i < basic->answers.size(); ++i) {
    EXPECT_EQ(basic->answers[i].mapping, tree->answers[i].mapping);
    EXPECT_EQ(basic->answers[i].matches, tree->answers[i].matches);
  }
}

TEST_F(PaperPtqTest, FilterMappingsDropsIrrelevant) {
  // //SP//SCN: only m3 maps SP (BP~SP); every mapping maps SCN. So
  // relevance requires SP mapped -> only m3 (index 2).
  auto q = TwigQuery::Parse("//SP//SCN");
  ASSERT_TRUE(q.ok());
  const auto embeddings = EmbedQueryInSchema(*q, *ex_.target, 0);
  const auto relevant = FilterRelevantMappings(ex_.mappings, embeddings, 0);
  EXPECT_EQ(relevant, (std::vector<MappingId>{2}));
}

TEST_F(PaperPtqTest, TopKRestrictsToMostProbable) {
  // Give the mappings distinct probabilities.
  auto* ms = ex_.mappings.mutable_mappings();
  (*ms)[0].score = 5;
  (*ms)[1].score = 4;
  (*ms)[2].score = 3;
  (*ms)[3].score = 2;
  (*ms)[4].score = 1;
  ex_.mappings.NormalizeProbabilities();
  auto r = Run("//IP//ICN", /*top_k=*/2, /*use_block_tree=*/true);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->answers.size(), 2u);
  EXPECT_EQ(r->answers[0].mapping, 0);
  EXPECT_EQ(r->answers[1].mapping, 1);
  // And the top-k answers agree with the full PTQ's answers for those
  // mappings (§IV-C's correctness argument).
  auto full = Run("//IP//ICN");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(r->answers[0].matches, full->answers[0].matches);
  EXPECT_EQ(r->answers[1].matches, full->answers[1].matches);
}

TEST_F(PaperPtqTest, ValuePredicateFiltersAnswers) {
  auto r = Run("//IP//ICN=\"Bob\"");
  ASSERT_TRUE(r.ok());
  const auto dist = ValueDistribution(*r);
  EXPECT_EQ(dist.count("Cathy"), 0u);
  EXPECT_NEAR(dist.at("Bob"), 0.2, 1e-9);
  // m1/m2/m3/m5 yield empty answers (their ICN value is not Bob).
  EXPECT_NEAR(dist.at("<empty>"), 0.8, 1e-9);
}

TEST_F(PaperPtqTest, AbsoluteRootQueryRequiresRootLabel) {
  auto q = TwigQuery::Parse("ORDER//ICN");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->absolute_root());
  const auto embeddings = EmbedQueryInSchema(*q, *ex_.target, 0);
  ASSERT_EQ(embeddings.size(), 1u);
  EXPECT_EQ(embeddings[0][0], ex_.t_order);

  auto q2 = TwigQuery::Parse("IP//ICN");  // absolute but root is not IP
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(EmbedQueryInSchema(*q2, *ex_.target, 0).empty());
}

TEST_F(PaperPtqTest, EmbeddingAmbiguousLabels) {
  // Source-side sanity: embedding //ICN finds exactly the one ICN.
  auto q = TwigQuery::Parse("//ICN");
  ASSERT_TRUE(q.ok());
  const auto embeddings = EmbedQueryInSchema(*q, *ex_.target, 0);
  ASSERT_EQ(embeddings.size(), 1u);
  EXPECT_EQ(embeddings[0][0], ex_.t_icn);
}

TEST_F(PaperPtqTest, CollapseByMatchesAggregatesProbability) {
  auto r = Run("//IP//ICN");
  ASSERT_TRUE(r.ok());
  const auto collapsed = r->CollapseByMatches();
  // Cathy (m1+m2 = 0.4), Bob, Alice, empty -> 4 groups.
  ASSERT_EQ(collapsed.size(), 4u);
  EXPECT_NEAR(collapsed[0].probability, 0.4, 1e-9);
}

// ---------------------------------------------------------------------
// max_embeddings used to truncate silently; capped answers must now be
// distinguishable from complete ones via PtqResult::truncated_embeddings.
// ---------------------------------------------------------------------

class TruncatedEmbeddingsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The target holds two X leaves, so //X has two schema embeddings —
    // enough for a max_embeddings=1 cap to bite.
    source_ = testutil::MakeSchema(
        {{-1, "O"}, {0, "P"}, {1, "PX"}, {0, "Q"}, {3, "QX"}});
    target_ = testutil::MakeSchema(
        {{-1, "ORDER"}, {0, "A"}, {1, "X"}, {0, "B"}, {3, "X"}});
    mappings_ = PossibleMappingSet(source_.get(), target_.get());
    mappings_.Add(
        testutil::MakeMapping(5, {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}}));
    mappings_.Add(
        testutil::MakeMapping(5, {{0, 0}, {1, 3}, {2, 4}, {3, 1}, {4, 2}}));
    mappings_.NormalizeProbabilities();
    DocNodeId r = doc_.AddRoot("O");
    DocNodeId p = doc_.AddChild(r, "P");
    doc_.AddChild(p, "PX", "px");
    DocNodeId q = doc_.AddChild(r, "Q");
    doc_.AddChild(q, "QX", "qx");
    doc_.Finalize();
    auto ad = AnnotatedDocument::Bind(&doc_, source_.get());
    ASSERT_TRUE(ad.ok()) << ad.status();
    annotated_ =
        std::make_unique<AnnotatedDocument>(std::move(ad).ValueOrDie());
  }

  std::shared_ptr<Schema> source_;
  std::shared_ptr<Schema> target_;
  PossibleMappingSet mappings_;
  Document doc_;
  std::unique_ptr<AnnotatedDocument> annotated_;
};

TEST_F(TruncatedEmbeddingsTest, EmbedReportsTruncation) {
  auto q = TwigQuery::Parse("//X");
  ASSERT_TRUE(q.ok());
  bool truncated = false;
  auto all = EmbedQueryInSchema(*q, *target_, 0, &truncated);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_FALSE(truncated);
  auto exact = EmbedQueryInSchema(*q, *target_, 2, &truncated);
  EXPECT_EQ(exact.size(), 2u);
  EXPECT_FALSE(truncated);  // cap equals the count: nothing was cut
  auto capped = EmbedQueryInSchema(*q, *target_, 1, &truncated);
  EXPECT_EQ(capped.size(), 1u);
  EXPECT_TRUE(truncated);
}

TEST_F(TruncatedEmbeddingsTest, FlagSurfacesThroughBothEvaluators) {
  const auto capped = MakePairFromMappings(mappings_, 0.2, 500,
                                           /*max_embeddings=*/1);
  auto basic = DrivePtq(*capped, *annotated_, "//X", 0, false);
  ASSERT_TRUE(basic.ok());
  EXPECT_TRUE(basic->truncated_embeddings);
  auto tree = DrivePtq(*capped, *annotated_, "//X", 0, true);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->truncated_embeddings);

  // Default cap: 256 embeddings.
  auto complete = DrivePtq(*MakePairFromMappings(mappings_), *annotated_,
                           "//X", 0, false);
  ASSERT_TRUE(complete.ok());
  EXPECT_FALSE(complete->truncated_embeddings);
}

// ---------------------------------------------------------------------
// The paper's correctness claim (§IV-B): query answers do not depend on
// the number of c-blocks. Verified per dataset x query on D7.
// ---------------------------------------------------------------------

struct EquivalenceCase {
  int query_index;
  double tau;
  int max_blocks;
};

class PtqEquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {
 protected:
  static void SetUpTestSuite() {
    auto dataset = LoadDataset("D7");
    ASSERT_TRUE(dataset.ok());
    dataset_ = new Dataset(std::move(dataset).ValueOrDie());
    TopHGenerator gen(TopHOptions{.h = 50});
    auto mappings = gen.Generate(dataset_->matching);
    ASSERT_TRUE(mappings.ok());
    mappings_ = new PossibleMappingSet(std::move(mappings).ValueOrDie());
    doc_ = new Document(GenerateDocument(
        *dataset_->source, DocGenOptions{.seed = 11, .target_nodes = 3473}));
    auto ad = AnnotatedDocument::Bind(doc_, dataset_->source.get());
    ASSERT_TRUE(ad.ok());
    annotated_ = new AnnotatedDocument(std::move(ad).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete annotated_;
    delete doc_;
    delete mappings_;
    delete dataset_;
    annotated_ = nullptr;
    doc_ = nullptr;
    mappings_ = nullptr;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static PossibleMappingSet* mappings_;
  static Document* doc_;
  static AnnotatedDocument* annotated_;
};

Dataset* PtqEquivalenceTest::dataset_ = nullptr;
PossibleMappingSet* PtqEquivalenceTest::mappings_ = nullptr;
Document* PtqEquivalenceTest::doc_ = nullptr;
AnnotatedDocument* PtqEquivalenceTest::annotated_ = nullptr;

TEST_P(PtqEquivalenceTest, BasicEqualsBlockTree) {
  const EquivalenceCase& c = GetParam();
  const std::string& twig =
      TableIIIQueries()[static_cast<size_t>(c.query_index)];
  const auto pair = MakePairFromMappings(*mappings_, c.tau, c.max_blocks);
  auto basic = DrivePtq(*pair, *annotated_, twig, 0, false);
  auto tree = DrivePtq(*pair, *annotated_, twig, 0, true);
  ASSERT_TRUE(basic.ok());
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(basic->answers.size(), tree->answers.size());
  for (size_t i = 0; i < basic->answers.size(); ++i) {
    EXPECT_EQ(basic->answers[i].mapping, tree->answers[i].mapping);
    EXPECT_EQ(basic->answers[i].matches, tree->answers[i].matches)
        << "query Q" << c.query_index + 1 << " mapping "
        << basic->answers[i].mapping;
  }
  // And both equal the naive Definition-4 evaluator.
  auto q = TwigQuery::Parse(twig);
  ASSERT_TRUE(q.ok()) << q.status();
  testutil::ExpectSamePtq(*tree, oracle::NaivePtq(*mappings_, *annotated_, *q),
                          "Q" + std::to_string(c.query_index + 1));
}

std::vector<EquivalenceCase> MakeEquivalenceCases() {
  std::vector<EquivalenceCase> cases;
  for (int qi = 0; qi < 10; ++qi) {
    cases.push_back({qi, 0.2, 500});
  }
  // Fewer blocks must not change answers (paper: "query correctness will
  // not be affected by using fewer c-blocks").
  cases.push_back({3, 0.2, 5});
  cases.push_back({6, 0.5, 500});
  cases.push_back({9, 0.05, 500});
  cases.push_back({9, 0.9, 2});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(QueriesAndConfigs, PtqEquivalenceTest,
                         ::testing::ValuesIn(MakeEquivalenceCases()));

}  // namespace
}  // namespace uxm
