// Cross-module end-to-end properties that no single-module suite covers:
// XML round-trips feeding PTQ, outline round-trips of the generated
// standards, and determinism of the whole pipeline.
#include <gtest/gtest.h>

#include "core/uxm.h"
#include "tests/test_util.h"

namespace uxm {
namespace {

TEST(EndToEndTest, XmlRoundTripPreservesPtqAnswers) {
  // Serialize the generated document to XML, parse it back, and verify a
  // PTQ returns identical answers on both copies.
  auto dataset = LoadDataset("D7");
  ASSERT_TRUE(dataset.ok());
  TopHOptions th;
  th.h = 30;
  TopHGenerator gen(th);
  auto mappings = gen.Generate(dataset->matching);
  ASSERT_TRUE(mappings.ok());

  const Document original = GenerateDocument(
      *dataset->source, DocGenOptions{.seed = 5, .target_nodes = 2000});
  const std::string xml = WriteXml(original);
  auto reparsed = ParseXml(xml);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  ASSERT_EQ(original.size(), reparsed->size());

  auto ad1 = AnnotatedDocument::Bind(&original, dataset->source.get());
  auto ad2 = AnnotatedDocument::Bind(&*reparsed, dataset->source.get());
  ASSERT_TRUE(ad1.ok());
  ASSERT_TRUE(ad2.ok());

  const auto pair = testutil::MakePairFromMappings(*mappings);
  const std::string& twig = TableIIIQueries()[4];
  auto r1 = testutil::DrivePtq(*pair, *ad1, twig, 0, /*use_block_tree=*/false);
  auto r2 = testutil::DrivePtq(*pair, *ad2, twig, 0, /*use_block_tree=*/false);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r1->answers.size(), r2->answers.size());
  // Node ids follow creation order, which differs between the generator
  // and the parser; region starts depend only on document structure and
  // so identify the same nodes in both copies.
  auto starts = [](const Document& d, const std::vector<DocNodeId>& ids) {
    std::vector<int32_t> out;
    for (DocNodeId n : ids) out.push_back(d.node(n).start);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (size_t i = 0; i < r1->answers.size(); ++i) {
    EXPECT_EQ(r1->answers[i].mapping, r2->answers[i].mapping);
    EXPECT_EQ(starts(original, r1->answers[i].matches),
              starts(*reparsed, r2->answers[i].matches));
  }
}

TEST(EndToEndTest, StandardSchemasSurviveOutlineRoundTrip) {
  for (StandardId id :
       {StandardId::kExcel, StandardId::kNoris, StandardId::kParagon,
        StandardId::kApertum, StandardId::kOpenTrans, StandardId::kXcbl,
        StandardId::kCidx}) {
    auto schema = GetStandardSchema(id);
    const std::string outline = WriteSchemaOutline(*schema);
    auto reparsed = ParseSchemaOutline(outline);
    ASSERT_TRUE(reparsed.ok()) << StandardName(id) << ": "
                               << reparsed.status();
    ASSERT_EQ(reparsed->size(), schema->size()) << StandardName(id);
    for (SchemaNodeId i = 0; i < schema->size(); ++i) {
      EXPECT_EQ(reparsed->name(i), schema->name(i));
      EXPECT_EQ(reparsed->node(i).parent, schema->node(i).parent);
      EXPECT_EQ(reparsed->node(i).repeatable, schema->node(i).repeatable);
      EXPECT_EQ(reparsed->node(i).optional, schema->node(i).optional);
    }
  }
}

TEST(EndToEndTest, PipelineIsDeterministic) {
  auto run = [] {
    SystemOptions opts;
    opts.top_h.h = 40;
    UncertainMatchingSystem sys(opts);
    auto source = GetStandardSchema(StandardId::kOpenTrans);
    auto target = GetStandardSchema(StandardId::kApertum);
    EXPECT_TRUE(sys.Prepare(source.get(), target.get()).ok());
    auto pair = sys.prepared_pair();
    EXPECT_NE(pair, nullptr);
    // The pair's flat index: every mapping row, its probability, and the
    // block count.
    const FlatMappingTable& mappings = pair->flat->mappings;
    std::string fingerprint;
    for (MappingId i = 0; i < static_cast<MappingId>(mappings.num_mappings);
         ++i) {
      for (uint32_t t = 0; t < mappings.num_targets; ++t) {
        fingerprint += std::to_string(mappings.Row(i)[t]) + ",";
      }
      fingerprint +=
          FormatDouble(mappings.probability[static_cast<size_t>(i)], 9);
    }
    fingerprint += std::to_string(pair->flat->tree.num_blocks());
    return fingerprint;
  };
  EXPECT_EQ(run(), run());
}

TEST(EndToEndTest, TopKPtqIsPrefixOfFullPtqByProbability) {
  // §IV-C correctness on a real dataset: for every k, the top-k answer
  // set is exactly the k most probable relevant mappings of the full PTQ
  // (ties broken arbitrarily, so compare probability multisets).
  auto dataset = LoadDataset("D6");
  ASSERT_TRUE(dataset.ok());
  TopHOptions th;
  th.h = 40;
  TopHGenerator gen(th);
  auto mappings = gen.Generate(dataset->matching);
  ASSERT_TRUE(mappings.ok());
  Document doc = GenerateDocument(*dataset->source,
                                  DocGenOptions{.seed = 3, .target_nodes = 1500});
  auto ad = AnnotatedDocument::Bind(&doc, dataset->source.get());
  ASSERT_TRUE(ad.ok());
  const auto pair = testutil::MakePairFromMappings(*mappings);

  const std::string twig = "ORDER//CONTACT_NAME";
  auto full = testutil::DrivePtq(*pair, *ad, twig);
  ASSERT_TRUE(full.ok());
  std::vector<double> probs;
  for (const auto& a : full->answers) probs.push_back(a.probability);
  std::sort(probs.begin(), probs.end(), std::greater<>());

  for (int k : {1, 3, 7, 1000}) {
    auto topk = testutil::DrivePtq(*pair, *ad, twig, k);
    ASSERT_TRUE(topk.ok());
    const size_t expect =
        std::min<size_t>(probs.size(), static_cast<size_t>(k));
    ASSERT_EQ(topk->answers.size(), expect) << "k=" << k;
    std::vector<double> got;
    for (const auto& a : topk->answers) got.push_back(a.probability);
    std::sort(got.begin(), got.end(), std::greater<>());
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_NEAR(got[i], probs[i], 1e-12) << "k=" << k << " i=" << i;
    }
  }
}

TEST(EndToEndTest, BlockTreeCountMonotoneInSupportOnDatasets) {
  // Support threshold up => never more blocks (with an uncapped budget).
  auto dataset = LoadDataset("D8");
  ASSERT_TRUE(dataset.ok());
  TopHOptions th;
  th.h = 50;
  TopHGenerator gen(th);
  auto mappings = gen.Generate(dataset->matching);
  ASSERT_TRUE(mappings.ok());
  int prev = INT32_MAX;
  for (double tau : {0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    BlockTreeBuilder builder(BlockTreeOptions{tau, 1000000, 1000000});
    auto built = builder.Build(*mappings);
    ASSERT_TRUE(built.ok());
    EXPECT_LE(built->tree.TotalBlocks(), prev) << "tau=" << tau;
    prev = built->tree.TotalBlocks();
  }
}

}  // namespace
}  // namespace uxm
