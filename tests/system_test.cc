// End-to-end facade tests plus AnnotatedDocument binding.
#include "core/system.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/document_generator.h"

namespace uxm {
namespace {

TEST(AnnotatedDocumentTest, BindsPaperExample) {
  const auto ex = testutil::MakePaperExample();
  auto ad = AnnotatedDocument::Bind(ex.doc.get(), ex.source.get());
  ASSERT_TRUE(ad.ok()) << ad.status();
  EXPECT_EQ(ad->UnboundCount(), 0);
  EXPECT_EQ(ad->ElementOf(0), ex.s_order);
  EXPECT_EQ(ad->InstancesOf(ex.s_bcn).size(), 1u);
  EXPECT_EQ(ex.doc->text(ad->InstancesOf(ex.s_bcn)[0]), "Cathy");
}

TEST(AnnotatedDocumentTest, RejectsMismatchedRoot) {
  const auto ex = testutil::MakePaperExample();
  EXPECT_FALSE(AnnotatedDocument::Bind(ex.doc.get(), ex.target.get()).ok());
  EXPECT_FALSE(AnnotatedDocument::Bind(nullptr, ex.source.get()).ok());
}

TEST(AnnotatedDocumentTest, UnknownLabelsStayUnbound) {
  const auto ex = testutil::MakePaperExample();
  Document doc;
  const auto r = doc.AddRoot("Order");
  doc.AddChild(r, "NotInSchema");
  doc.Finalize();
  auto ad = AnnotatedDocument::Bind(&doc, ex.source.get());
  ASSERT_TRUE(ad.ok());
  EXPECT_EQ(ad->UnboundCount(), 1);
}

class SystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = LoadDataset("D7");
    ASSERT_TRUE(d.ok());
    dataset_ = std::make_unique<Dataset>(std::move(d).ValueOrDie());
    doc_ = std::make_unique<Document>(GenerateDocument(
        *dataset_->source, DocGenOptions{.seed = 42, .target_nodes = 3473}));
  }
  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<Document> doc_;
};

TEST_F(SystemTest, FullPipeline) {
  SystemOptions opts;
  opts.top_h.h = 50;
  UncertainMatchingSystem sys(opts);
  ASSERT_TRUE(sys.Prepare(dataset_->source.get(), dataset_->target.get()).ok());
  EXPECT_TRUE(sys.prepared());
  // Snapshot accessor: the pair handle is immutable and survives any
  // later Prepare (the old by-reference accessors did not).
  auto pair = sys.prepared_pair();
  ASSERT_NE(pair, nullptr);
  EXPECT_EQ(pair->flat->mappings.num_mappings, 50u);
  EXPECT_GT(pair->flat->tree.num_blocks(), 0u);
  EXPECT_EQ(sys.prepared_pair(dataset_->source.get(), dataset_->target.get()),
            pair);
  EXPECT_EQ(sys.pair_count(), 1u);
  ASSERT_TRUE(sys.AttachDocument(doc_.get()).ok());

  auto r = sys.Query("Order/DeliverTo/Contact/EMail");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->answers.empty());
  double total = 0;
  for (const auto& a : r->answers) total += a.probability;
  EXPECT_LE(total, 1.0 + 1e-9);

  auto basic = sys.QueryBasic("Order/DeliverTo/Contact/EMail");
  ASSERT_TRUE(basic.ok());
  ASSERT_EQ(basic->answers.size(), r->answers.size());
  for (size_t i = 0; i < r->answers.size(); ++i) {
    EXPECT_EQ(basic->answers[i].matches, r->answers[i].matches);
  }
}

TEST_F(SystemTest, TopKQuery) {
  SystemOptions opts;
  opts.top_h.h = 50;
  UncertainMatchingSystem sys(opts);
  ASSERT_TRUE(sys.Prepare(dataset_->source.get(), dataset_->target.get()).ok());
  ASSERT_TRUE(sys.AttachDocument(doc_.get()).ok());
  auto r = sys.QueryTopK("Order/POLine[./LineNo]//UnitPrice", 5);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_LE(r->answers.size(), 5u);
  EXPECT_FALSE(sys.QueryTopK("Order//UnitPrice", 0).ok());
}

TEST_F(SystemTest, PrepareFromExternalMatching) {
  UncertainMatchingSystem sys;
  SchemaMatching copy = dataset_->matching;
  ASSERT_TRUE(sys.PrepareFromMatching(std::move(copy)).ok());
  EXPECT_TRUE(sys.prepared());
}

TEST_F(SystemTest, UsageErrors) {
  UncertainMatchingSystem sys;
  EXPECT_FALSE(sys.AttachDocument(doc_.get()).ok());  // before Prepare
  EXPECT_FALSE(sys.Query("//X").ok());                // no document
  EXPECT_FALSE(sys.Prepare(nullptr, nullptr).ok());
  SchemaMatching empty;
  EXPECT_FALSE(sys.PrepareFromMatching(std::move(empty)).ok());

  SystemOptions opts;
  opts.top_h.h = 10;
  UncertainMatchingSystem sys2(opts);
  ASSERT_TRUE(
      sys2.Prepare(dataset_->source.get(), dataset_->target.get()).ok());
  ASSERT_TRUE(sys2.AttachDocument(doc_.get()).ok());
  EXPECT_FALSE(sys2.Query("not a [ valid query").ok());
}

}  // namespace
}  // namespace uxm
