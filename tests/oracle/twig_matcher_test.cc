// Twig matcher tests: tuple enumeration, projected semantics, axis
// strictness, value predicates, and a brute-force cross-check.
#include "tests/oracle/twig_matcher.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace uxm {
namespace {

/// Source schema R { A { B, C { B } } } and a document with repetition.
class TwigMatcherFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = std::make_shared<Schema>();
    r_ = schema_->AddRoot("R");
    a_ = schema_->AddChild(r_, "A");
    b_ = schema_->AddChild(a_, "B");
    c_ = schema_->AddChild(a_, "C");
    cb_ = schema_->AddChild(c_, "B");
    schema_->Finalize();

    doc_ = std::make_shared<Document>();
    const auto root = doc_->AddRoot("R");
    const auto a1 = doc_->AddChild(root, "A");
    doc_->AddChild(a1, "B", "b1");
    const auto c1 = doc_->AddChild(a1, "C");
    doc_->AddChild(c1, "B", "deep1");
    const auto a2 = doc_->AddChild(root, "A");
    doc_->AddChild(a2, "B", "b2");
    doc_->Finalize();

    auto ad = AnnotatedDocument::Bind(doc_.get(), schema_.get());
    ASSERT_TRUE(ad.ok()) << ad.status();
    annotated_ = std::make_unique<AnnotatedDocument>(std::move(ad).ValueOrDie());
  }

  /// Binds query node i -> schema element, by label convention:
  /// R->r, A->a, B->b (direct child), C->c; "B!" binds the deep B.
  std::vector<SchemaNodeId> Bind(const TwigQuery& q) {
    std::vector<SchemaNodeId> binding(static_cast<size_t>(q.size()),
                                      kInvalidSchemaNode);
    for (int i = 0; i < q.size(); ++i) {
      const std::string& l = q.node(i).label;
      if (l == "R") binding[static_cast<size_t>(i)] = r_;
      if (l == "A") binding[static_cast<size_t>(i)] = a_;
      if (l == "B") binding[static_cast<size_t>(i)] = b_;
      if (l == "C") binding[static_cast<size_t>(i)] = c_;
      if (l == "DeepB") binding[static_cast<size_t>(i)] = cb_;
    }
    return binding;
  }

  std::shared_ptr<Schema> schema_;
  std::shared_ptr<Document> doc_;
  std::unique_ptr<AnnotatedDocument> annotated_;
  SchemaNodeId r_, a_, b_, c_, cb_;
};

TEST_F(TwigMatcherFixture, CandidatesRespectElementBinding) {
  TwigMatcher matcher(annotated_.get());
  auto q = TwigQuery::Parse("//B");
  ASSERT_TRUE(q.ok());
  // Element b (direct child of A): two instances; deep B: one.
  EXPECT_EQ(matcher.Candidates(*q, 0, b_).size(), 2u);
  EXPECT_EQ(matcher.Candidates(*q, 0, cb_).size(), 1u);
  EXPECT_TRUE(matcher.Candidates(*q, 0, kInvalidSchemaNode).empty());
}

TEST_F(TwigMatcherFixture, CandidatesApplyValuePredicate) {
  TwigMatcher matcher(annotated_.get());
  auto q = TwigQuery::Parse("//B=\"b2\"");
  ASSERT_TRUE(q.ok());
  const auto cands = matcher.Candidates(*q, 0, b_);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(annotated_->doc().text(cands[0]), "b2");
}

TEST_F(TwigMatcherFixture, TupleEnumerationStrictAxis) {
  TwigMatchOptions opts;
  opts.relax_child_axis = false;
  TwigMatcher matcher(annotated_.get(), opts);
  auto q = TwigQuery::Parse("R/A/B");
  ASSERT_TRUE(q.ok());
  const auto matches = matcher.Match(*q, Bind(*q));
  // Two (R, A, B) parent-child chains.
  EXPECT_EQ(matches.size(), 2u);
}

TEST_F(TwigMatcherFixture, RelaxedAxisAllowsDeeperNesting) {
  // R/B with strict axis: none (B is never a direct child of R);
  // relaxed: B instances under R.
  auto q = TwigQuery::Parse("R/B");
  ASSERT_TRUE(q.ok());
  {
    TwigMatchOptions strict;
    strict.relax_child_axis = false;
    EXPECT_TRUE(TwigMatcher(annotated_.get(), strict)
                    .Match(*q, Bind(*q))
                    .empty());
  }
  {
    TwigMatchOptions relaxed;  // default
    EXPECT_EQ(TwigMatcher(annotated_.get(), relaxed)
                  .Match(*q, Bind(*q))
                  .size(),
              2u);
  }
}

TEST_F(TwigMatcherFixture, BranchPredicateConstrains) {
  TwigMatchOptions opts;
  opts.relax_child_axis = false;
  TwigMatcher matcher(annotated_.get(), opts);
  // A[./C]/B: only a1 has a C child -> only b1 matches.
  auto q = TwigQuery::Parse("//A[./C]/B");
  ASSERT_TRUE(q.ok());
  const auto matches = matcher.Match(*q, Bind(*q));
  ASSERT_EQ(matches.size(), 1u);
  const DocNodeId b = matches[0][static_cast<size_t>(q->output_node())];
  EXPECT_EQ(annotated_->doc().text(b), "b1");
}

TEST_F(TwigMatcherFixture, ProjectedAgreesWithTupleProjection) {
  TwigMatchOptions opts;
  opts.relax_child_axis = false;
  TwigMatcher matcher(annotated_.get(), opts);
  for (const char* text :
       {"R/A/B", "//A[./C]/B", "//A//B", "R//B", "//C/B", "//A[./B]/C"}) {
    auto q = TwigQuery::Parse(text);
    ASSERT_TRUE(q.ok()) << text;
    auto binding = Bind(*q);
    // For "//A//B" both B elements could bind; test binds the shallow one.
    const auto tuples = matcher.Match(*q, binding);
    std::vector<DocNodeId> projected_from_tuples;
    for (const auto& t : tuples) {
      projected_from_tuples.push_back(
          t[static_cast<size_t>(q->output_node())]);
    }
    std::sort(projected_from_tuples.begin(), projected_from_tuples.end());
    projected_from_tuples.erase(std::unique(projected_from_tuples.begin(),
                                            projected_from_tuples.end()),
                                projected_from_tuples.end());

    const auto pm = matcher.MatchProjected(*q, binding);
    ASSERT_TRUE(pm.has_output) << text;
    std::vector<DocNodeId> projected;
    for (const auto& [root, o] : pm.outputs) projected.push_back(o);
    std::sort(projected.begin(), projected.end());
    projected.erase(std::unique(projected.begin(), projected.end()),
                    projected.end());
    EXPECT_EQ(projected, projected_from_tuples) << text;
  }
}

TEST_F(TwigMatcherFixture, ProjectedSubqueryWithoutOutputHasRootsOnly) {
  TwigMatcher matcher(annotated_.get());
  auto q = TwigQuery::Parse("R/A[./C]/B");
  ASSERT_TRUE(q.ok());
  auto binding = Bind(*q);
  // Evaluate the C-branch subquery: it does not contain the output (B).
  int c_node = -1;
  for (int i = 0; i < q->size(); ++i) {
    if (q->node(i).label == "C") c_node = i;
  }
  ASSERT_GE(c_node, 0);
  const auto pm = matcher.MatchProjected(*q, binding, c_node);
  EXPECT_FALSE(pm.has_output);
  EXPECT_EQ(pm.roots.size(), 1u);
}

TEST_F(TwigMatcherFixture, MaxMatchesCapsTupleEnumeration) {
  TwigMatchOptions opts;
  opts.max_matches = 1;
  TwigMatcher matcher(annotated_.get(), opts);
  auto q = TwigQuery::Parse("//A//B");
  ASSERT_TRUE(q.ok());
  EXPECT_LE(matcher.Match(*q, Bind(*q)).size(), 1u);
}

}  // namespace
}  // namespace uxm
