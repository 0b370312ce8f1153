// Plan-layer unit tests: the MappingOrder work units and their residual
// bounds, QueryPlan's lazy relevance memo, the SchemaPairRegistry's
// identity/replacement semantics, and the ExecutionDriver protocol
// (caching, counters, early termination) outside the facade.
#include "plan/query_plan.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/result_cache.h"
#include "plan/driver.h"
#include "plan/prepared_pair.h"
#include "query/annotated_document.h"
#include "query/ptq.h"
#include "tests/oracle/naive_ptq.h"
#include "tests/test_util.h"

namespace uxm {
namespace {

using testutil::MakePaperExample;
using testutil::MakePaperPair;
using testutil::PaperExample;

PaperExample WithDescendingProbabilities() {
  PaperExample ex = MakePaperExample();
  auto* ms = ex.mappings.mutable_mappings();
  for (size_t i = 0; i < ms->size(); ++i) {
    (*ms)[i].score = static_cast<double>(ms->size() - i);
  }
  ex.mappings.NormalizeProbabilities();
  return ex;
}

// ---------------------------------------------------------------- order

TEST(MappingOrderTest, SortsByProbabilityWithStableTies) {
  PaperExample ex = MakePaperExample();
  auto* ms = ex.mappings.mutable_mappings();
  (*ms)[0].score = 1.0;
  (*ms)[1].score = 3.0;
  (*ms)[2].score = 2.0;
  (*ms)[3].score = 3.0;  // ties with id 1: stable order keeps 1 first
  (*ms)[4].score = 2.0;  // ties with id 2
  ex.mappings.NormalizeProbabilities();
  const MappingOrder order = MappingOrder::Build(ex.mappings);
  EXPECT_EQ(order.by_probability,
            (std::vector<MappingId>{1, 3, 2, 4, 0}));
  // residual_after[i] is the mass of the tail beyond unit i.
  ASSERT_EQ(order.residual_after.size(), 5u);
  EXPECT_NEAR(order.residual_after[4], 0.0, 1e-12);
  double tail = 0.0;
  for (int i = 4; i >= 0; --i) {
    EXPECT_NEAR(order.residual_after[static_cast<size_t>(i)], tail, 1e-12)
        << "unit " << i;
    tail += ex.mappings.mapping(order.by_probability[static_cast<size_t>(i)])
                .probability;
  }
  EXPECT_NEAR(tail, 1.0, 1e-12);
}

// ---------------------------------------------------------------- bound

// AnswerUpperBound(k) must be a true upper bound on the probability of
// EVERY answer an evaluation with top-k selection can enumerate — that
// soundness is what makes the corpus scheduler's pruning exact. Checked
// on the paper example with skewed probabilities, for every k, against
// both the raw per-mapping answers and the collapsed per-match-set view.
TEST(AnswerUpperBoundTest, BoundsEveryEnumeratedAnswer) {
  PaperExample ex = WithDescendingProbabilities();
  auto pair = MakePaperPair(ex);
  auto ad = AnnotatedDocument::Bind(ex.doc.get(), ex.source.get());
  ASSERT_TRUE(ad.ok());
  int bounded_answers = 0;
  for (const std::string twig :
       {"//ICN", "ORDER/IP/ICN", "//SP//SCN", "//NOPE"}) {
    auto compiled = pair->compiler->Compile(twig);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const QueryPlan& plan = **compiled;
    double previous = 0.0;
    for (int k = 0; k <= ex.mappings.size() + 1; ++k) {
      const double bound = plan.AnswerUpperBound(k);
      // Monotone in k (k = 0 is the full relevant mass, the largest),
      // and never above the whole distribution.
      EXPECT_LE(bound, plan.AnswerUpperBound(0) + kAnswerBoundSlack);
      if (k > 1) {
        EXPECT_GE(bound + kAnswerBoundSlack, previous);
      }
      if (k > 0) previous = bound;
      EXPECT_LE(bound, 1.0 + kAnswerBoundSlack);

      DriverRequest request;
      request.pair = pair.get();
      request.doc = &*ad;
      request.twig = &twig;
      request.options.top_k = k;
      auto result = ExecutionDriver::Execute(request);
      ASSERT_TRUE(result.ok()) << result.status();
      for (const MappingAnswer& a : result->answers) {
        EXPECT_LE(a.probability, bound + kAnswerBoundSlack)
            << twig << " k=" << k << " mapping " << a.mapping;
        ++bounded_answers;
      }
      for (const MappingAnswer& a : result->CollapseByMatches()) {
        EXPECT_LE(a.probability, bound + kAnswerBoundSlack)
            << twig << " k=" << k << " (collapsed)";
      }
    }
  }
  EXPECT_GT(bounded_answers, 20);  // the sweep must not be vacuous
  // A twig with no embeddings in the target can answer nothing anywhere:
  // its bound must be exactly zero (the scheduler prunes it outright).
  auto nope = pair->compiler->Compile("//NOPE");
  ASSERT_TRUE(nope.ok());
  EXPECT_EQ((*nope)->AnswerUpperBound(0), 0.0);
  EXPECT_EQ((*nope)->AnswerUpperBound(3), 0.0);
}

// ------------------------------------------------------------- registry

TEST(SchemaPairRegistryTest, KeysOnSchemaIdentityAndReplaces) {
  PaperExample ex = MakePaperExample();
  PaperExample other = MakePaperExample();  // distinct Schema objects
  auto p1 = MakePaperPair(ex);
  auto p2 = MakePaperPair(other);
  EXPECT_NE(p1->pair_id, p2->pair_id);

  SchemaPairRegistry registry;
  EXPECT_EQ(registry.Install(p1), nullptr);
  EXPECT_EQ(registry.Install(p2), nullptr);  // different schema identity
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Find(ex.source.get(), ex.target.get()), p1);
  EXPECT_EQ(registry.Find(other.source.get(), other.target.get()), p2);
  EXPECT_EQ(registry.Find(ex.source.get(), other.target.get()), nullptr);

  // Re-preparing the same schemas replaces that entry only.
  auto p1b = MakePaperPair(ex);
  EXPECT_EQ(registry.Install(p1b), p1);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Find(ex.source.get(), ex.target.get()), p1b);
  EXPECT_EQ(registry.Find(other.source.get(), other.target.get()), p2);
  const auto all = registry.All();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_TRUE((all[0] == p1b && all[1] == p2) ||
              (all[0] == p2 && all[1] == p1b));

  registry.Clear();
  EXPECT_EQ(registry.size(), 0u);
}

TEST(SchemaPairRegistryTest, RemoveUnregistersAndSweepsEmbeddings) {
  PaperExample ex = MakePaperExample();
  PaperExample other = MakePaperExample();
  SchemaPairRegistry registry;
  auto p1 = MakePreparedSchemaPairFromProducts(
      SchemaMatching(ex.source.get(), ex.target.get()), ex.mappings,
      BlockTreeBuilder({0.2, 500, 500}).Build(ex.mappings).ValueOrDie().tree,
      256,
      registry.embedding_cache());
  auto p2 = MakePreparedSchemaPairFromProducts(
      SchemaMatching(other.source.get(), other.target.get()), other.mappings,
      BlockTreeBuilder({0.2, 500, 500}).Build(other.mappings).ValueOrDie().tree,
      256, registry.embedding_cache());
  registry.Install(p1);
  registry.Install(p2);

  // Removing an unknown identity is a no-op returning null.
  EXPECT_EQ(registry.Remove(ex.source.get(), other.target.get()), nullptr);
  EXPECT_EQ(registry.size(), 2u);

  // Populate the shared embedding cache through both pairs' compilers.
  ASSERT_TRUE(p1->compiler->Compile("//ICN").ok());
  ASSERT_TRUE(p2->compiler->Compile("//ICN").ok());
  EXPECT_EQ(registry.embedding_cache()->Stats().entries, 2u);  // 2 targets

  // Removing p1 — the last (only) pair over its target — sweeps that
  // target's embeddings; p2's survive. The registry shrinks.
  EXPECT_EQ(registry.Remove(ex.source.get(), ex.target.get()), p1);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Find(ex.source.get(), ex.target.get()), nullptr);
  EXPECT_EQ(registry.embedding_cache()->Stats().entries, 1u);
  EXPECT_EQ(registry.Find(other.source.get(), other.target.get()), p2);
  // The removed pair itself stays fully usable for in-flight holders.
  EXPECT_TRUE(p1->compiler->Compile("//IP//ICN").ok());
}

// --------------------------------------------------------------- driver

class DriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = WithDescendingProbabilities();
    pair_ = MakePaperPair(ex_);
    auto ad = AnnotatedDocument::Bind(ex_.doc.get(), ex_.source.get());
    ASSERT_TRUE(ad.ok()) << ad.status();
    annotated_ = std::make_unique<AnnotatedDocument>(
        std::move(ad).ValueOrDie());
  }

  DriverRequest Request(const std::string& twig, int top_k = 0) const {
    DriverRequest request;
    request.pair = pair_.get();
    request.doc = annotated_.get();
    request.twig = &twig;
    request.options.top_k = top_k;
    return request;
  }

  PaperExample ex_;
  std::shared_ptr<const PreparedSchemaPair> pair_;
  std::unique_ptr<AnnotatedDocument> annotated_;
};

TEST_F(DriverTest, MatchesDirectEvaluation) {
  const std::string twig = "ORDER/IP/ICN";
  DriverCounters counters;
  auto driven = ExecutionDriver::Execute(Request(twig), &counters);
  ASSERT_TRUE(driven.ok()) << driven.status();
  EXPECT_FALSE(counters.compile_hit);
  EXPECT_FALSE(counters.result_hit);
  EXPECT_FALSE(counters.result_miss);  // no cache bound

  // The direct evaluation is the naive Definition-4 oracle.
  auto q = TwigQuery::Parse(twig);
  ASSERT_TRUE(q.ok());
  const PtqResult direct = oracle::NaivePtq(ex_.mappings, *annotated_, *q);
  ASSERT_EQ(driven->answers.size(), direct.answers.size());
  for (size_t i = 0; i < direct.answers.size(); ++i) {
    EXPECT_EQ(driven->answers[i].mapping, direct.answers[i].mapping);
    EXPECT_DOUBLE_EQ(driven->answers[i].probability,
                     direct.answers[i].probability);
    EXPECT_EQ(driven->answers[i].matches, direct.answers[i].matches);
  }
  // The second execution reuses the cached plan.
  auto again = ExecutionDriver::Execute(Request(twig), &counters);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(counters.compile_hit);
}

TEST_F(DriverTest, TopKTerminatesEarlyAndUsesTheCache) {
  const std::string twig = "//ICN";  // every mapping relevant
  ResultCache cache;
  DriverRequest request = Request(twig, /*top_k=*/2);
  request.cache = &cache;
  request.epoch = 3;
  DriverCounters counters;
  auto first = ExecutionDriver::Execute(request, &counters);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(counters.result_miss);
  EXPECT_EQ(counters.select.selected, 2);
  EXPECT_EQ(counters.select.scanned, 2);  // probabilities descend by id
  EXPECT_EQ(counters.select.skipped, ex_.mappings.size() - 2);
  EXPECT_GT(counters.select.residual_mass, 0.0);
  ASSERT_EQ(first->answers.size(), 2u);
  EXPECT_EQ(first->answers[0].mapping, 0);
  EXPECT_EQ(first->answers[1].mapping, 1);

  auto second = ExecutionDriver::Execute(request, &counters);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(counters.result_hit);
  EXPECT_EQ(counters.select.selected, 0);  // nothing re-selected on a hit

  // A different pair id (fresh incarnation) can never see those entries.
  auto repaired = MakePaperPair(ex_);
  DriverRequest other = request;
  other.pair = repaired.get();
  DriverCounters miss;
  auto third = ExecutionDriver::Execute(other, &miss);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(miss.result_hit);
  EXPECT_TRUE(miss.result_miss);
}

TEST_F(DriverTest, CancelsWhenThresholdExceedsBound) {
  const std::string twig = "//ICN";
  std::atomic<double> threshold{0.5};
  DriverRequest request = Request(twig, /*top_k=*/1);
  request.upper_bound = 0.2;
  request.cancel_threshold = &threshold;
  DriverCounters counters;
  auto cancelled = ExecutionDriver::Execute(request, &counters);
  EXPECT_TRUE(cancelled.status().IsCancelled());
  EXPECT_TRUE(counters.cancelled);

  // Threshold at (not above) the bound: ties may still win on the
  // deterministic tie-break, so the request must run.
  threshold.store(0.2);
  auto ran = ExecutionDriver::Execute(request, &counters);
  ASSERT_TRUE(ran.ok()) << ran.status();
  EXPECT_FALSE(counters.cancelled);

  // A cached answer is free: it is served even when the threshold would
  // cancel fresh work.
  ResultCache cache;
  request.cache = &cache;
  request.epoch = 1;
  ASSERT_TRUE(ExecutionDriver::Execute(request, &counters).ok());
  threshold.store(0.9);
  auto hit = ExecutionDriver::Execute(request, &counters);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(counters.result_hit);
  EXPECT_FALSE(counters.cancelled);
}

TEST_F(DriverTest, ValidatesItsInputs) {
  const std::string twig = "//ICN";
  DriverRequest no_pair = Request(twig);
  no_pair.pair = nullptr;
  EXPECT_FALSE(ExecutionDriver::Execute(no_pair).ok());
  DriverRequest no_doc = Request(twig);
  no_doc.doc = nullptr;
  EXPECT_FALSE(ExecutionDriver::Execute(no_doc).ok());
  DriverRequest no_twig = Request(twig);
  no_twig.twig = nullptr;
  EXPECT_FALSE(ExecutionDriver::Execute(no_twig).ok());
  const std::string bad = "ORDER//";
  EXPECT_TRUE(ExecutionDriver::Execute(Request(bad)).status().IsParseError());
}

}  // namespace
}  // namespace uxm
