// Tie-aware exact pruning: on a corpus where every document shares one
// best-answer mass (clones of one D7 document, queried with the paper's
// Table III twigs), realized bounds TIE the k-th answer instead of
// falling below it. The scheduler must still halt — an exact bound equal
// to the k-th probability from a document sorting after the k-th
// answer's cannot enter the top-k — and the answers must stay
// bit-identical to the exhaustive fan-out at every k and shard count.
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "corpus/corpus_executor.h"
#include "workload/corpus_generator.h"
#include "workload/datasets.h"

namespace uxm {
namespace {

constexpr int kDocuments = 24;

class TiePruneTest : public ::testing::Test {
 protected:
  // The scenario (D7's matcher run included) is built once per suite.
  static void SetUpTestSuite() {
    CorpusGenOptions gen;
    gen.num_documents = kDocuments;
    gen.min_target_nodes = 150;
    gen.max_target_nodes = 200;
    gen.clone_probability = 1.0;  // every document a clone: all ties
    auto scenario = MakeCorpusScenario("D7", gen);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    scenario_ = new CorpusScenario(std::move(scenario).ValueOrDie());
  }

  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }

  void SetUp() override { ASSERT_NE(scenario_, nullptr); }

  std::unique_ptr<UncertainMatchingSystem> MakeSystem(int shards) {
    SystemOptions opts;
    opts.top_h.h = 25;
    // Every bounded run evaluates for real, so a realized bound is only
    // exact if evaluation itself is deterministic.
    opts.cache.enable_result_cache = false;
    opts.corpus_shards = shards;
    auto sys = std::make_unique<UncertainMatchingSystem>(opts);
    EXPECT_EQ(sys->corpus_shard_count(), static_cast<size_t>(shards));
    EXPECT_TRUE(sys->PrepareFromMatching(scenario_->dataset.matching).ok());
    for (size_t i = 0; i < scenario_->documents.size(); ++i) {
      EXPECT_TRUE(sys->AddDocument(scenario_->names[i],
                                   scenario_->documents[i].get())
                      .ok());
    }
    return sys;
  }

  static BatchRunOptions OneThread() {
    BatchRunOptions run;
    run.num_threads = 1;  // with one shard: sequential => exact accounting
    return run;
  }

  static CorpusScenario* scenario_;
};

CorpusScenario* TiePruneTest::scenario_ = nullptr;

void ExpectItemInvariant(const CorpusRunReport& r) {
  EXPECT_EQ(r.items_total, r.items_evaluated + r.items_pruned +
                               r.items_aborted + r.items_failed);
}

/// Exact, not DOUBLE_EQ: pruning must not change a single bit.
void ExpectBitIdenticalAnswers(const std::vector<CorpusAnswer>& got,
                               const std::vector<CorpusAnswer>& want,
                               const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].document, want[i].document) << where << " #" << i;
    EXPECT_EQ(got[i].probability, want[i].probability) << where << " #" << i;
    EXPECT_EQ(got[i].matches, want[i].matches) << where << " #" << i;
  }
}

// Cold (probe bounds, inexact) and warm (realized bounds, exact) bounded
// batches over all ten Table III twigs equal the exhaustive batch bit for
// bit, for k in {1, 3, 10} and 1, 2 or 4 shards. The tied top-k
// documents straddle shards, so the shared tracker's k-th answer is set
// by one shard while another shard's tied items test against it.
TEST_F(TiePruneTest, AllTieCorpusMatchesExhaustiveAtEveryKAndShardCount) {
  const std::vector<std::string>& twigs = TableIIIQueries();
  for (const int shards : {1, 2, 4}) {
    auto sys = MakeSystem(shards);
    for (const int k : {1, 3, 10}) {
      const std::string where =
          "S=" + std::to_string(shards) + " k=" + std::to_string(k);
      CorpusQueryOptions exhaustive;
      exhaustive.top_k = k;
      exhaustive.bounded = false;
      auto want = sys->RunCorpusBatch(twigs, exhaustive, OneThread());
      ASSERT_TRUE(want.ok()) << want.status();
      CorpusQueryOptions bounded;
      bounded.top_k = k;
      int warm_pruned = 0;
      std::set<size_t> answer_shards;
      for (const char* phase : {"cold", "warm"}) {
        auto got = sys->RunCorpusBatch(twigs, bounded, OneThread());
        ASSERT_TRUE(got.ok()) << got.status();
        ExpectItemInvariant(got->corpus);
        EXPECT_TRUE(got->exact);
        ASSERT_EQ(got->answers.size(), twigs.size());
        for (size_t t = 0; t < twigs.size(); ++t) {
          ASSERT_EQ(got->answers[t].ok(), want->answers[t].ok())
              << where << " " << twigs[t];
          if (!want->answers[t].ok()) continue;
          ExpectBitIdenticalAnswers(got->answers[t]->answers,
                                    want->answers[t]->answers,
                                    where + " " + phase + " " + twigs[t]);
          for (const CorpusAnswer& a : want->answers[t]->answers) {
            answer_shards.insert(sys->CorpusShardOf(a.document));
          }
        }
        if (std::string(phase) == "warm") {
          warm_pruned = got->corpus.items_pruned;
        }
      }
      // Warm bounds are exact, so the ties prune (answers included above).
      EXPECT_GT(warm_pruned, 0) << where;
      if (shards > 1 && k >= 3) {
        EXPECT_GT(answer_shards.size(), 1u)
            << where << ": the tied top-k should straddle shards";
      }
    }
  }
}

// With one shard and one worker the accounting is exact. A cold run has
// only probe bounds, which tie the k-th answer and so cannot prune; it
// records every evaluated item's realized bound. The warm run then
// halts: at most two waves (8 items each) evaluate before the tracker's
// k-th answer ties every remaining exact bound from a later-sorting
// document, and everything else is pruned undispatched.
TEST_F(TiePruneTest, WarmExactBoundsHaltWithinTwoWaves) {
  auto sys = MakeSystem(/*shards=*/1);
  CorpusQueryOptions bounded;
  bounded.top_k = 10;
  int halted = 0;
  for (const std::string& twig : TableIIIQueries()) {
    auto cold = sys->RunCorpusBatch({twig}, bounded, OneThread());
    ASSERT_TRUE(cold.ok()) << cold.status();
    ASSERT_TRUE(cold->answers[0].ok()) << twig;
    if (cold->answers[0]->answers.size() < 10u) continue;  // never fills
    auto warm = sys->RunCorpusBatch({twig}, bounded, OneThread());
    ASSERT_TRUE(warm.ok()) << warm.status();
    ASSERT_TRUE(warm->answers[0].ok()) << twig;
    const CorpusRunReport& r = warm->corpus;
    ExpectItemInvariant(r);
    EXPECT_EQ(r.items_total, kDocuments) << twig;
    EXPECT_LE(r.dispatches, 2) << twig;
    EXPECT_LE(r.items_evaluated, 16) << twig;
    EXPECT_EQ(r.items_pruned, kDocuments - r.items_evaluated) << twig;
    EXPECT_EQ(r.items_aborted, 0) << twig;
    EXPECT_EQ(r.items_failed, 0) << twig;
    ExpectBitIdenticalAnswers(warm->answers[0]->answers,
                              cold->answers[0]->answers, twig);
    ++halted;
  }
  EXPECT_GT(halted, 0) << "no Table III twig filled a top-10";
}

// Anytime serving: a budget that expires after the tracker has filled,
// leaving only tie-prunable items behind, loses nothing. The items the
// budget cancelled in flight and the ones it never dispatched are all
// provably outside the top-k, so they are exact aborts/prunes: the
// result is exact with a zero residual.
TEST_F(TiePruneTest, BudgetExpiringOverTiePrunableLeftoversStaysExact) {
  auto sys = MakeSystem(/*shards=*/1);
  CorpusQueryOptions bounded;
  bounded.top_k = 1;
  const std::vector<std::string>& twigs = TableIIIQueries();
  std::string twig;
  for (const std::string& t : twigs) {
    auto cold = sys->RunCorpusBatch({t}, bounded, OneThread());
    ASSERT_TRUE(cold.ok()) << cold.status();
    ASSERT_TRUE(cold->answers[0].ok()) << t;
    if (!cold->answers[0]->answers.empty()) {
      twig = t;
      break;
    }
  }
  ASSERT_FALSE(twig.empty()) << "no Table III twig answers on the corpus";
  auto exact = sys->RunCorpusBatch({twig}, bounded, OneThread());
  ASSERT_TRUE(exact.ok()) << exact.status();
  ASSERT_TRUE(exact->answers[0].ok());

  // Four evaluations: the first document alone fills the top-1, and the
  // budget runs out inside the first wave of eight.
  CorpusQueryOptions budgeted = bounded;
  budgeted.max_evaluations = 4;
  auto got = sys->RunCorpusBatch({twig}, budgeted, OneThread());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_TRUE(got->answers[0].ok());
  const CorpusRunReport& r = got->corpus;
  ExpectItemInvariant(r);
  EXPECT_EQ(r.items_evaluated, 4);
  EXPECT_EQ(r.items_aborted, 4) << "the rest of the first wave";
  EXPECT_EQ(r.items_pruned, kDocuments - 8);
  EXPECT_TRUE(got->exact);
  EXPECT_TRUE(got->answers[0]->exact);
  EXPECT_EQ(got->answers[0]->max_residual_bound, 0.0);
  ExpectBitIdenticalAnswers(got->answers[0]->answers,
                            exact->answers[0]->answers, twig);
}

}  // namespace
}  // namespace uxm
