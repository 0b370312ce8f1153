// Sharded corpus serving unit tests: the stable name-hash assignment
// corpus runs slice by, and the facade's sharded scatter-gather path
// (shard reports, shard accessors, per-shard snapshot export guards).
// The corpus itself is one DocumentStore (its semantics are pinned in
// corpus_test.cc); the per-shard snapshot partition, removals included,
// is pinned in snapshot_test.cc. The exactness sweep across shard counts
// lives in sharded_differential_test.cc; the mutation/query race lives
// in shard_stress_test.cc.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "core/system.h"
#include "corpus/corpus_executor.h"
#include "workload/corpus_generator.h"

namespace uxm {
namespace {

// ---------------------------------------------------------- assignment

TEST(ShardAssignmentTest, IsAStableFunctionOfTheName) {
  // The routing contract: FNV-1a-64 of the name, modulo the shard count.
  // Pinning the formula (not just determinism) is what makes per-shard
  // snapshots a replica-bootstrap path — any process, any build, any
  // session routes the same name to the same shard.
  for (const std::string name : {"doc-00", "a", "", "zz-other"}) {
    for (const size_t shards : {2u, 4u, 7u, 8u}) {
      EXPECT_EQ(ShardForDocument(name, shards),
                Fnv1a64(name.data(), name.size()) % shards)
          << name << " over " << shards;
      EXPECT_LT(ShardForDocument(name, shards), shards);
    }
    // Degenerate counts collapse to the one shard.
    EXPECT_EQ(ShardForDocument(name, 1), 0u);
    EXPECT_EQ(ShardForDocument(name, 0), 0u);
  }
}

TEST(ShardAssignmentTest, DefaultShardCountIsBoundedAndPositive) {
  const int count = DefaultShardCount();
  EXPECT_GE(count, 1);
  EXPECT_LE(count, 8);
}

// -------------------------------------------------------------- facade

class ShardedFacadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SinglePairCorpusOptions gen;
    gen.hot_documents = 2;
    gen.cold_documents = 9;
    gen.doc_target_nodes = 80;
    auto scenario = MakeSinglePairCorpusScenario(gen);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    scenario_ = std::make_unique<SinglePairCorpusScenario>(
        std::move(scenario).ValueOrDie());
  }

  std::unique_ptr<UncertainMatchingSystem> MakeSystem(int corpus_shards) {
    SystemOptions opts;
    opts.top_h.h = 16;
    opts.corpus_shards = corpus_shards;
    auto sys = std::make_unique<UncertainMatchingSystem>(opts);
    EXPECT_TRUE(sys->PrepareFromMatching(scenario_->matching).ok());
    for (size_t i = 0; i < scenario_->documents.size(); ++i) {
      EXPECT_TRUE(sys->AddDocument(scenario_->names[i],
                                   scenario_->documents[i].get())
                      .ok());
    }
    return sys;
  }

  std::unique_ptr<SinglePairCorpusScenario> scenario_;
};

TEST_F(ShardedFacadeTest, ExposesDeterministicShardLayout) {
  auto sys = MakeSystem(3);
  EXPECT_EQ(sys->corpus_shard_count(), 3u);
  for (const std::string& name : scenario_->names) {
    EXPECT_EQ(sys->CorpusShardOf(name), ShardForDocument(name, 3));
  }
  // <= 0 selects the default count.
  UncertainMatchingSystem auto_sharded((SystemOptions()));
  EXPECT_EQ(auto_sharded.corpus_shard_count(),
            static_cast<size_t>(DefaultShardCount()));
}

TEST_F(ShardedFacadeTest, ShardedBatchReportsPerShardAndSumsToGlobal) {
  auto sys = MakeSystem(4);
  const std::vector<std::string> twigs = {scenario_->probe_twig,
                                          scenario_->deep_probe_twig};
  BatchRunOptions run;
  run.num_threads = 2;
  CorpusQueryOptions options;
  options.top_k = 3;
  auto got = sys->RunCorpusBatch(twigs, options, run);
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->shard_reports.size(), 4u);
  CorpusRunReport sum;
  int populated = 0;
  for (const CorpusRunReport& shard : got->shard_reports) {
    // The per-scheduler disposition invariant holds for every shard.
    EXPECT_EQ(shard.items_total, shard.items_evaluated + shard.items_pruned +
                                     shard.items_aborted +
                                     shard.items_failed);
    EXPECT_LE(shard.items_aborted_in_kernel, shard.items_aborted);
    populated += shard.items_total > 0 ? 1 : 0;
    sum.items_total += shard.items_total;
    sum.items_evaluated += shard.items_evaluated;
    sum.items_pruned += shard.items_pruned;
    sum.items_aborted += shard.items_aborted;
    sum.items_aborted_in_kernel += shard.items_aborted_in_kernel;
    sum.items_failed += shard.items_failed;
    sum.dispatches += shard.dispatches;
    sum.items_deadline_skipped += shard.items_deadline_skipped;
    sum.elapsed_ns += shard.elapsed_ns;
  }
  EXPECT_GT(populated, 1);  // 11 names over 4 shards: several non-empty
  EXPECT_EQ(got->corpus.items_total, sum.items_total);
  EXPECT_EQ(got->corpus.items_evaluated, sum.items_evaluated);
  EXPECT_EQ(got->corpus.items_pruned, sum.items_pruned);
  EXPECT_EQ(got->corpus.items_aborted, sum.items_aborted);
  EXPECT_EQ(got->corpus.items_aborted_in_kernel, sum.items_aborted_in_kernel);
  EXPECT_EQ(got->corpus.items_failed, sum.items_failed);
  EXPECT_EQ(got->corpus.dispatches, sum.dispatches);
  EXPECT_EQ(got->corpus.items_deadline_skipped, sum.items_deadline_skipped);
  // elapsed_ns aggregates as total scheduler-nanoseconds across shards.
  EXPECT_EQ(got->corpus.elapsed_ns, sum.elapsed_ns);
  EXPECT_GT(got->corpus.elapsed_ns, 0);
  EXPECT_EQ(got->corpus.items_total,
            static_cast<int>(twigs.size() * scenario_->names.size()));

  // The single-scheduler path leaves shard_reports empty.
  auto unsharded = MakeSystem(1);
  auto single = unsharded->RunCorpusBatch(twigs, options, run);
  ASSERT_TRUE(single.ok()) << single.status();
  EXPECT_TRUE(single->shard_reports.empty());
}

TEST_F(ShardedFacadeTest, ShardSnapshotExportValidatesTheShardIndex) {
  auto sys = MakeSystem(2);
  EXPECT_TRUE(
      sys->SaveShardSnapshot(2, "/nonexistent/dir/s.uxm").IsInvalidArgument());
  EXPECT_TRUE(
      sys->SaveShardSnapshot(7, "/nonexistent/dir/s.uxm").IsInvalidArgument());
}

}  // namespace
}  // namespace uxm
