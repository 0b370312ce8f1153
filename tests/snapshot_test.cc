// Snapshot subsystem tests (tier-1): the facade SaveSnapshot/LoadSnapshot
// round trip must restore a heterogeneous two-pair corpus into a FRESH
// system whose answers are bit-identical to the system that wrote the
// file, a loaded system must re-save losslessly, and the loader must turn
// malformed inputs into clean errors without touching live state. The
// adversarial corruption sweep lives in snapshot_fuzz_test.cc (slow).
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "core/system.h"
#include "snapshot/snapshot_format.h"
#include "snapshot/snapshot_loader.h"
#include "snapshot/snapshot_writer.h"
#include "test_util.h"
#include "workload/corpus_generator.h"
#include "workload/datasets.h"

namespace uxm {
namespace {

using testutil::MakePaperExample;
using testutil::PaperExample;

/// A per-test temp path under the build dir, removed on teardown.
class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string("snapshot_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".uxmsnap";
    std::remove(path_.c_str());

    CorpusGenOptions gen;
    gen.num_documents = 4;
    gen.min_target_nodes = 80;
    gen.max_target_nodes = 160;
    gen.clone_probability = 0.5;
    auto scenario = MakeCorpusScenario("D7", gen);
    ASSERT_TRUE(scenario.ok()) << scenario.status();
    scenario_ =
        std::make_unique<CorpusScenario>(std::move(scenario).ValueOrDie());
    paper_ = MakePaperExample();
  }

  void TearDown() override { std::remove(path_.c_str()); }

  static SystemOptions Options() {
    SystemOptions opts;
    opts.top_h.h = 25;
    return opts;
  }

  /// Two pairs (paper example + D7, D7 the default), the four D7
  /// documents under the default pair, and the paper document under the
  /// paper pair.
  void FillSystem(UncertainMatchingSystem* sys) const {
    ASSERT_TRUE(sys->Prepare(paper_.source.get(), paper_.target.get()).ok());
    ASSERT_TRUE(sys->Prepare(scenario_->dataset.source.get(),
                             scenario_->dataset.target.get())
                    .ok());
    for (size_t i = 0; i < scenario_->documents.size(); ++i) {
      ASSERT_TRUE(
          sys->AddDocument(scenario_->names[i], scenario_->documents[i].get())
              .ok());
    }
    ASSERT_TRUE(sys->AddDocument("paper-doc", paper_.doc.get(),
                                 paper_.source.get(), paper_.target.get())
                    .ok());
  }

  /// Bit-identical comparison: corpus answers must agree in provenance,
  /// probability BITS (plain ==, not near), and match sets.
  static void ExpectIdenticalAnswers(const CorpusQueryResult& got,
                                     const CorpusQueryResult& want) {
    ASSERT_EQ(got.answers.size(), want.answers.size());
    for (size_t i = 0; i < got.answers.size(); ++i) {
      EXPECT_EQ(got.answers[i].document, want.answers[i].document)
          << "answer " << i;
      EXPECT_EQ(got.answers[i].probability, want.answers[i].probability)
          << "answer " << i;
      EXPECT_EQ(got.answers[i].matches, want.answers[i].matches)
          << "answer " << i;
    }
  }

  std::string path_;
  std::unique_ptr<CorpusScenario> scenario_;
  PaperExample paper_;
};

TEST_F(SnapshotTest, SaveReportsStatsAndInspectValidates) {
  UncertainMatchingSystem sys(Options());
  FillSystem(&sys);

  SnapshotStats stats;
  ASSERT_TRUE(sys.SaveSnapshot(path_, &stats).ok());
  EXPECT_EQ(stats.pairs, 2u);
  EXPECT_EQ(stats.documents, 5u);
  // 1 meta + 15 per pair + 3 per document.
  EXPECT_EQ(stats.sections, 1u + 2 * 15 + 5 * 3);
  EXPECT_GT(stats.file_bytes, 0u);
  EXPECT_EQ(stats.file_bytes % kSnapshotAlignment, 0u);

  auto info = InspectSnapshot(path_);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, kSnapshotVersion);
  EXPECT_EQ(info->file_size, stats.file_bytes);
  EXPECT_TRUE(info->directory_ok);
  EXPECT_EQ(info->pair_count, 2u);
  EXPECT_EQ(info->doc_count, 5u);
  ASSERT_EQ(info->sections.size(), stats.sections);
  for (const SnapshotSectionInfo& s : info->sections) {
    EXPECT_TRUE(s.checksum_ok)
        << "section " << SnapshotSectionKindName(s.kind) << " owner "
        << s.owner;
    EXPECT_EQ(s.offset % kSnapshotAlignment, 0u);
  }
}

TEST_F(SnapshotTest, RoundTripIsBitIdentical) {
  UncertainMatchingSystem original(Options());
  FillSystem(&original);
  ASSERT_TRUE(original.SaveSnapshot(path_).ok());

  UncertainMatchingSystem loaded(Options());
  SnapshotStats stats;
  ASSERT_TRUE(loaded.LoadSnapshot(path_, &stats).ok());
  EXPECT_EQ(stats.pairs, 2u);
  EXPECT_EQ(stats.documents, 5u);
  EXPECT_TRUE(loaded.prepared());
  EXPECT_EQ(loaded.pair_count(), 2u);
  EXPECT_EQ(loaded.CorpusDocumentNames(), original.CorpusDocumentNames());
  // The loaded default pair relates the same schemas, materialized fresh.
  ASSERT_NE(loaded.prepared_pair(), nullptr);
  EXPECT_EQ(loaded.prepared_pair()->source()->schema_name(),
            original.prepared_pair()->source()->schema_name());
  EXPECT_NE(loaded.prepared_pair()->pair_id,
            original.prepared_pair()->pair_id);
  // Built and loaded pairs have one shape: the same flat index.
  EXPECT_EQ(loaded.prepared_pair()->flat->mappings.num_mappings,
            original.prepared_pair()->flat->mappings.num_mappings);
  EXPECT_EQ(loaded.prepared_pair()->flat->tree.num_blocks(),
            original.prepared_pair()->flat->tree.num_blocks());
  EXPECT_GT(original.prepared_pair()->flat->tree.num_blocks(), 0u);

  CorpusQueryOptions top10;
  top10.top_k = 10;
  CorpusQueryOptions all;
  all.top_k = 0;
  for (const std::string& twig : TableIIIQueries()) {
    auto want10 = original.QueryCorpus(twig, top10);
    auto got10 = loaded.QueryCorpus(twig, top10);
    ASSERT_TRUE(want10.ok()) << want10.status();
    ASSERT_TRUE(got10.ok()) << got10.status();
    ExpectIdenticalAnswers(*got10, *want10);
    auto want_all = original.QueryCorpus(twig, all);
    auto got_all = loaded.QueryCorpus(twig, all);
    ASSERT_TRUE(want_all.ok() && got_all.ok());
    ExpectIdenticalAnswers(*got_all, *want_all);
  }

  // Single-document traffic against the loaded default pair: same
  // answers, mapping by mapping, bit for bit.
  ASSERT_TRUE(original.AttachDocument(scenario_->documents[0].get()).ok());
  ASSERT_TRUE(loaded.AttachDocument(scenario_->documents[0].get()).ok());
  for (const std::string& twig : TableIIIQueries()) {
    auto want = original.Query(twig);
    auto got = loaded.Query(twig);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->answers.size(), want->answers.size());
    for (size_t i = 0; i < got->answers.size(); ++i) {
      EXPECT_EQ(got->answers[i].mapping, want->answers[i].mapping);
      EXPECT_EQ(got->answers[i].probability, want->answers[i].probability);
      EXPECT_EQ(got->answers[i].matches, want->answers[i].matches);
    }
  }
}

TEST_F(SnapshotTest, LoadedSystemResavesLosslessly) {
  UncertainMatchingSystem original(Options());
  FillSystem(&original);
  ASSERT_TRUE(original.SaveSnapshot(path_).ok());

  UncertainMatchingSystem loaded(Options());
  ASSERT_TRUE(loaded.LoadSnapshot(path_).ok());
  const std::string resaved = path_ + ".resave";
  SnapshotStats stats;
  ASSERT_TRUE(loaded.SaveSnapshot(resaved, &stats).ok());
  EXPECT_EQ(stats.pairs, 2u);
  EXPECT_EQ(stats.documents, 5u);

  UncertainMatchingSystem reloaded(Options());
  ASSERT_TRUE(reloaded.LoadSnapshot(resaved).ok());
  std::remove(resaved.c_str());

  CorpusQueryOptions opts;
  opts.top_k = 10;
  for (const std::string& twig : TableIIIQueries()) {
    auto want = original.QueryCorpus(twig, opts);
    auto got = reloaded.QueryCorpus(twig, opts);
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectIdenticalAnswers(*got, *want);
  }
}

TEST_F(SnapshotTest, EmptySystemRoundTrips) {
  UncertainMatchingSystem empty(Options());
  SnapshotStats stats;
  ASSERT_TRUE(empty.SaveSnapshot(path_, &stats).ok());
  EXPECT_EQ(stats.pairs, 0u);
  EXPECT_EQ(stats.documents, 0u);

  UncertainMatchingSystem loaded(Options());
  ASSERT_TRUE(loaded.LoadSnapshot(path_).ok());
  EXPECT_FALSE(loaded.prepared());
  EXPECT_EQ(loaded.pair_count(), 0u);
  EXPECT_EQ(loaded.corpus_size(), 0u);
}

TEST_F(SnapshotTest, LoadFailsCleanlyAndAtomically) {
  EXPECT_TRUE(UncertainMatchingSystem(Options())
                  .LoadSnapshot("no/such/snapshot.uxmsnap")
                  .IsIOError());

  UncertainMatchingSystem sys(Options());
  FillSystem(&sys);
  ASSERT_TRUE(sys.SaveSnapshot(path_).ok());

  // Loading into the system that already holds these document names must
  // fail BEFORE any state changes: same pair count, same corpus.
  const size_t pairs_before = sys.pair_count();
  const auto names_before = sys.CorpusDocumentNames();
  EXPECT_TRUE(sys.LoadSnapshot(path_).IsAlreadyExists());
  EXPECT_EQ(sys.pair_count(), pairs_before);
  EXPECT_EQ(sys.CorpusDocumentNames(), names_before);

  // A fresh system loads the same file fine twice in a row... into two
  // distinct systems (names collide only within one corpus).
  UncertainMatchingSystem a(Options());
  UncertainMatchingSystem b(Options());
  EXPECT_TRUE(a.LoadSnapshot(path_).ok());
  EXPECT_TRUE(b.LoadSnapshot(path_).ok());
}

TEST_F(SnapshotTest, SaveIsAtomicOverwrite) {
  UncertainMatchingSystem sys(Options());
  FillSystem(&sys);
  ASSERT_TRUE(sys.SaveSnapshot(path_).ok());
  // Overwriting an existing snapshot goes through the unique temp file +
  // rename path; the result must still load, and no "<path>.tmp.*" file
  // may linger.
  ASSERT_TRUE(sys.SaveSnapshot(path_).ok());
  for (const auto& entry : std::filesystem::directory_iterator(".")) {
    const std::string name = entry.path().filename().string();
    EXPECT_NE(name.rfind(path_ + ".tmp", 0), 0u) << "leftover temp: " << name;
  }
  UncertainMatchingSystem loaded(Options());
  EXPECT_TRUE(loaded.LoadSnapshot(path_).ok());
}

TEST_F(SnapshotTest, WriterRejectsOutOfRangeDefaultPair) {
  // Both bounds: an index past the pair list AND anything below -1 must
  // be refused up front — the loader rejects default_pair < -1, so the
  // writer must never emit such a file.
  SnapshotWriteInput input;
  input.default_pair = 0;
  EXPECT_TRUE(WriteSnapshot(path_, input).status().IsInvalidArgument());
  input.default_pair = -5;
  EXPECT_TRUE(WriteSnapshot(path_, input).status().IsInvalidArgument());
  input.default_pair = -1;
  EXPECT_TRUE(WriteSnapshot(path_, input).ok());
}

TEST_F(SnapshotTest, LoaderRejectsEmptyDocName) {
  // DocumentStore::Add rejects empty names; the loader must catch one
  // during validation (before any system state is touched), not let the
  // facade fail mid-install and violate the all-or-nothing contract.
  UncertainMatchingSystem sys(Options());
  FillSystem(&sys);
  ASSERT_TRUE(sys.SaveSnapshot(path_).ok());

  // Shrink doc 0's meta record to an empty name and restamp the section
  // + directory checksums, so the name check is the only thing failing.
  std::ifstream in(path_, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  in.close();
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  auto* directory =
      reinterpret_cast<SectionEntry*>(bytes.data() + header.directory_offset);
  bool patched = false;
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry& e = directory[i];
    if (e.kind != kDocMeta || e.owner != 0) continue;
    uint8_t* payload = bytes.data() + e.offset;
    const uint32_t zero = 0;
    std::memcpy(payload + sizeof(uint32_t), &zero, sizeof(zero));
    e.length = 2 * sizeof(uint32_t);  // pair_index + zero-length name
    e.checksum = Fnv1a64(payload, e.length);
    patched = true;
    break;
  }
  ASSERT_TRUE(patched);
  const uint64_t dir_sum =
      Fnv1a64(bytes.data() + header.directory_offset,
              header.section_count * sizeof(SectionEntry));
  std::memcpy(bytes.data() + offsetof(SnapshotHeader, directory_checksum),
              &dir_sum, sizeof(dir_sum));
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
  out.close();

  UncertainMatchingSystem fresh(Options());
  const Status status = fresh.LoadSnapshot(path_);
  EXPECT_TRUE(status.IsDataLoss()) << status;
  EXPECT_NE(status.message().find("empty document name"), std::string::npos)
      << status;
  EXPECT_EQ(fresh.pair_count(), 0u);
  EXPECT_TRUE(fresh.CorpusDocumentNames().empty());
}

TEST_F(SnapshotTest, ShardSnapshotsPartitionTheCorpusAndRoundTrip) {
  SystemOptions opts = Options();
  opts.corpus_shards = 3;
  UncertainMatchingSystem sys(opts);
  FillSystem(&sys);

  // Round 0 exports the filled corpus; round 1 removes one document
  // first, so the partition is re-checked after a mutation.
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      ASSERT_TRUE(sys.RemoveDocument(sys.CorpusDocumentNames()[0]).ok());
    }
    const std::vector<std::string> all_names = sys.CorpusDocumentNames();

    std::vector<std::string> shard_paths;
    std::vector<std::string> seen;  // union of the per-shard corpora
    size_t docs_total = 0;
    for (size_t s = 0; s < sys.corpus_shard_count(); ++s) {
      shard_paths.push_back(path_ + ".shard" + std::to_string(s));
      SnapshotStats stats;
      ASSERT_TRUE(sys.SaveShardSnapshot(s, shard_paths[s], &stats).ok());
      EXPECT_EQ(stats.pairs, 2u);  // every pair rides in every shard file
      docs_total += stats.documents;

      // A shard file is an ordinary snapshot: an UNsharded replica loads
      // it and holds exactly the documents that route to shard s.
      UncertainMatchingSystem replica(Options());
      ASSERT_TRUE(replica.LoadSnapshot(shard_paths[s]).ok());
      EXPECT_EQ(replica.pair_count(), 2u);
      for (const std::string& name : replica.CorpusDocumentNames()) {
        EXPECT_EQ(sys.CorpusShardOf(name), s) << name;
        seen.push_back(name);
      }

      // Shard assignment is a pure function of the document name, so a
      // SHARDED replica with the same shard count routes every restored
      // document straight back to shard s — the property a coordinator
      // relies on when it rehydrates one shard replica from its file.
      UncertainMatchingSystem sharded_replica(opts);
      ASSERT_TRUE(sharded_replica.LoadSnapshot(shard_paths[s]).ok());
      for (const std::string& name : sharded_replica.CorpusDocumentNames()) {
        EXPECT_EQ(sharded_replica.CorpusShardOf(name), s) << name;
      }
    }
    // The shard files partition the corpus: disjoint (each name routed
    // to exactly one shard above) and jointly exhaustive.
    EXPECT_EQ(docs_total, all_names.size());
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, all_names);
    for (const std::string& p : shard_paths) std::remove(p.c_str());
  }
}

TEST_F(SnapshotTest, ShardedAndUnshardedSystemsExchangeFullSnapshots) {
  // A full snapshot written by a sharded system is the MERGED corpus:
  // a single-scheduler system loads it and answers bit-identically.
  SystemOptions sharded = Options();
  sharded.corpus_shards = 3;
  UncertainMatchingSystem original(sharded);
  FillSystem(&original);
  ASSERT_TRUE(original.SaveSnapshot(path_).ok());

  SystemOptions unsharded = Options();
  unsharded.corpus_shards = 1;
  UncertainMatchingSystem loaded(unsharded);
  ASSERT_TRUE(loaded.LoadSnapshot(path_).ok());
  EXPECT_EQ(loaded.corpus_shard_count(), 1u);
  EXPECT_EQ(loaded.CorpusDocumentNames(), original.CorpusDocumentNames());

  CorpusQueryOptions top10;
  top10.top_k = 10;
  for (const std::string& twig : TableIIIQueries()) {
    auto want = original.QueryCorpus(twig, top10);
    auto got = loaded.QueryCorpus(twig, top10);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status();
    ExpectIdenticalAnswers(*got, *want);
  }
}

TEST_F(SnapshotTest, SaveRacesCorpusMutationSafely) {
  // Regression: SaveSnapshot captures raw doc/annotation pointers into
  // the write input, so it must keep the corpus snapshot alive for the
  // whole (unlocked) write — a concurrent RemoveDocument dropping the
  // last owner of a removed entry mid-serialization was a
  // use-after-free (visible under ASan/TSan).
  UncertainMatchingSystem sys(Options());
  FillSystem(&sys);
  std::atomic<bool> done{false};
  std::thread mutator([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (size_t i = 0; i < scenario_->documents.size(); ++i) {
        sys.RemoveDocument(scenario_->names[i]);
        sys.AddDocument(scenario_->names[i], scenario_->documents[i].get());
      }
    }
  });
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(sys.SaveSnapshot(path_).ok());
  }
  done.store(true, std::memory_order_relaxed);
  mutator.join();
  UncertainMatchingSystem loaded(Options());
  EXPECT_TRUE(loaded.LoadSnapshot(path_).ok());
}

}  // namespace
}  // namespace uxm
