// ptq_bench: the PTQ serving benchmark. One client thread drives the
// library through its public API in a closed loop (each call waits for
// its reply) under a fixed thread layout, checks every answer it is
// asked to, and ends its output with one JSON line of metrics.
//
//   ptq_bench --workload <table3_hot|adhoc_miss> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports per-layer metrics from spans the benchmark
// records around its own calls into each layer. Normally started through
// run.py, which builds this binary from source first.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/uxm.h"
#include "harness.h"
#include "query/flat_kernel.h"
#include "snapshot/snapshot_loader.h"
#include "tracer.h"
#include "workloads.h"

#ifndef PTQBENCH_BUILD_TYPE
#define PTQBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PTQBENCH_COMPILER
#define PTQBENCH_COMPILER "unknown"
#endif

namespace ptqbench {
namespace {

using uxm::CorpusAnswer;
using uxm::CorpusBatchResponse;
using uxm::Result;
using uxm::Status;
using uxm::UncertainMatchingSystem;

// Timed set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;
// Traced run: snapshot loads repeat until both floors are met (or the
// cap).
constexpr int kMinSnapshotLoads = 3;
constexpr int kMaxSnapshotLoads = 20;
constexpr double kSnapshotLoadSeconds = 0.5;
// Sampled answer checks are capped so the exhaustive oracle stays cheap.
constexpr size_t kMaxSampledChecks = 96;
// The measured phase runs in blocks; each end-to-end metric is the median
// over blocks of the per-block value. On a shared virtual host, other
// guests periodically steal 10-30% of the CPU for seconds to minutes,
// slowing corpus queries by 1.4-5x; blocks during which more than
// kMaxBlockSteal of the host's CPU time was stolen measure the host, not
// the program, and are left out (see QuietBlocks).
constexpr double kBlockSeconds = 0.5;
constexpr double kMaxBlockSteal = 0.05;
// Traced run: traced and untraced blocks alternate, so host-speed drift
// hits both sides of the tracing-overhead ratio alike.
constexpr double kTraceBlockSeconds = 0.25;
// Traced run: documents parsed/annotated in the set-up replay, and the
// time each post-phase layer replay may take.
constexpr size_t kMaxReplayDocs = 256;
constexpr double kReplaySeconds = 1.5;
// ...and caps on their repetitions, which bound the span count.
constexpr int kMaxCompileRounds = 8;
constexpr size_t kMaxReplayItems = 4096;
// Traced run: the layouts of the two replays that exercise what the
// served layout (one shard, one pool thread) cannot. The shard replay
// runs two shard drivers over the one pool thread, the executor replay
// two pool threads; with the client thread each stays within 4 threads.
constexpr int kReplayShards = 2;
constexpr int kReplayPoolThreads = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "arguments come in --key value pairs\n");
    return false;
  }
  return !args->workload.empty() && args->seconds > 0;
}

bool SameAnswers(const std::vector<CorpusAnswer>& a,
                 const std::vector<CorpusAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].document != b[i].document ||
        a[i].probability != b[i].probability || a[i].matches != b[i].matches) {
      return false;
    }
  }
  return true;
}

bool SameAnswers(const std::vector<uxm::MappingAnswer>& a,
                 const std::vector<uxm::MappingAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].mapping != b[i].mapping || a[i].probability != b[i].probability ||
        a[i].matches != b[i].matches) {
      return false;
    }
  }
  return true;
}

std::string LoadAverage() {
  std::ifstream f("/proc/loadavg");
  std::string one, five, fifteen;
  f >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

int OnlineCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 0;
}

// Sums over every corpus response of a phase: the layer counts the
// public API returns.
struct ResponseTotals {
  uint64_t queries = 0;
  uint64_t answered = 0;
  uint64_t items_total = 0, evaluated = 0, pruned = 0, aborted = 0;
  uint64_t dispatches = 0;
  uint64_t mappings_pruned = 0, executor_items = 0;
  std::vector<uint64_t> items_per_thread;
  double shard_slowest_ms = 0.0;
  double shard_evaluated_max = 0.0, shard_evaluated_mean = 0.0;

  void Add(const CorpusBatchResponse& r) {
    ++queries;
    if (!r.answers.empty() && r.answers[0].ok() &&
        !r.answers[0]->answers.empty()) {
      ++answered;
    }
    items_total += static_cast<uint64_t>(r.corpus.items_total);
    evaluated += static_cast<uint64_t>(r.corpus.items_evaluated);
    pruned += static_cast<uint64_t>(r.corpus.items_pruned);
    aborted += static_cast<uint64_t>(r.corpus.items_aborted);
    dispatches += static_cast<uint64_t>(r.corpus.dispatches);
    mappings_pruned += static_cast<uint64_t>(r.report.mappings_pruned);
    if (items_per_thread.size() < r.report.items_per_thread.size()) {
      items_per_thread.resize(r.report.items_per_thread.size(), 0);
    }
    for (size_t t = 0; t < r.report.items_per_thread.size(); ++t) {
      items_per_thread[t] += static_cast<uint64_t>(r.report.items_per_thread[t]);
      executor_items += static_cast<uint64_t>(r.report.items_per_thread[t]);
    }
    // Scatter-gather runs only: an unsharded run has no shard_reports.
    int64_t slowest = 0;
    int max_eval = 0;
    double sum_eval = 0.0;
    for (const uxm::CorpusRunReport& s : r.shard_reports) {
      slowest = std::max(slowest, s.elapsed_ns);
      max_eval = std::max(max_eval, s.items_evaluated);
      sum_eval += s.items_evaluated;
    }
    if (!r.shard_reports.empty()) {
      shard_slowest_ms += static_cast<double>(slowest) / 1e6;
      shard_evaluated_max += max_eval;
      shard_evaluated_mean += sum_eval / static_cast<double>(r.shard_reports.size());
    }
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Equal responses to one twig, and how many there were.
struct ServedAnswers {
  std::vector<CorpusAnswer> answers;
  uint64_t responses = 0;
};

// Samples of one block of the measured phase, with the share of host
// CPU stolen meanwhile.
struct Block {
  bool traced = false;
  double seconds = 0.0;
  double steal = 0.0;
  std::vector<double> query_ms;
  std::vector<double> mutation_ms;
};

// The blocks a metric is computed from: those with samples (as selected
// by `samples_of`) that were not cut short by the end of the phase, and
// of these the ones whose steal stayed within kMaxBlockSteal. When fewer
// than a quarter qualify (a run inside a long steal episode), the
// least-stolen quarter is used instead.
template <typename Samples>
std::vector<const Block*> QuietBlocks(const std::vector<Block>& blocks,
                                      Samples samples_of) {
  std::vector<const Block*> usable;
  for (const Block& b : blocks) {
    if (!samples_of(b).empty() && b.seconds >= kBlockSeconds / 2) usable.push_back(&b);
  }
  std::sort(usable.begin(), usable.end(),
            [](const Block* a, const Block* b) { return a->steal < b->steal; });
  size_t quiet = 0;
  while (quiet < usable.size() && usable[quiet]->steal <= kMaxBlockSteal) ++quiet;
  usable.resize(std::max(quiet, std::min(usable.size(), (usable.size() + 3) / 4)));
  return usable;
}

// Median over the quiet blocks of `value(block, samples)`; `samples`
// receives the number of latencies summarized, `used` the blocks.
template <typename Samples, typename Value>
double MedianOverBlocks(const std::vector<Block>& blocks, Samples samples_of,
                        Value value, size_t* samples, size_t* used = nullptr) {
  std::vector<double> per_block;
  *samples = 0;
  for (const Block* b : QuietBlocks(blocks, samples_of)) {
    per_block.push_back(value(*b, samples_of(*b)));
    *samples += samples_of(*b).size();
  }
  if (used != nullptr) *used = per_block.size();
  return Median(per_block);
}

class Runner {
 public:
  Runner(Workload w, Args args) : w_(std::move(w)), args_(std::move(args)) {
    for (const DocInput& d : w_.docs) live_.push_back(d.doc);
  }

  int Run() {
    Status st = args_.trace ? RunTraced() : RunUntraced();
    if (!st.ok()) {
      std::fprintf(stderr, "ptq_bench: %s\n", st.ToString().c_str());
      return 1;
    }
    report_.PrintTable(args_.trace ? "per-layer metrics (traced run)"
                                   : "end-to-end metrics (untraced run)");
    for (const std::string& f : failures_) {
      std::printf("FAILED: %s\n", f.c_str());
    }
    const bool correct = failed_ == 0 && attempted_ > 0;
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(attempted_),
        static_cast<unsigned long long>(failed_),
        report_.MetricsJson().c_str());
    return 0;
  }

 private:
  // ------------------------------------------------------------ set-up

  std::unique_ptr<UncertainMatchingSystem> NewSystem() const {
    return std::make_unique<UncertainMatchingSystem>(w_.system);
  }

  // Empty system to serving-ready: every pair prepared, every document
  // registered under its pair.
  Status Install(UncertainMatchingSystem* sys, Tracer* tracer) const {
    {
      ScopedSpan span(tracer, "core.prepare");
      UXM_RETURN_NOT_OK(sys->Prepare(w_.source.get(), w_.target.get()));
    }
    for (const DocInput& d : w_.docs) {
      ScopedSpan span(tracer, "core.add_document");
      UXM_RETURN_NOT_OK(sys->AddDocument(d.name, d.doc.get()));
    }
    if (sys->corpus_size() != w_.docs.size()) {
      return Status::Internal("corpus size mismatch after set-up");
    }
    return Status::OK();
  }

  // Builds `repeats` systems one after another, timing each set-up; each
  // is destroyed before the next is built, and the last one serves.
  Status SetUp(int repeats, Tracer* tracer, std::vector<double>* seconds) {
    for (int rep = 0; rep < repeats; ++rep) {
      serving_.reset();
      auto sys = NewSystem();
      const auto t0 = Clock::now();
      {
        ScopedSpan span(tracer, "core.setup");
        UXM_RETURN_NOT_OK(Install(sys.get(), tracer));
      }
      const auto t1 = Clock::now();
      if (seconds != nullptr) seconds->push_back(MsBetween(t0, t1) / 1e3);
      serving_ = std::move(sys);
    }
    return Status::OK();
  }

  Result<CorpusBatchResponse> Query(UncertainMatchingSystem* sys,
                                    const std::string& twig,
                                    bool bounded) const {
    uxm::CorpusQueryOptions options = w_.query;
    options.bounded = bounded;
    return sys->RunCorpusBatch({twig}, options, w_.run);
  }

  Result<std::vector<CorpusAnswer>> Exhaustive(UncertainMatchingSystem* sys,
                                               const std::string& twig) const {
    CorpusBatchResponse r;
    UXM_ASSIGN_OR_RETURN(r, Query(sys, twig, /*bounded=*/false));
    if (!r.answers[0].ok()) return r.answers[0].status();
    return r.answers[0]->answers;
  }

  // The exhaustive answer to `twig` from the oracle: a system of its own,
  // set up on first use after the measured phase, so that neither its
  // memory nor its work overlaps the serving system's, and whose caches
  // the served traffic never touches.
  Result<std::vector<CorpusAnswer>> Expected(const std::string& twig) {
    auto it = expected_.find(twig);
    if (it != expected_.end()) return it->second;
    if (oracle_ == nullptr) {
      auto sys = NewSystem();
      UXM_RETURN_NOT_OK(Install(sys.get(), nullptr));
      oracle_ = std::move(sys);
    }
    std::vector<CorpusAnswer> answers;
    UXM_ASSIGN_OR_RETURN(answers, Exhaustive(oracle_.get(), twig));
    return expected_.emplace(twig, std::move(answers)).first->second;
  }

  std::string SnapshotPath() const {
    return args_.workdir + "/" + w_.name + "-" + std::to_string(args_.seed) +
           ".uxmsnap";
  }

  // ------------------------------------------------------------ serving

  // One untimed query per warm-up twig on `sys` (fills the caches,
  // builds the executor for the run's thread layout).
  Status WarmUp(UncertainMatchingSystem* sys) const {
    for (const std::string& twig : w_.warmup_twigs) {
      CorpusBatchResponse r;
      UXM_ASSIGN_OR_RETURN(r, Query(sys, twig, /*bounded=*/true));
    }
    return Status::OK();
  }

  void Fail(const std::string& what, uint64_t times = 1) {
    failed_ += times;
    if (failures_.size() < 10) failures_.push_back(what);
  }

  // Checks one served response, and keeps its answers (every response,
  // or a seeded sample) for the comparison with the oracle after the
  // phase. Equal responses to one twig are kept once, with a count.
  void CheckResponse(const std::string& twig,
                     const Result<CorpusBatchResponse>& r) {
    if (!r.ok()) return Fail(twig + ": " + r.status().ToString());
    if (r->answers.size() != 1 || !r->answers[0].ok()) {
      return Fail(twig + ": answer slot failed");
    }
    const uxm::CorpusRunReport& c = r->corpus;
    if (c.items_total != c.items_evaluated + c.items_pruned + c.items_aborted +
                             c.items_failed) {
      return Fail(twig + ": item accounting does not add up");
    }
    if (!r->exact || !r->answers[0]->exact) {
      return Fail(twig + ": inexact answer without a budget");
    }
    if (w_.check_probability < 1.0) {
      if (sampled_ == kMaxSampledChecks ||
          !check_rng_.Bernoulli(w_.check_probability)) {
        return;
      }
      ++sampled_;
    }
    const std::vector<CorpusAnswer>& answers = r->answers[0]->answers;
    std::vector<ServedAnswers>& variants = served_[twig];
    for (ServedAnswers& v : variants) {
      if (SameAnswers(v.answers, answers)) {
        ++v.responses;
        return;
      }
    }
    variants.push_back({answers, 1});
  }

  // Re-registers document `i`: ParseXml of its text, RemoveDocument,
  // AddDocument. Returns the latency in ms.
  double Mutate(int i, Tracer* tracer) {
    const DocInput& d = w_.docs[static_cast<size_t>(i)];
    const auto t0 = Clock::now();
    Status st;
    {
      ScopedSpan span(tracer, "core.mutation");
      std::shared_ptr<const uxm::Document> doc;
      {
        ScopedSpan parse(tracer, "xml.parse");
        auto parsed = uxm::ParseXml(d.xml);
        if (parsed.ok()) {
          doc = std::make_shared<const uxm::Document>(std::move(parsed).value());
        } else {
          st = parsed.status();
        }
      }
      if (st.ok()) {
        ScopedSpan remove(tracer, "core.remove_document");
        st = serving_->RemoveDocument(d.name);
      }
      if (st.ok()) {
        ScopedSpan add(tracer, "core.add_document");
        st = serving_->AddDocument(d.name, doc.get());
        if (st.ok()) live_[static_cast<size_t>(i)] = std::move(doc);
      }
    }
    const double ms = MsBetween(t0, Clock::now());
    ++attempted_;
    if (!st.ok()) Fail("re-register " + d.name + ": " + st.ToString());
    return ms;
  }

  // One operation of the stream; its latency goes to `block`.
  void Serve(const Op& op, Tracer* tracer, Block* block) {
    if (tracer != nullptr) tracer->set_request(static_cast<int64_t>(attempted_));
    ScopedSpan request(tracer, "client.request");
    if (op.mutate) {
      block->mutation_ms.push_back(Mutate(op.doc, tracer));
      return;
    }
    Result<CorpusBatchResponse> r = Status::Internal("not run");
    const auto t0 = Clock::now();
    {
      ScopedSpan call(tracer, "core.run_corpus_batch");
      r = Query(serving_.get(), op.twig, /*bounded=*/true);
    }
    block->query_ms.push_back(MsBetween(t0, Clock::now()));
    ++attempted_;
    if (r.ok()) totals_.Add(*r);
    {
      ScopedSpan check(tracer, "client.check");
      CheckResponse(op.twig, r);
    }
    if (replay_twigs_.size() < 64) replay_twigs_.push_back(op.twig);
  }

  // After the timed phase: the kept responses against the oracle, then
  // the final corpus state, queried bounded and exhaustively on the
  // serving system, for every checked twig.
  void FinalChecks() {
    for (const auto& [twig, variants] : served_) {
      auto expected = Expected(twig);
      if (!expected.ok()) {
        Fail(twig + ": oracle failed: " + expected.status().ToString());
        continue;
      }
      for (const ServedAnswers& v : variants) {
        if (!SameAnswers(v.answers, *expected)) {
          Fail(twig + ": response differs from the exhaustive answer", v.responses);
        }
      }
      ++attempted_;
      auto bounded = Query(serving_.get(), twig, /*bounded=*/true);
      auto exhaustive = Exhaustive(serving_.get(), twig);
      if (!bounded.ok() || !bounded->answers[0].ok() || !exhaustive.ok() ||
          !SameAnswers(bounded->answers[0]->answers, *expected) ||
          !SameAnswers(*exhaustive, *expected)) {
        Fail(twig + ": final corpus state differs from the exhaustive answer");
      }
    }
  }

  // ------------------------------------------------------------ runs

  // Runs the operation stream for --seconds in blocks of `block_s`; with
  // a tracer, every other block is traced.
  std::vector<Block> RunPhase(double block_s, Tracer* tracer) {
    auto seconds = [](double s) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(s));
    };
    std::vector<Block> blocks;
    const auto end = Clock::now() + seconds(args_.seconds);
    for (int i = 0; Clock::now() < end; ++i) {
      Block b;
      b.traced = tracer != nullptr && i % 2 == 1;
      const CpuTimes cpu0 = ReadCpuTimes();
      const auto b0 = Clock::now();
      const auto b1 = std::min(end, b0 + seconds(block_s));
      while (Clock::now() < b1) Serve(w_.next_op(), b.traced ? tracer : nullptr, &b);
      b.seconds = MsBetween(b0, Clock::now()) / 1e3;
      b.steal = StealShare(cpu0, ReadCpuTimes());
      blocks.push_back(std::move(b));
    }
    if (tracer != nullptr) tracer->set_request(-1);
    return blocks;
  }

  Status RunUntraced() {
    std::vector<double> setup_s;
    UXM_RETURN_NOT_OK(SetUp(kSetupRepeats, nullptr, &setup_s));
    UXM_RETURN_NOT_OK(WarmUp(serving_.get()));
    const CpuTimes cpu0 = ReadCpuTimes();
    const std::vector<Block> blocks = RunPhase(kBlockSeconds, nullptr);
    const CpuTimes cpu1 = ReadCpuTimes();
    // Set-ups plus serving only: read before the oracle exists.
    const double peak_rss_mb = PeakRssMb();
    FinalChecks();

    auto queries = [](const Block& b) -> const std::vector<double>& {
      return b.query_ms;
    };
    auto mutations = [](const Block& b) -> const std::vector<double>& {
      return b.mutation_ms;
    };
    auto median = [](const Block&, const std::vector<double>& ms) { return Median(ms); };
    size_t n = 0, used = 0;
    report_.Add("setup_s", "s", Median(setup_s), setup_s.size());
    std::printf("set-ups (s):");
    for (double x : setup_s) std::printf(" %.4f", x);
    std::printf("\n");
    double v = MedianOverBlocks(
        blocks, queries,
        [](const Block&, const std::vector<double>& ms) { return Quantile(ms, 0.5); },
        &n, &used);
    report_.Add("query_p50_ms", "ms", v, n);
    v = MedianOverBlocks(
        blocks, queries,
        [](const Block&, const std::vector<double>& ms) { return Quantile(ms, 0.9); },
        &n);
    report_.Add("query_p90_ms", "ms", v, n);
    v = MedianOverBlocks(
        blocks, queries,
        [](const Block& b, const std::vector<double>& ms) {
          return static_cast<double>(ms.size()) / b.seconds;
        },
        &n);
    report_.Add("throughput_qps", "1/s", v, n);
    v = MedianOverBlocks(blocks, mutations, median, &n);
    report_.Add("mutation_p50_ms", "ms", v, n);
    report_.Add("peak_rss_mb", "MB", peak_rss_mb, 1);
    std::printf("measured phase: %zu blocks of %.2f s, %zu within the steal limit; "
                "host CPU stolen %.2f%%; answered share %.4f of %llu queries; "
                "%zu twigs checked against the oracle\n",
                blocks.size(), kBlockSeconds, used, 100.0 * StealShare(cpu0, cpu1),
                Ratio(static_cast<double>(totals_.answered),
                      static_cast<double>(totals_.queries)),
                static_cast<unsigned long long>(totals_.queries), served_.size());
    return Status::OK();
  }

  // Set-up replayed layer by layer through each layer's public entry
  // point, one span per call.
  Status ReplaySetUpLayers(Tracer* t) {
    {
      ScopedSpan span(t, "matching.match");
      UXM_RETURN_NOT_OK(
          uxm::ComposedMatcher(w_.system.matcher).Match(*w_.source, *w_.target).status());
    }
    uxm::PossibleMappingSet mappings;
    {
      ScopedSpan span(t, "mapping.top_h");
      UXM_ASSIGN_OR_RETURN(mappings,
                           uxm::TopHGenerator(w_.system.top_h).Generate(w_.matching));
    }
    t->Count("mapping.mappings", mappings.size());
    uxm::BlockTreeBuildResult built;
    {
      ScopedSpan span(t, "blocktree.build");
      UXM_ASSIGN_OR_RETURN(built,
                           uxm::BlockTreeBuilder(w_.system.block_tree).Build(mappings));
    }
    t->Count("blocktree.compression_ratio",
             built.CompressionRatio(mappings.NaiveStorageBytes()));
    uxm::PairBuildOptions build;
    build.top_h = w_.system.top_h;
    build.block_tree = w_.system.block_tree;
    build.max_embeddings = w_.system.ptq.max_embeddings;
    {
      ScopedSpan span(t, "plan.prepare_pair");
      UXM_RETURN_NOT_OK(uxm::BuildPreparedSchemaPair(w_.matching, build).status());
    }
    for (size_t i = 0; i < w_.docs.size() && i < kMaxReplayDocs; ++i) {
      const DocInput& d = w_.docs[i];
      Result<uxm::Document> doc = Status::Internal("not run");
      {
        ScopedSpan span(t, "xml.parse");
        doc = uxm::ParseXml(d.xml);
      }
      UXM_RETURN_NOT_OK(doc.status());
      ScopedSpan span(t, "query.annotate");
      UXM_RETURN_NOT_OK(uxm::AnnotatedDocument::Bind(&*doc, w_.source.get()).status());
    }
    return Status::OK();
  }

  Status ReplaySnapshotLoads(Tracer* t, uxm::SnapshotStats* saved) {
    UXM_RETURN_NOT_OK(serving_->SaveSnapshot(SnapshotPath(), saved));
    const auto start = Clock::now();
    int loads = 0;
    while (loads < kMinSnapshotLoads ||
           (loads < kMaxSnapshotLoads &&
            MsBetween(start, Clock::now()) < kSnapshotLoadSeconds * 1e3)) {
      ScopedSpan span(t, "snapshot.load");
      UXM_RETURN_NOT_OK(uxm::LoadSnapshot(SnapshotPath()).status());
      ++loads;
    }
    return Status::OK();
  }

  // Checks one replayed response against the oracle's exhaustive answer.
  void CheckReplay(const char* replay, const std::string& twig,
                   const Result<CorpusBatchResponse>& r) {
    ++attempted_;
    auto expected = Expected(twig);
    if (!r.ok() || !r->answers[0].ok() || !expected.ok() ||
        !SameAnswers(r->answers[0]->answers, *expected)) {
      Fail(twig + ": " + replay + " differs from the exhaustive answer");
    }
  }

  // The served requests replayed below the facade: CorpusExecutor::Run
  // on a single scheduler (own executor of kReplayPoolThreads and own
  // caches, warmed like the serving system), QueryCompiler::Compile on
  // fresh compilers, and every (twig, document) item through
  // ExecutionDriver::Execute without a result cache and through
  // EvaluateTreeFlat.
  Status ReplayServingLayers(Tracer* t) {
    if (replay_twigs_.empty()) return Status::OK();
    const std::shared_ptr<const uxm::PreparedSchemaPair> pair =
        serving_->prepared_pair(w_.source.get(), w_.target.get());
    if (pair == nullptr) return Status::Internal("pair not registered");
    uxm::CorpusSnapshot corpus;
    for (size_t i = 0; i < w_.docs.size(); ++i) {
      const DocInput& d = w_.docs[i];
      uxm::CorpusDocument entry;
      entry.name = d.name;
      entry.doc = d.doc.get();
      UXM_ASSIGN_OR_RETURN(
          auto annotated,
          uxm::AnnotatedDocument::Bind(d.doc.get(), w_.source.get()));
      entry.annotated = std::make_shared<const uxm::AnnotatedDocument>(std::move(annotated));
      entry.epoch = i + 1;
      entry.pair = pair;
      corpus.push_back(std::move(entry));
    }
    std::sort(corpus.begin(), corpus.end(),
              [](const uxm::CorpusDocument& a, const uxm::CorpusDocument& b) {
                return a.name < b.name;
              });

    uxm::BatchExecutorOptions exec_options;
    exec_options.num_threads = kReplayPoolThreads;
    exec_options.ptq = w_.system.ptq;
    uxm::BatchQueryExecutor executor(exec_options);
    uxm::ResultCacheOptions cache_options;
    cache_options.max_bytes = w_.system.cache.max_result_bytes;
    uxm::ResultCache results(cache_options);
    uxm::BoundCache bounds;
    uxm::BatchCacheContext ctx{&results, 0};
    uxm::CorpusExecutor scheduler(&executor, &bounds);
    for (const std::string& twig : w_.warmup_twigs) {
      UXM_RETURN_NOT_OK(scheduler.Run(corpus, {twig}, w_.query, &ctx).status());
    }
    auto start = Clock::now();
    for (const std::string& twig : replay_twigs_) {
      if (MsBetween(start, Clock::now()) > kReplaySeconds * 1e3) break;
      Result<CorpusBatchResponse> r = Status::Internal("not run");
      {
        ScopedSpan span(t, "corpus.run");
        r = scheduler.Run(corpus, {twig}, w_.query, &ctx);
      }
      if (r.ok()) exec_totals_.Add(*r);
      CheckReplay("corpus replay", twig, r);
    }

    // Distinct replay twigs, each compiled once per fresh compiler.
    std::vector<std::string> twigs = replay_twigs_;
    std::sort(twigs.begin(), twigs.end());
    twigs.erase(std::unique(twigs.begin(), twigs.end()), twigs.end());
    const uxm::PreparedSchemaPair& primary = *pair;
    start = Clock::now();
    int rounds = 0;
    do {
      uxm::QueryCompiler compiler(&primary.flat->mappings, primary.target(),
                                  w_.system.ptq.max_embeddings, 4096, primary.order);
      for (const std::string& twig : twigs) {
        ScopedSpan span(t, "cache.compile");
        UXM_RETURN_NOT_OK(compiler.Compile(twig).status());
      }
    } while (++rounds < kMaxCompileRounds &&
             MsBetween(start, Clock::now()) < kReplaySeconds * 1e3 / 3);

    // Items in corpus order, twig by twig, until the time is up.
    start = Clock::now();
    uxm::MonotonicScratch scratch;
    size_t items = 0;
    for (const std::string& twig : replay_twigs_) {
      for (const uxm::CorpusDocument& entry : corpus) {
        if (++items > kMaxReplayItems ||
            MsBetween(start, Clock::now()) > kReplaySeconds * 1e3) {
          return Status::OK();
        }
        uxm::DriverRequest request;
        request.pair = entry.pair.get();
        request.doc = entry.annotated.get();
        request.twig = &twig;
        request.options = w_.system.ptq;
        Result<uxm::PtqResult> driven = Status::Internal("not run");
        {
          ScopedSpan span(t, "plan.driver");
          driven = uxm::ExecutionDriver::Execute(request);
        }
        ++attempted_;
        // A twig with no schema embedding still compiles (and answers
        // nothing), so every failure here is the program's.
        auto plan = entry.pair->compiler->Compile(twig);
        if (!driven.ok() || !plan.ok()) {
          Fail(twig + ": ExecutionDriver or Compile failed on " + entry.name);
          continue;
        }
        const uxm::QueryPlan& p = **plan;
        const std::vector<uxm::MappingId> relevant =
            p.SelectForTopK(w_.system.ptq.top_k);
        scratch.Reset();
        Result<uxm::PtqResult> kernel = Status::Internal("not run");
        {
          ScopedSpan span(t, "query.kernel");
          kernel = uxm::EvaluateTreeFlat(p.query(), p.embeddings(), relevant,
                                         p.truncated_embeddings(), *entry.pair->flat,
                                         *entry.annotated, w_.system.ptq, &scratch);
        }
        if (!kernel.ok() || !SameAnswers(kernel->answers, driven->answers)) {
          Fail(twig + ": EvaluateTreeFlat disagrees with ExecutionDriver on " + entry.name);
        }
      }
    }
    return Status::OK();
  }

  // The served requests replayed on a second system that splits the
  // corpus over kReplayShards shards (loaded from the serving state's
  // snapshot, warmed like the serving system): the shard layer's
  // scatter-gather, per-shard drivers and global threshold, which the
  // served one-shard layout hands to a single scheduler.
  Status ReplayShards(Tracer* t) {
    uxm::SystemOptions options = w_.system;
    options.corpus_shards = kReplayShards;
    UncertainMatchingSystem sharded(options);
    UXM_RETURN_NOT_OK(sharded.LoadSnapshot(SnapshotPath()));
    UXM_RETURN_NOT_OK(WarmUp(&sharded));
    const auto start = Clock::now();
    for (const std::string& twig : replay_twigs_) {
      if (MsBetween(start, Clock::now()) > kReplaySeconds * 1e3) break;
      Result<CorpusBatchResponse> r = Status::Internal("not run");
      {
        ScopedSpan span(t, "shard.run");
        r = Query(&sharded, twig, /*bounded=*/true);
      }
      if (r.ok() && r->shard_reports.size() != static_cast<size_t>(kReplayShards)) {
        Fail(twig + ": shard replay was not scattered over the shards");
      }
      if (r.ok()) shard_totals_.Add(*r);
      CheckReplay("shard replay", twig, r);
    }
    return Status::OK();
  }

  Status RunTraced() {
    Tracer tracer;
    Tracer* t = &tracer;
    UXM_RETURN_NOT_OK(ReplaySetUpLayers(t));
    UXM_RETURN_NOT_OK(SetUp(1, t, nullptr));
    uxm::SnapshotStats saved;
    UXM_RETURN_NOT_OK(ReplaySnapshotLoads(t, &saved));
    UXM_RETURN_NOT_OK(WarmUp(serving_.get()));

    const uxm::ResultCacheStats rc0 = serving_->result_cache_stats();
    const uxm::QueryCompilerStats qc0 = serving_->compiler_stats();
    const uxm::EmbeddingCacheStats ec0 = serving_->embedding_cache_stats();
    const uxm::BoundCacheStats bc0 = serving_->bound_cache_stats();
    // Alternating traced and untraced blocks: the same code with and
    // without spans, for the tracing overhead.
    const std::vector<Block> blocks = RunPhase(kTraceBlockSeconds, t);
    size_t queries[2] = {0, 0};
    double block_s[2] = {0.0, 0.0};
    for (const Block& b : blocks) {
      queries[b.traced] += b.query_ms.size();
      block_s[b.traced] += b.seconds;
    }
    const uxm::ResultCacheStats rc1 = serving_->result_cache_stats();
    const uxm::QueryCompilerStats qc1 = serving_->compiler_stats();
    const uxm::EmbeddingCacheStats ec1 = serving_->embedding_cache_stats();
    const uxm::BoundCacheStats bc1 = serving_->bound_cache_stats();

    FinalChecks();
    // The oracle's answers for the replays, outside their time caps.
    for (const std::string& twig : replay_twigs_) {
      UXM_RETURN_NOT_OK(Expected(twig).status());
    }
    UXM_RETURN_NOT_OK(ReplayServingLayers(t));
    UXM_RETURN_NOT_OK(ReplayShards(t));
    std::remove(SnapshotPath().c_str());

    const std::map<std::string, SpanTotals> spans = tracer.Summarize();
    auto mean_ms = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? 0.0
                               : it->second.self_ms / static_cast<double>(it->second.count);
    };
    auto total_ms = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.total_ms;
    };
    auto span_count = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? size_t{0} : it->second.count;
    };
    const ResponseTotals& r = totals_;
    const double q = static_cast<double>(r.queries);
    auto add = [&](const char* name, const char* unit, double value, size_t n) {
      report_.Add(name, unit, value, n);
    };
    add("matching.match_ms", "ms", total_ms("matching.match"), span_count("matching.match"));
    add("mapping.top_h_ms", "ms", total_ms("mapping.top_h"), span_count("mapping.top_h"));
    add("mapping.mappings", "count", t->count("mapping.mappings"), 1);
    add("blocktree.build_ms", "ms", total_ms("blocktree.build"), span_count("blocktree.build"));
    add("blocktree.compression_ratio", "ratio", t->count("blocktree.compression_ratio"), 1);
    add("plan.prepare_pair_ms", "ms", total_ms("plan.prepare_pair"),
        span_count("plan.prepare_pair"));
    add("xml.parse_ms_per_doc", "ms", mean_ms("xml.parse"), span_count("xml.parse"));
    add("query.annotate_ms_per_doc", "ms", mean_ms("query.annotate"),
        span_count("query.annotate"));
    add("snapshot.load_ms", "ms", mean_ms("snapshot.load"), span_count("snapshot.load"));
    add("snapshot.file_mb", "MB", static_cast<double>(saved.file_bytes) / (1024.0 * 1024.0), 1);
    add("corpus.run_ms", "ms", mean_ms("corpus.run"), span_count("corpus.run"));
    add("corpus.items_per_query", "count", Ratio(r.items_total, q), r.queries);
    add("corpus.evaluated_share", "ratio", Ratio(r.evaluated, r.items_total), r.queries);
    add("corpus.pruned_share", "ratio", Ratio(r.pruned, r.items_total), r.queries);
    add("corpus.aborted_share", "ratio", Ratio(r.aborted, r.items_total), r.queries);
    add("corpus.dispatches_per_query", "count", Ratio(r.dispatches, q), r.queries);
    const ResponseTotals& sh = shard_totals_;
    add("shard.scheduler_ms_per_query", "ms", Ratio(sh.shard_slowest_ms, sh.queries),
        sh.queries);
    add("shard.evaluated_max_over_mean", "ratio",
        Ratio(sh.shard_evaluated_max, sh.shard_evaluated_mean), sh.queries);
    const ResponseTotals& ex = exec_totals_;
    double thread_max = 0.0;
    for (uint64_t n : ex.items_per_thread) thread_max = std::max(thread_max, double(n));
    add("exec.items_per_thread_max_over_mean", "ratio",
        Ratio(thread_max, Ratio(ex.executor_items, ex.items_per_thread.size())),
        ex.queries);
    add("plan.driver_us_per_item", "us", 1e3 * mean_ms("plan.driver"),
        span_count("plan.driver"));
    add("plan.mappings_pruned_per_item", "count",
        Ratio(r.mappings_pruned, r.executor_items), r.executor_items);
    add("query.kernel_us_per_item", "us", 1e3 * mean_ms("query.kernel"),
        span_count("query.kernel"));
    add("cache.compile_us_per_twig", "us", 1e3 * mean_ms("cache.compile"),
        span_count("cache.compile"));
    const double rc_hits = double(rc1.hits - rc0.hits);
    add("cache.result_hit_ratio", "ratio",
        Ratio(rc_hits, rc_hits + double(rc1.misses - rc0.misses)), r.queries);
    add("cache.result_evictions", "count", double(rc1.evictions - rc0.evictions), r.queries);
    const double qc_hits = double(qc1.hits - qc0.hits);
    add("cache.plan_hit_ratio", "ratio",
        Ratio(qc_hits, qc_hits + double(qc1.misses - qc0.misses)), r.queries);
    const double ec_hits = double(ec1.hits - ec0.hits);
    add("cache.embedding_hit_ratio", "ratio",
        Ratio(ec_hits, ec_hits + double(ec1.misses - ec0.misses)), r.queries);
    const double bc_hits = double(bc1.hits - bc0.hits);
    add("cache.bound_hit_ratio", "ratio",
        Ratio(bc_hits, bc_hits + double(bc1.misses - bc0.misses)), r.queries);
    add("core.answered_share", "ratio", Ratio(r.answered, q), r.queries);
    const double traced_qps = Ratio(queries[1], block_s[1]);
    const double untraced_qps = Ratio(queries[0], block_s[0]);
    add("trace.throughput_qps", "1/s", traced_qps, queries[1]);
    add("trace.untraced_throughput_qps", "1/s", untraced_qps, queries[0]);
    add("trace.overhead_share", "ratio", 1.0 - Ratio(traced_qps, untraced_qps),
        queries[0] + queries[1]);

    std::printf("span self time (traced run)\n  %-26s %9s %12s %12s %12s\n", "span",
                "count", "total_ms", "self_ms", "self_us/span");
    for (const auto& [name, s] : spans) {
      std::printf("  %-26s %9zu %12.3f %12.3f %12.3f\n", name.c_str(), s.count,
                  s.total_ms, s.self_ms, 1e3 * s.self_ms / double(s.count));
    }
    const std::string path = args_.workdir + "/" + w_.name + "-" +
                             std::to_string(args_.seed) + ".spans.jsonl";
    if (!tracer.WriteJsonLines(path)) return Status::IOError("cannot write " + path);
    std::printf("%zu spans written to %s\n", tracer.span_count(), path.c_str());
    return Status::OK();
  }

  Workload w_;
  Args args_;
  std::unique_ptr<UncertainMatchingSystem> oracle_;
  std::unique_ptr<UncertainMatchingSystem> serving_;
  /// Keeps the document instance registered on the serving system alive.
  std::vector<std::shared_ptr<const uxm::Document>> live_;
  /// Checked responses per twig, equal ones kept once with a count.
  std::map<std::string, std::vector<ServedAnswers>> served_;
  size_t sampled_ = 0;
  /// Oracle answers, computed on first use.
  std::map<std::string, std::vector<CorpusAnswer>> expected_;
  std::vector<std::string> replay_twigs_;
  uxm::Rng check_rng_{0xc0ffeeULL};
  /// Served responses, and the traced run's executor and shard replays.
  ResponseTotals totals_, exec_totals_, shard_totals_;
  Report report_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace
}  // namespace ptqbench

int main(int argc, char** argv) {
  using namespace ptqbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ptq_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
#if !defined(NDEBUG) || defined(UXM_FAULT_INJECTION)
  std::fprintf(stderr,
               "ptq_bench: refusing to measure a %s build (assertions or "
               "failpoints compiled in); configure with "
               "-DCMAKE_BUILD_TYPE=Release\n",
               PTQBENCH_BUILD_TYPE);
  return 3;
#endif
  if (std::string(PTQBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "ptq_bench: refusing to measure a %s build\n",
                 PTQBENCH_BUILD_TYPE);
    return 3;
  }
  std::printf(
      "context: {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"online_cpus\": %d, \"hardware_threads\": %u, "
      "\"load_average\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"corpus_shards\": %d, \"pool_threads\": %d, \"client_threads\": 1, "
      "\"host_speed_probe_ms\": %.4f}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, OnlineCpus(), std::thread::hardware_concurrency(),
      JsonString(LoadAverage()).c_str(), JsonString(PTQBENCH_COMPILER).c_str(),
      JsonString(PTQBENCH_BUILD_TYPE).c_str(), kCorpusShards, kPoolThreads,
      HostSpeedProbeMs());
  const auto gen0 = Clock::now();
  auto workload = MakeWorkload(args.workload, args.seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "ptq_bench: %s\n", workload.status().ToString().c_str());
    return 2;
  }
  std::printf("inputs: %zu documents, generated in %.3f s\n", workload->docs.size(),
              MsBetween(gen0, Clock::now()) / 1e3);
  std::fflush(stdout);
  Runner runner(std::move(workload).value(), args);
  return runner.Run();
}
