#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace ptqbench {
namespace {

using uxm::Result;
using uxm::Rng;
using uxm::Schema;
using uxm::SchemaNodeId;
using uxm::Status;

// The run seed drives every operation stream (twig draws, ad hoc twigs,
// re-registration targets); the documents come from fixed generator
// seeds. Measured on table3_hot, corpora of different seeds moved p50 by
// up to +-20% while one corpus repeated within +-2%, so a seeded corpus
// would put its own variance into every run-to-run spread.
constexpr uint64_t kD7CorpusSeed = 2026;

// table3_hot: corpus size and the Zipf exponent of the twig stream. The
// popularity ranks follow the paper's Q1..Q10 order, so the seed changes
// the draws but not which twig is hot.
constexpr int kHotDocuments = 256;
constexpr double kZipfExponent = 1.0;
// table3_hot's result-cache budget: about 2.5x the live (twig, document)
// answers (2560 entries, ~1.6 MiB), so the stale entries each
// re-registration leaves fill it within the phase's first seconds and are
// evicted from then on. With a budget the phase never reaches, memory
// grows with the number of operations run, and peak_rss_mb would rise
// when throughput does.
constexpr size_t kHotResultCacheBytes = size_t{4} << 20;

// Generated documents, and answers kept per query.
constexpr int kD7Templates = 64;
constexpr int kD7TopK = 10;
// A result-cache budget the adhoc_miss stream fills
// within its first seconds, so memory is steady over the phase.
constexpr size_t kD7ResultCacheBytes = size_t{16} << 20;

// adhoc_miss: corpus size and the share of responses checked.
constexpr int kAdhocDocuments = 64;
constexpr double kAdhocCheckProbability = 1.0 / 16.0;

// Both workloads re-register one random document per 32
// operations: few enough that nearly every table3_hot item stays a cache
// hit, enough to time mutations throughout the phase.
constexpr double kD7MutateProbability = 1.0 / 32.0;

uxm::SystemOptions BaseOptions() {
  uxm::SystemOptions options;
  options.corpus_shards = kCorpusShards;
  return options;
}

// An operation stream: with probability `p` a re-registration of a
// uniformly chosen document, otherwise a query of the next twig.
std::function<Op()> WithMutations(uint64_t seed, double p, size_t num_docs,
                                  std::function<std::string()> next_twig) {
  auto rng = std::make_shared<Rng>(seed ^ 0x5eedULL);
  return [rng, p, num_docs, next_twig]() {
    Op op;
    if (rng->Bernoulli(p)) {
      op.mutate = true;
      op.doc = static_cast<int>(rng->Uniform(num_docs));
    } else {
      op.twig = next_twig();
    }
    return op;
  };
}

// Parses every document from its own XML text, so a later
// re-registration (which parses the same text) restores identical
// content.
Status AttachParsedDocuments(std::vector<DocInput>* docs) {
  for (DocInput& d : *docs) {
    auto parsed = uxm::ParseXml(d.xml);
    if (!parsed.ok()) return parsed.status();
    d.doc = std::make_shared<const uxm::Document>(std::move(parsed).value());
  }
  return Status::OK();
}

// D7 plus `num_documents` documents of 150-400 nodes. Generation is the
// slow part of input making, so at most kD7Templates distinct documents
// are generated (MakeCorpusScenario, which also clones some) and the rest
// of the corpus re-parses a fixed random choice of their texts.
Result<Workload> MakeD7Workload(const std::string& name, int num_documents) {
  uxm::CorpusGenOptions gen;
  gen.seed = kD7CorpusSeed;
  gen.num_documents = std::min(num_documents, kD7Templates);
  gen.min_target_nodes = 150;
  gen.max_target_nodes = 400;
  uxm::CorpusScenario scenario;
  UXM_ASSIGN_OR_RETURN(scenario, uxm::MakeCorpusScenario("D7", gen));

  Workload w;
  w.name = name;
  w.system = BaseOptions();
  w.system.matcher.strategy = scenario.dataset.option;
  w.system.top_h.h = 100;
  // §IV-C top-k PTQ: each document evaluates only its k most probable
  // relevant mappings, and the corpus merge keeps the global top-k.
  w.system.ptq.top_k = kD7TopK;
  w.system.cache.max_result_bytes = kD7ResultCacheBytes;
  w.query.top_k = kD7TopK;
  w.run.num_threads = kPoolThreads;

  w.source = scenario.dataset.source;
  w.target = scenario.dataset.target;
  w.matching = scenario.dataset.matching;
  std::vector<std::string> texts;
  for (const auto& doc : scenario.documents) texts.push_back(uxm::WriteXml(*doc));
  Rng rng(kD7CorpusSeed);
  char doc_name[32];
  for (int i = 0; i < num_documents; ++i) {
    DocInput d;
    std::snprintf(doc_name, sizeof(doc_name), "doc-%03d", i);
    d.name = doc_name;
    d.xml = i < static_cast<int>(texts.size()) ? texts[static_cast<size_t>(i)]
                                               : texts[rng.Uniform(texts.size())];
    w.docs.push_back(std::move(d));
  }
  UXM_RETURN_NOT_OK(AttachParsedDocuments(&w.docs));
  return w;
}

Result<Workload> MakeTable3Hot(uint64_t seed) {
  Workload w;
  UXM_ASSIGN_OR_RETURN(w,
                       MakeD7Workload("table3_hot", kHotDocuments));
  const std::vector<std::string>& twigs = uxm::TableIIIQueries();
  w.warmup_twigs = twigs;
  w.system.cache.max_result_bytes = kHotResultCacheBytes;
  std::vector<double> cdf;
  double total = 0.0;
  for (size_t r = 0; r < twigs.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf.push_back(total);
  }
  auto rng = std::make_shared<Rng>(seed ^ 0x7ab1e3ULL);
  w.next_op = WithMutations(seed, kD7MutateProbability, w.docs.size(),
                            [rng, cdf, total, twigs]() {
                              const double u = rng->NextDouble() * total;
                              size_t r = 0;
                              while (r + 1 < cdf.size() && cdf[r] <= u) ++r;
                              return twigs[r];
                            });
  return w;
}

// Distinct Table-III-style twigs over a target schema: a root-to-element
// main path (some steps collapsed into `//`) with up to two existence
// predicates, built only from elements the matching maps, so most twigs
// have answers.
class AdhocTwigGenerator {
 public:
  AdhocTwigGenerator(const Schema* target, const uxm::SchemaMatching& matching,
                     uint64_t seed)
      : target_(target), matched_(static_cast<size_t>(target->size()), false),
        rng_(seed) {
    for (SchemaNodeId t : matching.MatchedTargets()) {
      matched_[static_cast<size_t>(t)] = true;
    }
    for (SchemaNodeId id = 1; id < target->size(); ++id) {
      if (matched_[static_cast<size_t>(id)]) outputs_.push_back(id);
    }
  }

  std::string Next() {
    std::string twig;
    for (int attempt = 0; attempt < 1000; ++attempt) {
      twig = Render();
      if (seen_.insert(twig).second) return twig;
    }
    return twig;  // space exhausted: repeats are allowed from here on
  }

 private:
  std::string Render() {
    const SchemaNodeId out = outputs_[rng_.Uniform(outputs_.size())];
    std::vector<SchemaNodeId> path;
    for (SchemaNodeId n = out; n != uxm::kInvalidSchemaNode;
         n = target_->node(n).parent) {
      path.insert(path.begin(), n);
    }
    std::string twig;
    bool skipped = false;
    int predicates = static_cast<int>(rng_.UniformInt(0, 2));
    for (size_t i = 0; i < path.size(); ++i) {
      const SchemaNodeId n = path[i];
      const bool interior = i > 0 && i + 1 < path.size();
      if (interior && (!matched_[static_cast<size_t>(n)] || rng_.Bernoulli(0.3))) {
        skipped = true;
        continue;
      }
      if (i > 0) twig += skipped ? "//" : "/";
      skipped = false;
      twig += target_->name(n);
      if (i + 1 < path.size() && predicates > 0 && rng_.Bernoulli(0.5)) {
        const std::string pred = Predicate(n, path[i + 1]);
        if (!pred.empty()) {
          twig += pred;
          --predicates;
        }
      }
    }
    return twig;
  }

  // "[./child]" or "[.//descendant]" over a matched descendant of `n`
  // outside the main path's next step.
  std::string Predicate(SchemaNodeId n, SchemaNodeId next) {
    std::vector<SchemaNodeId> candidates;
    for (SchemaNodeId d : target_->SubtreeNodes(n)) {
      if (d != n && d != next && matched_[static_cast<size_t>(d)]) {
        candidates.push_back(d);
      }
    }
    if (candidates.empty()) return "";
    const SchemaNodeId d = candidates[rng_.Uniform(candidates.size())];
    const bool child = target_->node(d).parent == n;
    return std::string(child ? "[./" : "[.//") + target_->name(d) + "]";
  }

  const Schema* target_;
  std::vector<bool> matched_;
  std::vector<SchemaNodeId> outputs_;
  Rng rng_;
  std::unordered_set<std::string> seen_;
};

Result<Workload> MakeAdhocMiss(uint64_t seed) {
  Workload w;
  UXM_ASSIGN_OR_RETURN(
      w, MakeD7Workload("adhoc_miss", kAdhocDocuments));
  auto gen = std::make_shared<AdhocTwigGenerator>(
      w.target.get(), w.matching, seed ^ 0xad40cULL);
  for (int i = 0; i < 16; ++i) w.warmup_twigs.push_back(gen->Next());
  w.next_op = WithMutations(seed, kD7MutateProbability, w.docs.size(),
                            [gen]() { return gen->Next(); });
  w.check_probability = kAdhocCheckProbability;
  return w;
}

}  // namespace

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "table3_hot") return MakeTable3Hot(seed);
  if (name == "adhoc_miss") return MakeAdhocMiss(seed);
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

}  // namespace ptqbench
