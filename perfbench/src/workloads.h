// The benchmark's workloads: seeded input generation only. Each
// workload is the system configuration, the D7 schema pair and the
// documents to register, and an endless seeded stream of client
// operations; the library sees nothing but these generated inputs.
//
//   table3_hot    the paper's §VI setting: D7 (h = 100) over 256
//                 documents, a Zipf stream of the ten Table III twigs.
//                 After warm-up nearly every item is a result-cache hit,
//                 so the time goes to fan-out, bounds and merge.
//   adhoc_miss    D7 over 64 documents, a stream of distinct
//                 Table-III-style twigs: every item misses the caches,
//                 so the time goes to compile, §IV-C selection and the
//                 evaluation kernel.
//
// Both re-register one random document (ParseXml of its text,
// RemoveDocument, AddDocument) per 32 operations.
#ifndef PTQBENCH_WORKLOADS_H_
#define PTQBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/uxm.h"

namespace ptqbench {

/// \brief One corpus document: its XML text (written once at generation
/// with WriteXml) and the Document parsed from it, which set-up
/// registers. A re-registration parses the same text again.
struct DocInput {
  std::string name;
  std::string xml;
  std::shared_ptr<const uxm::Document> doc;
};

/// \brief One client operation: a corpus query, or a re-registration
/// (RemoveDocument, ParseXml, AddDocument) of document `doc`.
struct Op {
  bool mutate = false;
  std::string twig;
  int doc = -1;
};

/// The fixed thread layout of every workload: one corpus shard and one
/// pool thread, set explicitly (0 would mean "all hardware threads").
/// Every corpus call of a run passes the workload's one BatchRunOptions.
/// More threads make the figures unsteady on a shared virtual host; see
/// README.md.
inline constexpr int kCorpusShards = 1;
inline constexpr int kPoolThreads = 1;

struct Workload {
  std::string name;
  uxm::SystemOptions system;
  uxm::CorpusQueryOptions query;
  uxm::BatchRunOptions run;
  /// The schema pair; set-up runs Prepare on it (the matcher is part of
  /// set-up), and `matching` is the same matching, made at generation.
  std::shared_ptr<const uxm::Schema> source;
  std::shared_ptr<const uxm::Schema> target;
  uxm::SchemaMatching matching;
  std::vector<DocInput> docs;
  /// Queried once, untimed, before the measured phase.
  std::vector<std::string> warmup_twigs;
  /// Endless seeded operation stream.
  std::function<Op()> next_op;
  /// Share of query responses compared with the exhaustive answer
  /// after the phase: 1 checks every response, less a seeded sample.
  double check_probability = 1.0;
};

/// Generates workload `name` from `seed`: same seed, same inputs.
uxm::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace ptqbench

#endif  // PTQBENCH_WORKLOADS_H_
