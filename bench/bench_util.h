// Shared scaffolding for the experiment binaries (bench/exp_*): dataset /
// mapping-set / document materialization and repeat-timing helpers. Each
// binary regenerates one table or figure of the paper's §VI and prints
// the same rows/series.
#ifndef UXM_BENCH_BENCH_UTIL_H_
#define UXM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "core/uxm.h"

namespace uxm {
namespace bench {

/// Default experiment parameters (§VI-A).
inline constexpr int kDefaultM = 100;      // |M|
inline constexpr double kDefaultTau = 0.2;
inline constexpr int kDefaultMaxB = 500;
inline constexpr int kDefaultMaxF = 500;
inline constexpr int kDocTargetNodes = 3473;  // Order.xml size

/// \brief A fully materialized experiment environment on one dataset.
struct Env {
  Dataset dataset;
  PossibleMappingSet mappings;
  std::shared_ptr<Document> doc;
  std::unique_ptr<AnnotatedDocument> annotated;
};

/// Loads a dataset and generates its top-|M| possible mappings; when
/// `with_doc` a schema-conforming document (~3473 nodes) is attached.
Env MakeEnv(const std::string& dataset_id, int num_mappings,
            bool with_doc = false);

/// Builds a block tree with the given options over `env.mappings`.
BlockTreeBuildResult BuildTree(const Env& env, double tau,
                               int max_blocks = kDefaultMaxB,
                               int max_failures = kDefaultMaxF);

/// Assembles a PreparedSchemaPair over the environment's mapping set
/// (block tree built with `tau`), for driving the plan/driver/executor
/// layers directly. The env's schemas must outlive the returned pair.
std::shared_ptr<const PreparedSchemaPair> MakePair(const Env& env,
                                                   double tau = kDefaultTau);

/// Average seconds of one uncached ExecutionDriver::Execute of `twig`
/// over `pair` and the env's document (AvgSeconds): Algorithm 4 when
/// `use_block_tree`, else Algorithm 3; top_k > 0 is the top-k PTQ. The
/// plan is compiled by the untimed warm-up run, so the figure covers
/// top-k selection and evaluation.
double TimePtq(const PreparedSchemaPair& pair, const Env& env,
               const std::string& twig, bool use_block_tree, int top_k = 0);

/// Average wall-clock seconds of `fn` over enough repetitions to
/// accumulate at least `min_total_s` (and at least `min_reps` runs).
double AvgSeconds(const std::function<void()>& fn, int min_reps = 5,
                  double min_total_s = 0.2);

/// Prints the standard experiment header.
void PrintHeader(const std::string& experiment, const std::string& figure);

}  // namespace bench
}  // namespace uxm

#endif  // UXM_BENCH_BENCH_UTIL_H_
