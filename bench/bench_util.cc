#include "bench/bench_util.h"

#include "common/logging.h"

namespace uxm {
namespace bench {

Env MakeEnv(const std::string& dataset_id, int num_mappings, bool with_doc) {
  Env env;
  auto dataset = LoadDataset(dataset_id);
  UXM_CHECK_MSG(dataset.ok(), dataset.status().ToString());
  env.dataset = std::move(dataset).ValueOrDie();

  TopHOptions opts;
  opts.h = num_mappings;
  opts.strategy = TopHStrategy::kPartition;
  TopHGenerator gen(opts);
  auto mappings = gen.Generate(env.dataset.matching);
  UXM_CHECK_MSG(mappings.ok(), mappings.status().ToString());
  env.mappings = std::move(mappings).ValueOrDie();

  if (with_doc) {
    env.doc = std::make_shared<Document>(
        GenerateDocument(*env.dataset.source,
                         DocGenOptions{.seed = 7, .target_nodes = kDocTargetNodes}));
    auto ad = AnnotatedDocument::Bind(env.doc.get(), env.dataset.source.get());
    UXM_CHECK_MSG(ad.ok(), ad.status().ToString());
    env.annotated =
        std::make_unique<AnnotatedDocument>(std::move(ad).ValueOrDie());
  }
  return env;
}

BlockTreeBuildResult BuildTree(const Env& env, double tau, int max_blocks,
                               int max_failures) {
  BlockTreeBuilder builder(BlockTreeOptions{tau, max_blocks, max_failures});
  auto result = builder.Build(env.mappings);
  UXM_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(result).ValueOrDie();
}

std::shared_ptr<const PreparedSchemaPair> MakePair(const Env& env,
                                                   double tau) {
  return MakePreparedSchemaPairFromProducts(env.dataset.matching,
                                            env.mappings,
                                            BuildTree(env, tau).tree);
}

double TimePtq(const PreparedSchemaPair& pair, const Env& env,
               const std::string& twig, bool use_block_tree, int top_k) {
  DriverRequest request;
  request.pair = &pair;
  request.doc = env.annotated.get();
  request.twig = &twig;
  request.use_block_tree = use_block_tree;
  request.options.top_k = top_k;
  return AvgSeconds([&] {
    auto result = ExecutionDriver::Execute(request);
    UXM_CHECK_MSG(result.ok(), result.status().ToString());
  });
}

double AvgSeconds(const std::function<void()>& fn, int min_reps,
                  double min_total_s) {
  // Warm-up run (excluded).
  fn();
  Timer timer;
  int reps = 0;
  do {
    fn();
    ++reps;
  } while (reps < min_reps || timer.ElapsedSeconds() < min_total_s);
  return timer.ElapsedSeconds() / reps;
}

void PrintHeader(const std::string& experiment, const std::string& figure) {
  std::printf("=== %s — reproduces %s ===\n", experiment.c_str(),
              figure.c_str());
}

}  // namespace bench
}  // namespace uxm
