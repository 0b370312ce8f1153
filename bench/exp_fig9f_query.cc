// Figure 9(f): PTQ time Tq per Table III query, query_basic (Alg. 3) vs
// twig_query_tree (Alg. 4), |M| = 100.
#include "bench/bench_util.h"

namespace uxm {
namespace bench {

/// Shared by exp_fig9f (|M|=100) and exp_fig10a (|M|=500).
int RunQueryComparison(int num_mappings) {
  Env env = MakeEnv("D7", num_mappings, /*with_doc=*/true);
  const auto pair = MakePair(env);
  std::printf("%-4s %12s %12s %12s\n", "Q", "basic (ms)", "block-tree",
              "improvement");
  double sum_impr = 0;
  for (int qi = 0; qi < 10; ++qi) {
    const std::string& twig = TableIIIQueries()[static_cast<size_t>(qi)];
    const double tb = TimePtq(*pair, env, twig, /*use_block_tree=*/false);
    const double tt = TimePtq(*pair, env, twig, /*use_block_tree=*/true);
    const double impr = 100.0 * (tb - tt) / tb;
    sum_impr += impr;
    std::printf("Q%-3d %12.4f %12.4f %11.1f%%\n", qi + 1, tb * 1e3, tt * 1e3,
                impr);
  }
  std::printf("\naverage improvement: %.1f%% (paper: 54.6%% at |M|=100; "
              "block-tree wins on every query)\n",
              sum_impr / 10.0);
  return 0;
}

}  // namespace bench
}  // namespace uxm

#ifndef UXM_BENCH_NO_MAIN
int main() {
  uxm::bench::PrintHeader("exp_fig9f_query",
                          "Figure 9(f): Tq per query, |M|=100");
  return uxm::bench::RunQueryComparison(100);
}
#endif
