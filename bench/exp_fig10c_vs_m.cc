// Figure 10(c): Tq vs |M| for Q10, basic vs block-tree.
#include "bench/bench_util.h"

int main() {
  using namespace uxm;
  using namespace uxm::bench;
  PrintHeader("exp_fig10c_vs_m", "Figure 10(c): Tq vs |M| (Q10)");
  std::printf("%6s %12s %12s %12s\n", "|M|", "basic (ms)", "block-tree",
              "improvement");
  double sum_impr = 0;
  int rows = 0;
  for (int m : {30, 40, 50, 60, 70, 80, 90, 100, 120, 140, 160, 180, 200}) {
    Env env = MakeEnv("D7", m, /*with_doc=*/true);
    const auto pair = MakePair(env);
    const std::string& twig = TableIIIQueries()[9];
    const double tb = TimePtq(*pair, env, twig, /*use_block_tree=*/false);
    const double tt = TimePtq(*pair, env, twig, /*use_block_tree=*/true);
    const double impr = 100.0 * (tb - tt) / tb;
    sum_impr += impr;
    ++rows;
    std::printf("%6d %12.4f %12.4f %11.1f%%\n", m, tb * 1e3, tt * 1e3, impr);
  }
  std::printf("\naverage improvement: %.1f%% (paper: 47.05%%, block-tree "
              "consistently ahead across |M|)\n",
              sum_impr / rows);
  return 0;
}
