// Figure 10(d): top-k PTQ vs normal PTQ as k varies (Q10).
#include "bench/bench_util.h"

int main() {
  using namespace uxm;
  using namespace uxm::bench;
  PrintHeader("exp_fig10d_topk", "Figure 10(d): Tq vs k (Q10, top-k PTQ)");
  Env env = MakeEnv("D7", kDefaultM, /*with_doc=*/true);
  const auto pair = MakePair(env);
  const std::string& twig = TableIIIQueries()[9];
  const double normal = TimePtq(*pair, env, twig, /*use_block_tree=*/true);
  std::printf("%6s %12s %12s %12s\n", "k", "top-k (ms)", "normal (ms)",
              "improvement");
  for (int k : {10, 20, 30, 40, 50, 60, 70, 80, 90, 100}) {
    const double topk =
        TimePtq(*pair, env, twig, /*use_block_tree=*/true, k);
    std::printf("%6d %12.4f %12.4f %11.1f%%\n", k, topk * 1e3, normal * 1e3,
                100.0 * (normal - topk) / normal);
  }
  std::printf("\npaper: 90.3%% faster at k=10; top-k cost grows toward the "
              "normal PTQ as k -> |M|.\n");
  return 0;
}
