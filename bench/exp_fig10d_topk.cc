// Figure 10(d): top-k PTQ vs normal PTQ as k varies (Q10).
//
// Each row times the normal PTQ and the top-k PTQ in kPairs alternating
// pairs (the order flips every pair) and reports each side's median, so
// slow drift over the run (frequency scaling, cache warmth) lands on
// both sides of a row alike. k = |M| selects every mapping, so that row
// should read within noise of the normal PTQ.
#include <algorithm>
#include <vector>

#include "bench/bench_util.h"

namespace {

constexpr int kPairs = 3;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main() {
  using namespace uxm;
  using namespace uxm::bench;
  PrintHeader("exp_fig10d_topk", "Figure 10(d): Tq vs k (Q10, top-k PTQ)");
  Env env = MakeEnv("D7", kDefaultM, /*with_doc=*/true);
  const auto pair = MakePair(env);
  const std::string& twig = TableIIIQueries()[9];
  std::printf("%6s %12s %12s %12s\n", "k", "top-k (ms)", "normal (ms)",
              "improvement");
  for (int k : {10, 20, 30, 40, 50, 60, 70, 80, 90, 100}) {
    std::vector<double> normal_s;
    std::vector<double> topk_s;
    for (int p = 0; p < kPairs; ++p) {
      const bool normal_first = p % 2 == 0;
      if (normal_first) {
        normal_s.push_back(TimePtq(*pair, env, twig, /*use_block_tree=*/true));
      }
      topk_s.push_back(TimePtq(*pair, env, twig, /*use_block_tree=*/true, k));
      if (!normal_first) {
        normal_s.push_back(TimePtq(*pair, env, twig, /*use_block_tree=*/true));
      }
    }
    const double normal = Median(normal_s);
    const double topk = Median(topk_s);
    std::printf("%6d %12.4f %12.4f %11.1f%%\n", k, topk * 1e3, normal * 1e3,
                100.0 * (normal - topk) / normal);
  }
  std::printf("\npaper: 90.3%% faster at k=10; top-k cost grows toward the "
              "normal PTQ as k -> |M| (|M| = %d here).\n",
              kDefaultM);
  return 0;
}
