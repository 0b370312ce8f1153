// Figure 10(b): block-tree PTQ time for Q10 as τ varies. The paper's
// non-monotone curve: Tq rises as blocks disappear (less sharing), then
// falls again at large τ where few but widely-shared blocks remain and
// decompose/merge overhead shrinks.
#include "bench/bench_util.h"

int main() {
  using namespace uxm;
  using namespace uxm::bench;
  PrintHeader("exp_fig10b_tau", "Figure 10(b): Tq vs tau (Q10, block-tree)");
  Env env = MakeEnv("D7", kDefaultM, /*with_doc=*/true);
  std::printf("%6s %12s %10s\n", "tau", "Tq (ms)", "blocks");
  for (double tau : {0.02, 0.12, 0.22, 0.32, 0.42, 0.52, 0.65}) {
    const auto pair = MakePair(env, tau);
    const double tq = TimePtq(*pair, env, TableIIIQueries()[9],
                              /*use_block_tree=*/true);
    std::printf("%6.2f %12.4f %10u\n", tau, tq * 1e3,
                pair->flat->tree.num_blocks());
  }
  std::printf("\npaper: Tq rises from tau=0.02 to ~0.2, then drops for "
              "tau >= 0.4.\n");
  return 0;
}
