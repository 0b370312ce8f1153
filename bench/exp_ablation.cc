// Ablations for design choices called out in DESIGN.md:
//   (1) Murty child-expansion ordering (Pascoal-style heavy-first vs
//       plain row order) — affects how early the bounded queue trims;
//   (2) query evaluation with vs without the hash table's block lookup
//       (tau = 1 yields an empty tree: pure decomposition).
#include "bench/bench_util.h"

int main() {
  using namespace uxm;
  using namespace uxm::bench;
  PrintHeader("exp_ablation", "design-choice ablations (not in the paper)");

  // (1) Murty child ordering, D4 (densest small matching).
  {
    auto dataset = LoadDataset("D4");
    UXM_CHECK(dataset.ok());
    for (const bool ordered : {true, false}) {
      TopHOptions opts;
      opts.h = 200;
      opts.strategy = TopHStrategy::kMurty;
      opts.full_bipartite_for_murty = true;
      opts.murty.order_children_by_weight = ordered;
      TopHGenerator gen(opts);
      const double t = AvgSeconds(
          [&] { (void)gen.Generate(dataset->matching); }, 2, 0.05);
      std::printf("murty child ordering %-12s Tg=%.4fs\n",
                  ordered ? "heavy-first" : "row-order", t);
    }
  }

  // (2) Block lookup on/off for Q7.
  {
    Env env = MakeEnv("D7", kDefaultM, /*with_doc=*/true);
    const auto with_blocks = MakePair(env, kDefaultTau);
    const auto no_blocks = MakePair(env, /*tau=*/1.0);  // empty tree
    const std::string& twig = TableIIIQueries()[6];
    const double t_on =
        TimePtq(*with_blocks, env, twig, /*use_block_tree=*/true);
    const double t_off =
        TimePtq(*no_blocks, env, twig, /*use_block_tree=*/true);
    std::printf("Q7 with blocks=%.4fms, empty tree (pure decomposition)="
                "%.4fms (%.1fx)\n",
                t_on * 1e3, t_off * 1e3, t_off / t_on);
  }
  return 0;
}
