// A guided tour of PTQ evaluation internals on dataset D7: schema
// embedding, per-mapping rewriting, relevance filtering, block-tree
// acceleration, and top-k restriction — the machinery of §IV made
// visible.
//
//   $ ./query_rewriting_tour "Order/POLine[./LineNo]//UnitPrice"
#include <cstdio>

#include "core/uxm.h"

using namespace uxm;

int main(int argc, char** argv) {
  const std::string query_text =
      argc > 1 ? argv[1] : "Order/POLine[./LineNo]//UnitPrice";

  auto dataset = LoadDataset("D7");
  if (!dataset.ok()) return 1;
  const Schema& source = *dataset->source;
  const Schema& target = *dataset->target;

  auto q = TwigQuery::Parse(query_text);
  if (!q.ok()) {
    std::fprintf(stderr, "parse error: %s\n", q.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s (%d nodes, output node label %s)\n\n",
              q->ToString().c_str(), q->size(),
              q->node(q->output_node()).label.c_str());

  // 1. Embed the twig into the target schema.
  const auto embeddings = EmbedQueryInSchema(*q, target, 16);
  std::printf("schema embeddings: %zu\n", embeddings.size());
  for (const auto& emb : embeddings) {
    for (int i = 0; i < q->size(); ++i) {
      std::printf("  q[%d] %-12s -> %s\n", i, q->node(i).label.c_str(),
                  target.path(emb[static_cast<size_t>(i)]).c_str());
    }
  }

  // 2. Generate the possible mappings and show how the first embedding
  //    rewrites under the two most probable ones.
  TopHOptions th;
  th.h = 100;
  TopHGenerator gen(th);
  auto mappings = gen.Generate(dataset->matching);
  std::printf("\n|M| = %d mappings; rewriting embedding #1:\n",
              mappings->size());
  for (MappingId mid = 0; mid < 2 && mid < mappings->size(); ++mid) {
    std::printf("  mapping m%d (p=%.3f):\n", mid + 1,
                mappings->mapping(mid).probability);
    for (int i = 0; i < q->size(); ++i) {
      const SchemaNodeId t = embeddings[0][static_cast<size_t>(i)];
      const SchemaNodeId s = mappings->mapping(mid).SourceFor(t);
      std::printf("    %-12s => %s\n", q->node(i).label.c_str(),
                  s == kInvalidSchemaNode ? "(unmapped)"
                                          : source.path(s).c_str());
    }
  }

  // 3. Evaluate against a document through the execution driver,
  //    comparing Algorithm 3 with Algorithm 4. The pair flattens the
  //    mappings and their block tree.
  Document doc = GenerateDocument(
      source, DocGenOptions{.seed = 7, .target_nodes = 3473});
  auto ad = AnnotatedDocument::Bind(&doc, &source);
  BlockTreeBuilder builder(BlockTreeOptions{0.2, 500, 500});
  auto built = builder.Build(*mappings);
  const auto pair = MakePreparedSchemaPairFromProducts(
      dataset->matching, *mappings, built->tree);
  DriverRequest request;
  request.pair = pair.get();
  request.doc = &*ad;
  request.twig = &query_text;

  request.use_block_tree = false;
  Timer tb;
  auto basic = ExecutionDriver::Execute(request);
  const double basic_s = tb.ElapsedSeconds();
  request.use_block_tree = true;
  Timer tt;
  auto tree = ExecutionDriver::Execute(request);
  const double tree_s = tt.ElapsedSeconds();
  if (!basic.ok() || !tree.ok()) {
    std::fprintf(stderr, "evaluation failed\n");
    return 1;
  }
  std::printf("\nquery_basic: %.2f ms, twig_query_tree: %.2f ms "
              "(%u c-blocks in the tree)\n",
              basic_s * 1e3, tree_s * 1e3, pair->flat->tree.num_blocks());
  size_t total = 0;
  for (const auto& a : tree->answers) total += a.matches.size();
  std::printf("answers: %zu relevant mappings, %zu output bindings, "
              "non-empty mass %.2f\n",
              tree->answers.size(), total, tree->NonEmptyMass());

  // 4. Top-k restriction.
  request.options.top_k = 10;
  Timer tk;
  auto top = ExecutionDriver::Execute(request);
  std::printf("top-10 PTQ: %.2f ms, %zu answers\n",
              tk.ElapsedSeconds() * 1e3, top->answers.size());
  return 0;
}
