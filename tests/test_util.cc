#include "tests/test_util.h"

#include <utility>

#include <gtest/gtest.h>

#include "blocktree/block_tree.h"
#include "common/logging.h"
#include "plan/driver.h"

namespace uxm {
namespace testutil {

PaperExample MakePaperExample() {
  PaperExample ex;
  ex.source = std::make_shared<Schema>("Fig1a");
  Schema& s = *ex.source;
  ex.s_order = s.AddRoot("Order");
  ex.s_bp = s.AddChild(ex.s_order, "BP");
  ex.s_boc = s.AddChild(ex.s_bp, "BOC");
  ex.s_bcn = s.AddChild(ex.s_boc, "BCN");
  ex.s_roc = s.AddChild(ex.s_bp, "ROC");
  ex.s_rcn = s.AddChild(ex.s_roc, "RCN");
  ex.s_ooc = s.AddChild(ex.s_bp, "OOC");
  ex.s_ocn = s.AddChild(ex.s_ooc, "OCN");
  ex.s_ssp = s.AddChild(ex.s_order, "SSP");
  s.Finalize();

  ex.target = std::make_shared<Schema>("Fig1b");
  Schema& t = *ex.target;
  ex.t_order = t.AddRoot("ORDER");
  ex.t_ip = t.AddChild(ex.t_order, "IP");
  ex.t_icn = t.AddChild(ex.t_ip, "ICN");
  ex.t_sp = t.AddChild(ex.t_order, "SP");
  ex.t_scn = t.AddChild(ex.t_sp, "SCN");
  t.Finalize();

  ex.mappings = PossibleMappingSet(ex.source.get(), ex.target.get());
  const int nt = t.size();
  // Figure 3, m1..m5.
  ex.mappings.Add(MakeMapping(nt, {{ex.t_order, ex.s_order},
                                   {ex.t_ip, ex.s_bp},
                                   {ex.t_icn, ex.s_bcn},
                                   {ex.t_scn, ex.s_rcn}}));
  ex.mappings.Add(MakeMapping(nt, {{ex.t_order, ex.s_order},
                                   {ex.t_ip, ex.s_bp},
                                   {ex.t_icn, ex.s_bcn},
                                   {ex.t_scn, ex.s_ocn}}));
  ex.mappings.Add(MakeMapping(nt, {{ex.t_order, ex.s_order},
                                   {ex.t_ip, ex.s_ssp},
                                   {ex.t_icn, ex.s_rcn},
                                   {ex.t_scn, ex.s_ocn},
                                   {ex.t_sp, ex.s_bp}}));
  ex.mappings.Add(MakeMapping(nt, {{ex.t_order, ex.s_order},
                                   {ex.t_ip, ex.s_bp},
                                   {ex.t_icn, ex.s_rcn},
                                   {ex.t_scn, ex.s_bcn}}));
  ex.mappings.Add(MakeMapping(nt, {{ex.t_order, ex.s_order},
                                   {ex.t_ip, ex.s_bp},
                                   {ex.t_icn, ex.s_ocn},
                                   {ex.t_scn, ex.s_bcn}}));
  ex.mappings.NormalizeProbabilities();

  // Figure 2 document.
  ex.doc = std::make_shared<Document>();
  Document& d = *ex.doc;
  const DocNodeId order = d.AddRoot("Order");
  const DocNodeId bp = d.AddChild(order, "BP");
  const DocNodeId boc = d.AddChild(bp, "BOC");
  d.AddChild(boc, "BCN", "Cathy");
  const DocNodeId roc = d.AddChild(bp, "ROC");
  d.AddChild(roc, "RCN", "Bob");
  const DocNodeId ooc = d.AddChild(bp, "OOC");
  d.AddChild(ooc, "OCN", "Alice");
  d.AddChild(order, "SSP");
  d.Finalize();
  return ex;
}

std::shared_ptr<Schema> MakeSchema(
    const std::vector<std::pair<int, std::string>>& nodes) {
  auto schema = std::make_shared<Schema>();
  for (const auto& [parent, name] : nodes) {
    if (parent < 0) {
      schema->AddRoot(name);
    } else {
      schema->AddChild(parent, name);
    }
  }
  schema->Finalize();
  return schema;
}

PossibleMapping MakeMapping(
    int target_size,
    const std::vector<std::pair<SchemaNodeId, SchemaNodeId>>& target_source,
    double score) {
  PossibleMapping m;
  m.target_to_source.assign(static_cast<size_t>(target_size),
                            kInvalidSchemaNode);
  for (const auto& [t, s] : target_source) {
    m.target_to_source[static_cast<size_t>(t)] = s;
  }
  m.score = score;
  return m;
}

std::shared_ptr<const PreparedSchemaPair> MakePairFromMappings(
    const PossibleMappingSet& mappings, double tau, int max_blocks,
    size_t max_embeddings) {
  BlockTreeBuilder builder(BlockTreeOptions{tau, max_blocks, 500});
  auto built = builder.Build(mappings);
  UXM_CHECK_MSG(built.ok(), built.status().ToString());
  return MakePreparedSchemaPairFromProducts(
      SchemaMatching(&mappings.source(), &mappings.target()), mappings,
      built->tree, max_embeddings);
}

std::shared_ptr<const PreparedSchemaPair> MakePaperPair(
    const PaperExample& ex, double tau) {
  return MakePairFromMappings(ex.mappings, tau);
}

Result<PtqResult> DrivePtq(const PreparedSchemaPair& pair,
                           const AnnotatedDocument& doc,
                           const std::string& twig, int top_k,
                           bool use_block_tree) {
  DriverRequest request;
  request.pair = &pair;
  request.doc = &doc;
  request.twig = &twig;
  request.options.top_k = top_k;
  request.use_block_tree = use_block_tree;
  return ExecutionDriver::Execute(request);
}

void ExpectSamePtq(const PtqResult& got, const PtqResult& want,
                   const std::string& context) {
  EXPECT_EQ(got.truncated_embeddings, want.truncated_embeddings) << context;
  ASSERT_EQ(got.answers.size(), want.answers.size()) << context;
  for (size_t i = 0; i < want.answers.size(); ++i) {
    EXPECT_EQ(got.answers[i].mapping, want.answers[i].mapping)
        << context << " answer " << i;
    EXPECT_EQ(got.answers[i].probability, want.answers[i].probability)
        << context << " answer " << i;
    EXPECT_EQ(got.answers[i].matches, want.answers[i].matches)
        << context << " answer " << i;
  }
}

}  // namespace testutil
}  // namespace uxm
