// The paper's introduction, end to end: the XCBL/OpenTrans fragment of
// Figure 1, the source document of Figure 2, the five possible mappings
// of Figure 3, the block tree of Figure 5, and the query Q = //IP//ICN
// whose probabilistic answers are "Cathy" / "Bob" / "Alice".
//
//   $ ./purchase_order_integration
#include <cstdio>

#include "core/uxm.h"

using namespace uxm;

namespace {

PossibleMapping MakeMapping(
    int target_size,
    const std::vector<std::pair<SchemaNodeId, SchemaNodeId>>& pairs,
    double score) {
  PossibleMapping m;
  m.target_to_source.assign(static_cast<size_t>(target_size),
                            kInvalidSchemaNode);
  for (const auto& [t, s] : pairs) {
    m.target_to_source[static_cast<size_t>(t)] = s;
  }
  m.score = score;
  return m;
}

}  // namespace

int main() {
  // ---- Figure 1(a): the source schema (XCBL-flavoured) ----
  Schema source("Fig1a");
  const auto s_order = source.AddRoot("Order");
  const auto s_bp = source.AddChild(s_order, "BillToParty");
  const auto s_boc = source.AddChild(s_bp, "OrderContact");
  const auto s_bcn = source.AddChild(s_boc, "ContactName");
  const auto s_roc = source.AddChild(s_bp, "ReceivingContact");
  const auto s_rcn = source.AddChild(s_roc, "ContactName");
  const auto s_ooc = source.AddChild(s_bp, "OtherContact");
  const auto s_ocn = source.AddChild(s_ooc, "ContactName");
  const auto s_sp = source.AddChild(s_order, "SellerParty");
  source.Finalize();

  // ---- Figure 1(b): the target schema (OpenTrans-flavoured) ----
  Schema target("Fig1b");
  const auto t_order = target.AddRoot("ORDER");
  const auto t_ip = target.AddChild(t_order, "INVOICE_PARTY");
  const auto t_icn = target.AddChild(t_ip, "CONTACT_NAME");
  const auto t_sp = target.AddChild(t_order, "SUPPLIER_PARTY");
  const auto t_scn = target.AddChild(t_sp, "CONTACT_NAME");
  target.Finalize();

  // ---- Figure 2: the source document ----
  Document doc;
  const auto d_order = doc.AddRoot("Order");
  const auto d_bp = doc.AddChild(d_order, "BillToParty");
  const auto d_boc = doc.AddChild(d_bp, "OrderContact");
  doc.AddChild(d_boc, "ContactName", "Cathy");
  const auto d_roc = doc.AddChild(d_bp, "ReceivingContact");
  doc.AddChild(d_roc, "ContactName", "Bob");
  const auto d_ooc = doc.AddChild(d_bp, "OtherContact");
  doc.AddChild(d_ooc, "ContactName", "Alice");
  doc.AddChild(d_order, "SellerParty");
  doc.Finalize();
  std::printf("Figure 2 document as XML:\n%s\n",
              WriteXml(doc, XmlWriteOptions{.declaration = false}).c_str());

  // ---- Figure 3: five possible mappings; probabilities mirror the
  //      intro's 0.3 / 0.3 / 0.2 discussion for the ICN alternatives. ----
  PossibleMappingSet mappings(&source, &target);
  const int nt = target.size();
  mappings.Add(MakeMapping(nt,
                           {{t_order, s_order},
                            {t_ip, s_bp},
                            {t_icn, s_bcn},
                            {t_scn, s_rcn}},
                           0.15));  // m1
  mappings.Add(MakeMapping(nt,
                           {{t_order, s_order},
                            {t_ip, s_bp},
                            {t_icn, s_bcn},
                            {t_scn, s_ocn}},
                           0.15));  // m2
  mappings.Add(MakeMapping(nt,
                           {{t_order, s_order},
                            {t_ip, s_sp},
                            {t_icn, s_rcn},
                            {t_scn, s_ocn},
                            {t_sp, s_bp}},
                           0.20));  // m3
  mappings.Add(MakeMapping(nt,
                           {{t_order, s_order},
                            {t_ip, s_bp},
                            {t_icn, s_rcn},
                            {t_scn, s_bcn}},
                           0.30));  // m4
  mappings.Add(MakeMapping(nt,
                           {{t_order, s_order},
                            {t_ip, s_bp},
                            {t_icn, s_ocn},
                            {t_scn, s_bcn}},
                           0.20));  // m5
  mappings.NormalizeProbabilities();

  // ---- Figure 5: the block tree (tau = 0.4 as in §III's walkthrough) ----
  BlockTreeBuilder builder(BlockTreeOptions{0.4, 500, 500});
  auto built = builder.Build(mappings);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  std::printf("block tree (tau=0.4):\n");
  for (SchemaNodeId t = 0; t < target.size(); ++t) {
    for (const CBlock& b : built->tree.BlocksAt(t)) {
      std::printf("  anchor %-32s C={", target.path(t).c_str());
      for (size_t i = 0; i < b.corrs.size(); ++i) {
        std::printf("%s%s~%s", i ? ", " : "",
                    source.name(b.corrs[i].source).c_str(),
                    target.name(b.corrs[i].target).c_str());
      }
      std::printf("}  M={");
      for (size_t i = 0; i < b.mappings.size(); ++i) {
        std::printf("%sm%d", i ? "," : "", b.mappings[i] + 1);
      }
      std::printf("}\n");
    }
  }

  // ---- The intro query: contact name of the invoice party ----
  auto ad = AnnotatedDocument::Bind(&doc, &source);
  // Algorithm 4 through the execution driver, over a pair prepared from
  // the hand-built mappings and block tree.
  const auto pair = MakePreparedSchemaPairFromProducts(
      SchemaMatching(&source, &target), mappings, built->tree);
  const std::string twig = "//INVOICE_PARTY//CONTACT_NAME";
  DriverRequest request;
  request.pair = pair.get();
  request.doc = &*ad;
  request.twig = &twig;
  auto result = ExecutionDriver::Execute(request);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("\nPTQ //INVOICE_PARTY//CONTACT_NAME:\n");
  for (const MappingAnswer& a : result->answers) {
    std::printf("  m%d (p=%.2f):", a.mapping + 1, a.probability);
    if (a.matches.empty()) std::printf(" no match");
    for (DocNodeId n : a.matches) std::printf(" \"%s\"", doc.text(n).c_str());
    std::printf("\n");
  }
  std::printf("aggregated:\n");
  for (const MappingAnswer& g : result->CollapseByMatches()) {
    std::printf("  p=%.2f ->", g.probability);
    if (g.matches.empty()) std::printf(" (empty)");
    for (DocNodeId n : g.matches) std::printf(" \"%s\"", doc.text(n).c_str());
    std::printf("\n");
  }
  return 0;
}
