// Shared fixtures: the running example of the paper (Figures 1-3) and
// small helpers for building schemas/mappings by hand in tests.
#ifndef UXM_TESTS_TEST_UTIL_H_
#define UXM_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mapping/possible_mapping.h"
#include "plan/prepared_pair.h"
#include "query/annotated_document.h"
#include "query/ptq.h"
#include "xml/document.h"
#include "xml/schema.h"

namespace uxm {
namespace testutil {

/// The paper's running example (Figures 1-3).
///
/// Source (Figure 1(a)):            Target (Figure 1(b)):
///   Order                            ORDER
///     BP                               IP
///       BOC                              ICN
///         BCN                          SP
///       ROC                              SCN
///         RCN
///       OOC
///         OCN
///     SSP
struct PaperExample {
  std::shared_ptr<Schema> source;
  std::shared_ptr<Schema> target;
  /// The five possible mappings of Figure 3, uniform probability.
  PossibleMappingSet mappings;
  /// The source document of Figure 2 (Cathy / Bob / Alice).
  std::shared_ptr<Document> doc;

  // Element ids for convenient assertions.
  SchemaNodeId s_order, s_bp, s_boc, s_bcn, s_roc, s_rcn, s_ooc, s_ocn, s_ssp;
  SchemaNodeId t_order, t_ip, t_icn, t_sp, t_scn;
};

/// Builds the running example. Each mapping gets score 1 (=> uniform
/// probabilities after normalization).
PaperExample MakePaperExample();

/// Builds a finalized schema from (parent_index, name) pairs; entry 0 must
/// have parent -1 (root).
std::shared_ptr<Schema> MakeSchema(
    const std::vector<std::pair<int, std::string>>& nodes);

/// Builds a mapping over `target_size` with the given (target, source)
/// pairs and score.
PossibleMapping MakeMapping(
    int target_size,
    const std::vector<std::pair<SchemaNodeId, SchemaNodeId>>& target_source,
    double score = 1.0);

/// A PreparedSchemaPair over `mappings` (block tree built with threshold
/// `tau` and block cap `max_blocks`), for driving the plan/driver/executor
/// layers without the facade. The matching carries only the schema
/// identities — tests that care about matching contents build their own.
/// The mapping set's schemas must outlive the returned pair.
std::shared_ptr<const PreparedSchemaPair> MakePairFromMappings(
    const PossibleMappingSet& mappings, double tau = 0.2,
    int max_blocks = 500, size_t max_embeddings = 256);

/// MakePairFromMappings over the example's five mappings.
std::shared_ptr<const PreparedSchemaPair> MakePaperPair(
    const PaperExample& ex, double tau = 0.2);

/// One uncached ExecutionDriver::Execute of `twig` against `doc` — the
/// library's one PTQ front-end: Algorithm 4 when `use_block_tree`, else
/// Algorithm 3; top_k > 0 asks the §IV-C top-k PTQ.
Result<PtqResult> DrivePtq(const PreparedSchemaPair& pair,
                           const AnnotatedDocument& doc,
                           const std::string& twig, int top_k = 0,
                           bool use_block_tree = true);

/// EXPECTs `got` and `want` identical: same answers in the same order,
/// equal mapping ids, bit-identical probabilities and match lists, equal
/// truncation flags. `context` prefixes every failure message.
void ExpectSamePtq(const PtqResult& got, const PtqResult& want,
                   const std::string& context = "");

}  // namespace testutil
}  // namespace uxm

#endif  // UXM_TESTS_TEST_UTIL_H_
