// Probabilistic Twig Query evaluation (§IV). A PTQ is a twig pattern on
// the target schema T, answered against a document conforming to the
// source schema S, once per possible mapping:
//
//   R = { (R_i, p_i) : m_i relevant }        (Definition 4)
//
// This header holds the answer types and the schema-level steps every
// evaluation starts from: embedding the twig into T and the relevance
// filter of Algorithms 3/4 (filter_mappings), with the §IV-C top-k
// restriction. Evaluation itself runs through one front-end,
// ExecutionDriver::Execute (plan/driver.h), over the flat kernel
// (query/flat_kernel.h): use_block_tree selects Algorithm 4
// (twig_query_tree) or Algorithm 3 (query_basic), and options.top_k the
// top-k PTQ. FilterRelevantMappings is the eager form of the selection
// the plan layer performs lazily; tests and benches use it as the
// reference the early-terminating selection must equal.
//
// Query-to-schema resolution: a twig's labels may occur at several places
// in T (e.g. ContactName in Figure 1), so the query is first *embedded*
// into the target schema — every assignment of schema elements to query
// nodes consistent with the labels and axes. Each embedding is rewritten
// per mapping; answers are unioned. This mirrors the constraint-based
// rewriting of [2] on our tree-shaped schemas.
#ifndef UXM_QUERY_PTQ_H_
#define UXM_QUERY_PTQ_H_

#include <vector>

#include "mapping/possible_mapping.h"
#include "query/annotated_document.h"
#include "query/twig_query.h"

namespace uxm {

/// \brief Answer for one mapping: (R_i, p_i).
///
/// R_i is reported under output-node semantics: the distinct document
/// nodes that bind the query's distinguished node in some full match of
/// the (rewritten) twig — exactly the intro example's answers, where
/// //IP//ICN returns the ContactName instances "Cathy"/"Bob"/"Alice".
struct MappingAnswer {
  MappingId mapping = -1;
  double probability = 0.0;
  std::vector<DocNodeId> matches;  ///< R_i, sorted, distinct; may be empty.
};

/// \brief Full PTQ result.
struct PtqResult {
  std::vector<MappingAnswer> answers;

  /// True if the PtqOptions::max_embeddings cap cut the schema-embedding
  /// enumeration short, i.e. the answers may be incomplete. Capped answers
  /// were previously indistinguishable from complete ones.
  bool truncated_embeddings = false;

  /// Groups answers with identical match sets and sums their
  /// probabilities (the collapsed view of the intro example, where
  /// {("Bob", .3), ("Alice", .2)} aggregates over mappings).
  std::vector<MappingAnswer> CollapseByMatches() const;

  /// Total probability mass of answers with at least one match.
  double NonEmptyMass() const;
};

/// \brief Evaluation options.
struct PtqOptions {
  /// k > 0 enables top-k PTQ: only the k most probable relevant mappings
  /// are evaluated (§IV-C). 0 evaluates all relevant mappings.
  int top_k = 0;
  /// Cap on schema embeddings considered per query (0 = unlimited).
  size_t max_embeddings = 256;
};

/// \brief Embeds a twig query into a schema: every assignment of schema
/// elements to query nodes consistent with labels and axes. Exposed for
/// testing. `embedding[i]` is the schema element for query node i.
/// When `truncated` is non-null it is set to whether the max_embeddings
/// cap cut the enumeration short (one extra embedding is probed to tell),
/// and a warning is logged when it did.
std::vector<std::vector<SchemaNodeId>> EmbedQueryInSchema(
    const TwigQuery& query, const Schema& schema, size_t max_embeddings,
    bool* truncated = nullptr);

/// \brief The per-mapping relevance predicate: true iff some embedding
/// is fully mapped under `m`. FilterRelevantMappings runs it; the plan
/// layer's lazy memo (plan/query_plan.h) runs its flat twin IsRowRelevant
/// — their exact agreement is what makes early-termination top-k exact.
bool IsMappingRelevant(
    const PossibleMapping& m,
    const std::vector<std::vector<SchemaNodeId>>& embeddings);

/// \brief Stable-sorts `ids` most-probable-first; equal probabilities
/// keep their prior order (so ascending-id input ties by ascending id).
/// The ONE §IV-C ranking order, shared by FilterRelevantMappings and
/// MappingOrder::Build.
void SortByProbabilityDescending(const PossibleMappingSet& mappings,
                                 std::vector<MappingId>* ids);

/// \brief filter_mappings (+ the §IV-C top-k restriction): ids of the
/// mappings under which some embedding is fully mapped, ascending.
/// top_k > 0 keeps only the k most probable of them (stable order), still
/// returned ascending by id.
std::vector<MappingId> FilterRelevantMappings(
    const PossibleMappingSet& mappings,
    const std::vector<std::vector<SchemaNodeId>>& embeddings, int top_k);

}  // namespace uxm

#endif  // UXM_QUERY_PTQ_H_
