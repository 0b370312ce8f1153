// Twig pattern matching against an annotated document — the test
// oracle's matcher. A query whose nodes are *bound* to source schema
// elements (the output of rewriting a target query through a mapping) is
// matched by enumerating all node tuples satisfying labels, predicates,
// and the '/'/'//' structural relationships — the "match" of §IV-A.
//
// This is deliberately the plain, allocation-happy formulation: vectors
// per query node, no arena, no memoization across mappings. The library's
// flat kernel (src/query/flat_kernel.h) computes the same projected
// matches its own way; naive_ptq.h builds Definition 4 on MatchProjected
// so the two can be compared.
#ifndef UXM_TESTS_ORACLE_TWIG_MATCHER_H_
#define UXM_TESTS_ORACLE_TWIG_MATCHER_H_

#include <vector>

#include "query/annotated_document.h"
#include "query/twig_query.h"

namespace uxm {

/// A match assigns a document node to every query node; index i holds the
/// document node matched to query node i (slots outside the evaluated
/// subquery hold kInvalidDocNode).
using TwigMatch = std::vector<DocNodeId>;

/// \brief Options bounding match enumeration.
struct TwigMatchOptions {
  /// Safety cap on the number of matches enumerated per (query, mapping)
  /// pair; 0 = unlimited. Matches beyond the cap are dropped.
  size_t max_matches = 0;
  /// Rewritten queries run against the *source* document, whose structure
  /// differs from the target schema's: a '/' edge in the target query
  /// generally corresponds to a longer downward path in the source (the
  /// constraint-based rewriting of [2] inserts the intermediate steps).
  /// When true (the default, and the library kernel's only semantics),
  /// '/' edges are therefore matched as ancestor-descendant. Set to false
  /// to match a twig with strict parent-child semantics on its own schema.
  bool relax_child_axis = true;
};

/// \brief Matches bound twigs against an annotated document.
class TwigMatcher {
 public:
  explicit TwigMatcher(const AnnotatedDocument* doc,
                       TwigMatchOptions options = {})
      : doc_(doc), options_(options) {}

  /// Matches the subquery rooted at `q_root` (default: whole query).
  /// `binding[i]` is the source schema element bound to query node i;
  /// any node of the subquery bound to kInvalidSchemaNode yields no
  /// matches. Results are full-width TwigMatch vectors.
  std::vector<TwigMatch> Match(const TwigQuery& query,
                               const std::vector<SchemaNodeId>& binding,
                               int q_root = 0) const;

  /// Candidate document nodes for a single bound query node: instances of
  /// the bound element filtered by the node's value predicate. Sorted by
  /// document order.
  std::vector<DocNodeId> Candidates(const TwigQuery& query, int q_node,
                                    SchemaNodeId bound) const;

  /// \brief Projected (output-node) matching result for a subquery.
  ///
  /// `roots` are the document nodes that can bind the subquery root such
  /// that the whole subquery matches below them (existential semantics).
  /// When the query's output node lies inside the subquery, `has_output`
  /// is true and `outputs` holds distinct (root, output-binding) pairs.
  struct ProjectedMatches {
    std::vector<DocNodeId> roots;  ///< sorted by document order
    bool has_output = false;
    std::vector<std::pair<DocNodeId, DocNodeId>> outputs;  ///< sorted, unique
  };

  /// Matches the subquery rooted at `q_root` under output-node semantics.
  /// This is the evaluation primitive of the naive PTQ oracle (Definition
  /// 4's answers projected to the query's distinguished node); it avoids
  /// enumerating full node tuples and is therefore immune to
  /// cross-product blowup.
  ProjectedMatches MatchProjected(const TwigQuery& query,
                                  const std::vector<SchemaNodeId>& binding,
                                  int q_root = 0) const;

  const AnnotatedDocument& doc() const { return *doc_; }
  const TwigMatchOptions& options() const { return options_; }

 private:
  const AnnotatedDocument* doc_;
  TwigMatchOptions options_;
};

/// Sorts and deduplicates a match list in place (used when answers from
/// several schema embeddings are unioned).
void SortAndDedupeMatches(std::vector<TwigMatch>* matches);

}  // namespace uxm

#endif  // UXM_TESTS_ORACLE_TWIG_MATCHER_H_
