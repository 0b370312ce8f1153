// The naive Definition-4 evaluator: the independent oracle the library's
// flat kernel (src/query/flat_kernel.h) is differential-tested against.
//
//   R = { (R_i, p_i) : m_i relevant }
//
// For every relevant mapping m (FilterRelevantMappings, with §IV-C's
// top-k restriction) and every schema embedding of the twig, query node i
// is bound to m.SourceFor(embedding[i]); the bound twig is matched with
// TwigMatcher::MatchProjected and the output bindings are unioned into
// R_i. It shares none of the kernel's machinery: no binding-tuple
// memoization, no fingerprint-shared answer assembly, no c-block fast
// path, no arena and no cancellation — one PossibleMapping at a time,
// straight from the definition. Algorithm 3 and Algorithm 4 must both
// equal it exactly.
#ifndef UXM_TESTS_ORACLE_NAIVE_PTQ_H_
#define UXM_TESTS_ORACLE_NAIVE_PTQ_H_

#include "mapping/possible_mapping.h"
#include "query/annotated_document.h"
#include "query/ptq.h"
#include "query/twig_query.h"

namespace uxm {
namespace oracle {

/// Evaluates `query` against `doc` (annotated against mappings.source())
/// under every relevant mapping of `mappings`. options.top_k > 0 keeps
/// the k most probable relevant mappings; options.max_embeddings caps the
/// schema embeddings, and truncated_embeddings reports whether the cap
/// bit. Answers come in ascending mapping id, each match list sorted and
/// distinct — the kernel's output order.
PtqResult NaivePtq(const PossibleMappingSet& mappings,
                   const AnnotatedDocument& doc, const TwigQuery& query,
                   const PtqOptions& options = {});

}  // namespace oracle
}  // namespace uxm

#endif  // UXM_TESTS_ORACLE_NAIVE_PTQ_H_
