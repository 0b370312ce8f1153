#include "tests/oracle/naive_ptq.h"

#include <algorithm>
#include <vector>

#include "tests/oracle/twig_matcher.h"

namespace uxm {
namespace oracle {

PtqResult NaivePtq(const PossibleMappingSet& mappings,
                   const AnnotatedDocument& doc, const TwigQuery& query,
                   const PtqOptions& options) {
  PtqResult result;
  const auto embeddings =
      EmbedQueryInSchema(query, mappings.target(), options.max_embeddings,
                         &result.truncated_embeddings);
  const TwigMatcher matcher(&doc);
  for (MappingId mid :
       FilterRelevantMappings(mappings, embeddings, options.top_k)) {
    const PossibleMapping& m = mappings.mapping(mid);
    MappingAnswer answer{mid, m.probability, {}};
    for (const auto& embedding : embeddings) {
      // An unmapped node binds kInvalidSchemaNode, which has no
      // candidates, so the embedding contributes nothing under m.
      std::vector<SchemaNodeId> binding(embedding.size());
      for (size_t i = 0; i < embedding.size(); ++i) {
        binding[i] = m.SourceFor(embedding[i]);
      }
      for (const auto& [root, out] :
           matcher.MatchProjected(query, binding).outputs) {
        answer.matches.push_back(out);
      }
    }
    std::sort(answer.matches.begin(), answer.matches.end());
    answer.matches.erase(
        std::unique(answer.matches.begin(), answer.matches.end()),
        answer.matches.end());
    result.answers.push_back(std::move(answer));
  }
  return result;
}

}  // namespace oracle
}  // namespace uxm
