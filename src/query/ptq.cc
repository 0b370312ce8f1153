#include "query/ptq.h"

#include <algorithm>

#include "common/logging.h"

namespace uxm {

std::vector<MappingAnswer> PtqResult::CollapseByMatches() const {
  std::vector<MappingAnswer> collapsed;
  for (const MappingAnswer& a : answers) {
    bool merged = false;
    for (MappingAnswer& c : collapsed) {
      if (c.matches == a.matches) {
        c.probability += a.probability;
        merged = true;
        break;
      }
    }
    if (!merged) {
      collapsed.push_back(a);
    }
  }
  std::sort(collapsed.begin(), collapsed.end(),
            [](const MappingAnswer& x, const MappingAnswer& y) {
              return x.probability > y.probability;
            });
  return collapsed;
}

double PtqResult::NonEmptyMass() const {
  double mass = 0.0;
  for (const MappingAnswer& a : answers) {
    if (!a.matches.empty()) mass += a.probability;
  }
  return mass;
}

std::vector<std::vector<SchemaNodeId>> EmbedQueryInSchema(
    const TwigQuery& query, const Schema& schema, size_t max_embeddings,
    bool* truncated) {
  // Enumerate one embedding beyond the cap when the caller wants to know
  // whether the cap actually bit; the extra is dropped before returning.
  const size_t limit = (truncated != nullptr && max_embeddings > 0)
                           ? max_embeddings + 1
                           : max_embeddings;
  if (truncated != nullptr) *truncated = false;
  std::vector<std::vector<SchemaNodeId>> out;
  if (query.size() == 0) return out;

  // Root candidates.
  std::vector<SchemaNodeId> root_cands;
  if (query.absolute_root()) {
    if (schema.name(schema.root()) == query.node(0).label) {
      root_cands.push_back(schema.root());
    }
  } else {
    root_cands = schema.FindByName(query.node(0).label);
  }

  std::vector<SchemaNodeId> embedding(static_cast<size_t>(query.size()),
                                      kInvalidSchemaNode);
  const std::vector<int> pre = query.SubtreeNodes(0);

  auto candidates_for = [&](int qi) -> std::vector<SchemaNodeId> {
    const TwigNode& qn = query.node(qi);
    if (qi == 0) return root_cands;
    const SchemaNodeId pe = embedding[static_cast<size_t>(qn.parent)];
    std::vector<SchemaNodeId> cands;
    if (qn.axis == Axis::kChild) {
      for (SchemaNodeId c : schema.node(pe).children) {
        if (schema.name(c) == qn.label) cands.push_back(c);
      }
    } else {
      for (SchemaNodeId c : schema.FindByName(qn.label)) {
        if (c != pe && schema.IsAncestorOrSelf(pe, c)) cands.push_back(c);
      }
    }
    return cands;
  };

  struct Frame {
    std::vector<SchemaNodeId> cands;
    size_t next = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({candidates_for(pre[0]), 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    const size_t depth = stack.size() - 1;
    const int qi = pre[depth];
    if (f.next >= f.cands.size()) {
      embedding[static_cast<size_t>(qi)] = kInvalidSchemaNode;
      stack.pop_back();
      continue;
    }
    embedding[static_cast<size_t>(qi)] = f.cands[f.next++];
    if (depth + 1 == pre.size()) {
      out.push_back(embedding);
      if (limit > 0 && out.size() >= limit) break;
      continue;
    }
    stack.push_back({candidates_for(pre[depth + 1]), 0});
  }
  if (truncated != nullptr && max_embeddings > 0 &&
      out.size() > max_embeddings) {
    *truncated = true;
    out.resize(max_embeddings);
    // Once per distinct twig, not once per evaluation: a capped twig
    // repeated across a large batch must not flood stderr. (Callers also
    // see PtqResult::truncated_embeddings per answer.)
    if (LogFirstSighting("truncated_embeddings:" + query.ToString())) {
      UXM_LOG(Warning) << "query '" << query.ToString()
                       << "' embeddings truncated at " << max_embeddings
                       << "; its answers may be incomplete";
    }
  }
  return out;
}

bool IsMappingRelevant(
    const PossibleMapping& m,
    const std::vector<std::vector<SchemaNodeId>>& embeddings) {
  for (const auto& emb : embeddings) {
    bool all = true;
    for (SchemaNodeId t : emb) {
      if (t != kInvalidSchemaNode && m.SourceFor(t) == kInvalidSchemaNode) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

void SortByProbabilityDescending(const PossibleMappingSet& mappings,
                                 std::vector<MappingId>* ids) {
  std::stable_sort(ids->begin(), ids->end(),
                   [&](MappingId a, MappingId b) {
                     return mappings.mapping(a).probability >
                            mappings.mapping(b).probability;
                   });
}

std::vector<MappingId> FilterRelevantMappings(
    const PossibleMappingSet& mappings,
    const std::vector<std::vector<SchemaNodeId>>& embeddings, int top_k) {
  std::vector<MappingId> relevant;
  for (MappingId mid = 0; mid < mappings.size(); ++mid) {
    if (IsMappingRelevant(mappings.mapping(mid), embeddings)) {
      relevant.push_back(mid);
    }
  }
  if (top_k > 0) {
    // §IV-C: keep only the k most probable relevant mappings.
    SortByProbabilityDescending(mappings, &relevant);
    if (static_cast<int>(relevant.size()) > top_k) {
      relevant.resize(static_cast<size_t>(top_k));
    }
    std::sort(relevant.begin(), relevant.end());
  }
  return relevant;
}

}  // namespace uxm
