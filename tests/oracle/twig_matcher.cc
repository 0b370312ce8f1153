#include "tests/oracle/twig_matcher.h"

#include <algorithm>

namespace uxm {

std::vector<DocNodeId> TwigMatcher::Candidates(const TwigQuery& query,
                                               int q_node,
                                               SchemaNodeId bound) const {
  std::vector<DocNodeId> out;
  if (bound == kInvalidSchemaNode) return out;
  const std::vector<DocNodeId>& inst = doc_->InstancesOf(bound);
  const TwigNode& qn = query.node(q_node);
  if (!qn.value_eq.has_value()) return inst;
  for (DocNodeId n : inst) {
    if (doc_->doc().text(n) == *qn.value_eq) out.push_back(n);
  }
  return out;
}

std::vector<TwigMatch> TwigMatcher::Match(
    const TwigQuery& query, const std::vector<SchemaNodeId>& binding,
    int q_root) const {
  const Document& doc = doc_->doc();
  const int width = query.size();

  // Bottom-up over the subquery: matches[q] holds the full-width tuples of
  // the subquery rooted at q, sorted by the doc node matched at q.
  std::vector<std::vector<TwigMatch>> matches(static_cast<size_t>(width));
  bool overflow = false;

  // Post-order traversal of the subquery.
  std::vector<int> order;
  {
    std::vector<std::pair<int, size_t>> stack{{q_root, 0}};
    while (!stack.empty()) {
      auto& [q, ci] = stack.back();
      const auto& ch = query.node(q).children;
      if (ci < ch.size()) {
        stack.push_back({ch[ci++], 0});
      } else {
        order.push_back(q);
        stack.pop_back();
      }
    }
  }

  for (int q : order) {
    const TwigNode& qn = query.node(q);
    const std::vector<DocNodeId> cands =
        Candidates(query, q, binding[static_cast<size_t>(q)]);
    std::vector<TwigMatch>& out = matches[static_cast<size_t>(q)];
    if (qn.children.empty()) {
      out.reserve(cands.size());
      for (DocNodeId d : cands) {
        TwigMatch m(static_cast<size_t>(width), kInvalidDocNode);
        m[static_cast<size_t>(q)] = d;
        out.push_back(std::move(m));
      }
      continue;
    }
    // For each candidate, select per-child sub-matches whose roots lie in
    // the candidate's region, then take the cross product.
    for (DocNodeId d : cands) {
      const DocNode& dn = doc.node(d);
      std::vector<std::vector<const TwigMatch*>> per_child;
      per_child.reserve(qn.children.size());
      bool dead = false;
      for (int c : qn.children) {
        const TwigNode& cn = query.node(c);
        const auto& child_matches = matches[static_cast<size_t>(c)];
        // child_matches are sorted by their root doc node's start; binary
        // search the region (dn.start, dn.end).
        auto lo = std::lower_bound(
            child_matches.begin(), child_matches.end(), dn.start,
            [&](const TwigMatch& m, int32_t start) {
              return doc.node(m[static_cast<size_t>(c)]).start <= start;
            });
        std::vector<const TwigMatch*> selected;
        for (auto it = lo; it != child_matches.end(); ++it) {
          const DocNodeId root = (*it)[static_cast<size_t>(c)];
          if (doc.node(root).start >= dn.end) break;
          if (cn.axis == Axis::kChild && !options_.relax_child_axis &&
              doc.node(root).parent != d) {
            continue;
          }
          selected.push_back(&*it);
        }
        if (selected.empty()) {
          dead = true;
          break;
        }
        per_child.push_back(std::move(selected));
      }
      if (dead) continue;
      // Cross product over children.
      std::vector<size_t> odo(per_child.size(), 0);
      for (;;) {
        TwigMatch m(static_cast<size_t>(width), kInvalidDocNode);
        m[static_cast<size_t>(q)] = d;
        for (size_t k = 0; k < per_child.size(); ++k) {
          const TwigMatch& cm = *per_child[k][odo[k]];
          for (size_t i = 0; i < cm.size(); ++i) {
            if (cm[i] != kInvalidDocNode) m[i] = cm[i];
          }
        }
        out.push_back(std::move(m));
        if (options_.max_matches > 0 && out.size() >= options_.max_matches) {
          overflow = true;
          break;
        }
        size_t k = 0;
        while (k < per_child.size()) {
          ++odo[k];
          if (odo[k] < per_child[k].size()) break;
          odo[k] = 0;
          ++k;
        }
        if (k == per_child.size()) break;
      }
      if (overflow) break;
    }
    // Candidates are iterated in document order, so `out` stays sorted by
    // the doc node at q.
  }
  return std::move(matches[static_cast<size_t>(q_root)]);
}

TwigMatcher::ProjectedMatches TwigMatcher::MatchProjected(
    const TwigQuery& query, const std::vector<SchemaNodeId>& binding,
    int q_root) const {
  const Document& doc = doc_->doc();
  ProjectedMatches result;

  // Post-order over the subquery.
  std::vector<int> order;
  {
    std::vector<std::pair<int, size_t>> stack{{q_root, 0}};
    while (!stack.empty()) {
      auto& [q, ci] = stack.back();
      const auto& ch = query.node(q).children;
      if (ci < ch.size()) {
        stack.push_back({ch[ci++], 0});
      } else {
        order.push_back(q);
        stack.pop_back();
      }
    }
  }

  // sat[q]: sorted doc nodes that satisfy the subquery rooted at q.
  std::vector<std::vector<DocNodeId>> sat(
      static_cast<size_t>(query.size()));
  for (int q : order) {
    const TwigNode& qn = query.node(q);
    std::vector<DocNodeId> cands =
        Candidates(query, q, binding[static_cast<size_t>(q)]);
    if (qn.children.empty()) {
      sat[static_cast<size_t>(q)] = std::move(cands);
      continue;
    }
    std::vector<DocNodeId>& out = sat[static_cast<size_t>(q)];
    for (DocNodeId d : cands) {
      const DocNode& dn = doc.node(d);
      bool ok = true;
      for (int c : qn.children) {
        const TwigNode& cn = query.node(c);
        const auto& cs = sat[static_cast<size_t>(c)];
        // Any satisfying child-root strictly inside d's region?
        auto lo = std::lower_bound(cs.begin(), cs.end(), dn.start,
                                   [&](DocNodeId x, int32_t start) {
                                     return doc.node(x).start <= start;
                                   });
        bool found = false;
        for (auto it = lo; it != cs.end(); ++it) {
          if (doc.node(*it).start >= dn.end) break;
          if (cn.axis == Axis::kChild && !options_.relax_child_axis &&
              doc.node(*it).parent != d) {
            continue;
          }
          found = true;
          break;
        }
        if (!found) {
          ok = false;
          break;
        }
      }
      if (ok) out.push_back(d);
    }
  }
  result.roots = std::move(sat[static_cast<size_t>(q_root)]);

  // If the output node lies inside this subquery, walk the query-node
  // chain from q_root down to it, tracking (root, current) pairs.
  const int output = query.output_node();
  std::vector<int> chain;
  for (int q = output; q >= 0; q = query.node(q).parent) {
    chain.push_back(q);
    if (q == q_root) break;
  }
  if (chain.empty() || chain.back() != q_root) return result;  // not inside
  std::reverse(chain.begin(), chain.end());
  result.has_output = true;

  std::vector<std::pair<DocNodeId, DocNodeId>> pairs;
  pairs.reserve(result.roots.size());
  for (DocNodeId r : result.roots) pairs.emplace_back(r, r);
  for (size_t i = 1; i < chain.size(); ++i) {
    const int q = chain[i];
    const TwigNode& qn = query.node(q);
    const auto& cs = sat[static_cast<size_t>(q)];
    std::vector<std::pair<DocNodeId, DocNodeId>> next;
    for (const auto& [root, cur] : pairs) {
      const DocNode& dn = doc.node(cur);
      auto lo = std::lower_bound(cs.begin(), cs.end(), dn.start,
                                 [&](DocNodeId x, int32_t start) {
                                   return doc.node(x).start <= start;
                                 });
      for (auto it = lo; it != cs.end(); ++it) {
        if (doc.node(*it).start >= dn.end) break;
        if (qn.axis == Axis::kChild && !options_.relax_child_axis &&
            doc.node(*it).parent != cur) {
          continue;
        }
        next.emplace_back(root, *it);
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    pairs = std::move(next);
  }
  result.outputs = std::move(pairs);
  return result;
}

void SortAndDedupeMatches(std::vector<TwigMatch>* matches) {
  std::sort(matches->begin(), matches->end());
  matches->erase(std::unique(matches->begin(), matches->end()),
                 matches->end());
}

}  // namespace uxm
