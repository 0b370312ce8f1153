#include "query/flat_kernel.h"

#include <algorithm>
#include <cstring>

#include "common/fault_injection.h"

namespace uxm {

MonotonicScratch* ThreadLocalScratch() {
  static thread_local MonotonicScratch scratch;
  return &scratch;
}

namespace {

/// Borrowed view of a sorted doc-node list living in the arena or in the
/// document's own instance lists.
struct Span {
  const DocNodeId* data = nullptr;
  uint32_t size = 0;
  const DocNodeId* begin() const { return data; }
  const DocNodeId* end() const { return data + size; }
};

/// One (subquery-root binding, output-node binding) pair.
struct OutPair {
  DocNodeId root = kInvalidDocNode;
  DocNodeId out = kInvalidDocNode;
};

inline bool operator<(const OutPair& a, const OutPair& b) {
  return a.root != b.root ? a.root < b.root : a.out < b.out;
}
inline bool operator==(const OutPair& a, const OutPair& b) {
  return a.root == b.root && a.out == b.out;
}

/// The projected (output-node) matches of one subquery: the document nodes
/// that can bind its root with the whole subquery matching below them,
/// plus — when the query's output node lies inside — the distinct (root,
/// output) pairs. Zero-initialized memory is a valid empty result, so
/// per-mapping arrays can be memset.
struct FlatProjected {
  Span roots;
  const OutPair* outputs = nullptr;
  uint32_t num_outputs = 0;
  bool has_output = false;
};

/// One evaluation's worth of state: the query's derived indexes (subtree
/// sizes, post-order) computed once, plus the shared bitmaps. All of it
/// lives in the arena and dies at the caller's next Reset.
class FlatEvaluator {
 public:
  FlatEvaluator(const TwigQuery& query, const FlatPairIndex& index,
                const AnnotatedDocument& doc,
                const std::vector<MappingId>& relevant,
                MonotonicScratch* arena, const KernelCancelContext* cancel)
      : query_(query),
        index_(index),
        doc_(doc),
        relevant_(relevant),
        arena_(arena),
        cancel_(cancel != nullptr && (cancel->threshold != nullptr ||
                                      cancel->expired != nullptr)
                    ? cancel
                    : nullptr),
        width_(query.size()) {
    // Twig nodes are stored in pre-order, so subtree(i) == the contiguous
    // id range [i, i + sub_size_[i]).
    sub_size_ = arena_->AllocateArray<int>(static_cast<size_t>(width_));
    for (int i = width_ - 1; i >= 0; --i) {
      int size = 1;
      for (int c : query_.node(i).children) {
        size += sub_size_[static_cast<size_t>(c)];
      }
      sub_size_[static_cast<size_t>(i)] = size;
    }
    // Full post-order + positions: the subquery rooted at r occupies the
    // contiguous post-order slice ending at post_pos_[r].
    post_ = arena_->AllocateArray<int>(static_cast<size_t>(width_));
    post_pos_ = arena_->AllocateArray<int>(static_cast<size_t>(width_));
    struct Frame {
      int q;
      size_t ci;
    };
    ScratchVec<Frame> stack(arena_);
    stack.push_back(Frame{0, 0});
    int n = 0;
    while (!stack.empty()) {
      Frame& f = stack[stack.size() - 1];
      const auto& ch = query_.node(f.q).children;
      if (f.ci < ch.size()) {
        const int c = ch[f.ci++];
        stack.push_back(Frame{c, 0});
      } else {
        post_[n] = f.q;
        post_pos_[static_cast<size_t>(f.q)] = n;
        ++n;
        stack.resize_down(stack.size() - 1);
      }
    }
    const size_t m = index_.mappings.num_mappings;
    is_active_ = arena_->AllocateArray<uint8_t>(m);
    std::memset(is_active_, 0, m);
    for (MappingId mid : relevant_) is_active_[static_cast<size_t>(mid)] = 1;
  }

  /// True once a cancellation tick observed the shared threshold above
  /// this evaluation's bound. Sticky: the evaluation is abandoned, its
  /// partial state is never read, and the caller discards the result.
  bool Cancelled() const { return cancelled_; }

  /// Periodic cancellation check, called from the kernel's inner loops.
  /// The first call and every kCancelStride-th thereafter perform one
  /// relaxed load of the shared threshold; in between it is a counter
  /// bump — cheap enough for per-candidate placement without disturbing
  /// the hot path. Polling on the first call makes an evaluation whose
  /// bound is already beaten abort at its first poll site instead of
  /// only after a full stride of work.
  bool Tick() {
    if (cancelled_) return true;
    if (cancel_ == nullptr) return false;
    if (cancel_tick_++ % kCancelStride != 0) return false;
    if (cancel_->threshold != nullptr &&
        cancel_->threshold->load(std::memory_order_relaxed) >
            cancel_->cancel_above) {
      cancelled_ = true;
      return true;
    }
    if (cancel_->expired != nullptr) {
      if (cancel_->expired->load(std::memory_order_relaxed)) {
        cancelled_ = true;
      } else if (cancel_->deadline !=
                     std::chrono::steady_clock::time_point::max() &&
                 std::chrono::steady_clock::now() >= cancel_->deadline) {
        // First poll past the deadline: publish the expiry so every other
        // in-flight kernel and both scheduler layers stop at their next
        // check — a stuck evaluation takes the whole run down with it
        // instead of blowing the deadline alone.
        cancel_->expired->store(true, std::memory_order_relaxed);
        cancelled_ = true;
      }
    }
    return cancelled_;
  }

  /// Candidate document nodes for query node `q_node` bound to source
  /// element `bound`: its instances filtered by the node's value
  /// predicate, in document order. Without a predicate the span aliases
  /// the document's instance list directly — no copy.
  Span Candidates(int q_node, SchemaNodeId bound) {
    Span s;
    if (bound == kInvalidSchemaNode) return s;
    const std::vector<DocNodeId>& inst = doc_.InstancesOf(bound);
    const TwigNode& qn = query_.node(q_node);
    if (!qn.value_eq.has_value()) {
      s.data = inst.data();
      s.size = static_cast<uint32_t>(inst.size());
      return s;
    }
    ScratchVec<DocNodeId> out(arena_);
    const Document& d = doc_.doc();
    for (DocNodeId n : inst) {
      if (d.text(n) == *qn.value_eq) out.push_back(n);
    }
    s.data = out.data();
    s.size = static_cast<uint32_t>(out.size());
    return s;
  }

  /// Matches the subquery rooted at `q_root` under `binding` (source
  /// element per query node) with output-node semantics — the "match" of
  /// §IV-A projected to Definition 4's distinguished node. Both '/' and
  /// '//' edges are matched as ancestor-descendant: a '/' in the target
  /// query generally spans a longer downward path in the source document
  /// (the constraint-based rewriting of [2] inserts the intermediate
  /// steps).
  FlatProjected MatchProjected(const SchemaNodeId* binding, int q_root) {
    const Document& doc = doc_.doc();
    FlatProjected result;

    // sat[q]: sorted doc nodes satisfying the subquery rooted at q.
    Span* sat = arena_->AllocateArray<Span>(static_cast<size_t>(width_));
    const int last = post_pos_[static_cast<size_t>(q_root)];
    const int first = last - sub_size_[static_cast<size_t>(q_root)] + 1;
    for (int pi = first; pi <= last; ++pi) {
      const int q = post_[pi];
      const TwigNode& qn = query_.node(q);
      const Span cands = Candidates(q, binding[q]);
      if (qn.children.empty()) {
        sat[static_cast<size_t>(q)] = cands;
        continue;
      }
      ScratchVec<DocNodeId> out(arena_);
      for (DocNodeId d : cands) {
        // Per-candidate cancellation tick; on cancel the remaining spans
        // stay valid-but-truncated, and the whole result is discarded.
        if (Tick()) break;
        const DocNode& dn = doc.node(d);
        bool ok = true;
        for (int c : qn.children) {
          // Any satisfying child-root strictly inside d's region?
          if (!AnyInside(sat[static_cast<size_t>(c)], dn)) {
            ok = false;
            break;
          }
        }
        if (ok) out.push_back(d);
      }
      sat[static_cast<size_t>(q)] =
          Span{out.data(), static_cast<uint32_t>(out.size())};
    }
    result.roots = sat[static_cast<size_t>(q_root)];

    // Output chain from q_root down to the output node, if inside.
    const int output = query_.output_node();
    ScratchVec<int> chain(arena_);
    for (int q = output; q >= 0; q = query_.node(q).parent) {
      chain.push_back(q);
      if (q == q_root) break;
    }
    if (chain.empty() || chain[chain.size() - 1] != q_root) return result;
    if (cancelled_) return result;
    std::reverse(chain.begin(), chain.end());
    result.has_output = true;

    ScratchVec<OutPair> pairs(arena_);
    pairs.reserve(result.roots.size);
    for (DocNodeId r : result.roots) pairs.push_back(OutPair{r, r});
    for (size_t i = 1; i < chain.size(); ++i) {
      const Span& cs = sat[static_cast<size_t>(chain[i])];
      ScratchVec<OutPair> next(arena_);
      for (size_t pi = 0; pi < pairs.size(); ++pi) {
        if (Tick()) break;
        const OutPair p = pairs[pi];
        const DocNode& dn = doc.node(p.out);
        const DocNodeId* lo = std::lower_bound(
            cs.begin(), cs.end(), dn.start,
            [&doc](DocNodeId x, int32_t start) {
              return doc.node(x).start <= start;
            });
        for (const DocNodeId* it = lo; it != cs.end(); ++it) {
          if (doc.node(*it).start >= dn.end) break;
          next.push_back(OutPair{p.root, *it});
        }
      }
      std::sort(next.begin(), next.end());
      OutPair* uend = std::unique(next.begin(), next.end());
      next.resize_down(static_cast<size_t>(uend - next.begin()));
      pairs = next;
    }
    result.outputs = pairs.data();
    result.num_outputs = static_cast<uint32_t>(pairs.size());
    return result;
  }

  /// True iff some node of `sorted` (document order) lies strictly inside
  /// `dn`'s region — the containment test every region join runs.
  bool AnyInside(const Span& sorted, const DocNode& dn) const {
    const Document& doc = doc_.doc();
    const DocNodeId* lo = std::lower_bound(
        sorted.begin(), sorted.end(), dn.start,
        [&doc](DocNodeId x, int32_t start) {
          return doc.node(x).start <= start;
        });
    return lo != sorted.end() && doc.node(*lo).start < dn.end;
  }

  /// One embedding of Algorithm 4: returns the root's per-mapping
  /// projected array (indexed by MappingId; only relevant slots valid).
  /// `root_rep` (indexed by MappingId, relevant slots valid) receives for
  /// every relevant mapping the id of the mapping whose evaluation it
  /// shares at the root — equal reps guarantee equal root results, which
  /// is what lets the caller share answer assembly across mappings.
  const FlatProjected* EvalEmbedding(
      const std::vector<SchemaNodeId>& embedding, MappingId* root_rep) {
    // Algorithm 4's recursion visits a node and either (a) takes the
    // c-block fast path, (b) evaluates a leaf, or (c) descends into
    // children and recombines. Replay it iteratively: pass 1 collects the visited
    // nodes in pre-order; pass 2 processes them in reverse, so children's
    // per-mapping arrays exist before their parent recombines them.
    ScratchVec<int> visit(arena_);
    ScratchVec<int> stack(arena_);
    stack.push_back(0);
    while (!stack.empty()) {
      const int q = stack[stack.size() - 1];
      stack.resize_down(stack.size() - 1);
      visit.push_back(q);
      const SchemaNodeId t = embedding[static_cast<size_t>(q)];
      if (index_.tree.self_anchored[static_cast<size_t>(t)]) continue;
      for (int c : query_.node(q).children) stack.push_back(c);
    }
    const size_t m = index_.mappings.num_mappings;
    FlatProjected** outs =
        arena_->AllocateArray<FlatProjected*>(static_cast<size_t>(width_));
    for (size_t vi = visit.size(); vi-- > 0;) {
      // A cancelled EvalNode may leave its per-mapping array partially
      // written; bailing here — before any PARENT node would read those
      // slots — is what keeps cancellation memory-safe (the arrays are
      // not zero-filled).
      if (cancelled_) break;
      const int q = visit[vi];
      // Not zero-filled: EvalNode writes every relevant mapping's slot in
      // all three of its cases (block-assigned + residual covers the
      // anchored path), and only relevant slots are ever read.
      outs[q] = arena_->AllocateArray<FlatProjected>(m);
      EvalNode(embedding, q, outs, q == 0 ? root_rep : nullptr);
    }
    return outs[0];
  }

 private:
  /// One query node of Algorithm 4's recursion; children (when descended
  /// into) are already in outs[child]. When `rep` is non-null
  /// (root call), rep[mid] is set to the mapping whose evaluation mid's
  /// slot shares (itself when unshared).
  void EvalNode(const std::vector<SchemaNodeId>& embedding, int q_node,
                FlatProjected** outs, MappingId* rep) {
    const FlatMappingTable& maps = index_.mappings;
    const FlatBlockTree& tree = index_.tree;
    FlatProjected* out = outs[q_node];
    const SchemaNodeId t = embedding[static_cast<size_t>(q_node)];
    const int sub_end = q_node + sub_size_[static_cast<size_t>(q_node)];

    if (tree.self_anchored[static_cast<size_t>(t)]) {
      // query_subtree (Algorithm 4): evaluate the subquery once per
      // c-block and replicate the result to every mapping sharing the
      // block (a span copy per mapping).
      uint8_t* assigned = arena_->AllocateArray<uint8_t>(maps.num_mappings);
      std::memset(assigned, 0, maps.num_mappings);
      SchemaNodeId* binding =
          arena_->AllocateArray<SchemaNodeId>(static_cast<size_t>(width_));
      const SchemaNodeId* ct = tree.corr_target.data();
      const SchemaNodeId* cs = tree.corr_source.data();
      for (uint32_t b = tree.node_block_begin[static_cast<size_t>(t)];
           b < tree.node_block_begin[static_cast<size_t>(t) + 1]; ++b) {
        if (Tick()) return;
        std::fill(binding, binding + width_, kInvalidSchemaNode);
        const uint32_t cb = tree.corr_begin[b];
        const uint32_t ce = tree.corr_begin[b + 1];
        for (int qi = q_node; qi < sub_end; ++qi) {
          const SchemaNodeId ty = embedding[static_cast<size_t>(qi)];
          // A c-block covers the anchor's whole subtree, so the
          // correspondence exists.
          const SchemaNodeId* it = std::lower_bound(ct + cb, ct + ce, ty);
          binding[qi] = cs[it - ct];
        }
        const FlatProjected y = MatchProjected(binding, q_node);
        MappingId block_rep = -1;
        for (uint32_t mi = tree.map_begin[b]; mi < tree.map_begin[b + 1];
             ++mi) {
          const MappingId mid = tree.block_mappings[mi];
          if (!is_active_[static_cast<size_t>(mid)]) continue;
          if (assigned[static_cast<size_t>(mid)]) continue;
          out[static_cast<size_t>(mid)] = y;
          assigned[static_cast<size_t>(mid)] = 1;
          if (rep != nullptr) {
            if (block_rep < 0) block_rep = mid;
            rep[static_cast<size_t>(mid)] = block_rep;
          }
        }
      }
      // Mappings not covered by any block: evaluate directly.
      for (MappingId mid : relevant_) {
        if (Tick()) return;
        if (assigned[static_cast<size_t>(mid)]) continue;
        const SchemaNodeId* row = maps.Row(mid);
        std::fill(binding, binding + width_, kInvalidSchemaNode);
        bool ok = true;
        for (int qi = q_node; qi < sub_end; ++qi) {
          const SchemaNodeId src = row[embedding[static_cast<size_t>(qi)]];
          if (src == kInvalidSchemaNode) {
            ok = false;
            break;
          }
          binding[qi] = src;
        }
        out[static_cast<size_t>(mid)] =
            ok ? MatchProjected(binding, q_node) : FlatProjected{};
        if (rep != nullptr) rep[static_cast<size_t>(mid)] = mid;
      }
      return;
    }

    const TwigNode& qn = query_.node(q_node);
    const bool is_output_here = query_.output_node() == q_node;
    int output_child_idx = -1;
    if (!is_output_here) {
      const int o = query_.output_node();
      for (size_t j = 0; j < qn.children.size(); ++j) {
        const int c = qn.children[j];
        if (o >= c && o < c + sub_size_[static_cast<size_t>(c)]) {
          output_child_idx = static_cast<int>(j);
          break;
        }
      }
    }

    // Group the relevant mappings by their binding tuple over this
    // subtree's embedding columns. The subquery result is a pure function
    // of that tuple (children included, by induction on the subtree), so
    // each distinct tuple is evaluated once and shared — the non-anchored
    // analogue of a c-block, made cheap by the row-major mapping table.
    const int w = sub_end - q_node;
    const size_t n_rel = relevant_.size();
    SchemaNodeId* tup =
        arena_->AllocateArray<SchemaNodeId>(n_rel * static_cast<size_t>(w));
    for (size_t r = 0; r < n_rel; ++r) {
      const SchemaNodeId* row = maps.Row(relevant_[r]);
      SchemaNodeId* dst = tup + r * static_cast<size_t>(w);
      for (int j = 0; j < w; ++j) {
        dst[j] = row[embedding[static_cast<size_t>(q_node + j)]];
      }
    }
    const size_t tup_bytes = static_cast<size_t>(w) * sizeof(SchemaNodeId);
    uint32_t* order = arena_->AllocateArray<uint32_t>(n_rel);
    for (size_t r = 0; r < n_rel; ++r) order[r] = static_cast<uint32_t>(r);
    std::sort(order, order + n_rel, [&](uint32_t a, uint32_t b) {
      const int c = std::memcmp(tup + a * static_cast<size_t>(w),
                                tup + b * static_cast<size_t>(w), tup_bytes);
      return c != 0 ? c < 0 : a < b;
    });
    for (size_t g = 0; g < n_rel;) {
      if (Tick()) return;
      size_t h = g + 1;
      while (h < n_rel &&
             std::memcmp(tup + order[g] * static_cast<size_t>(w),
                         tup + order[h] * static_cast<size_t>(w),
                         tup_bytes) == 0) {
        ++h;
      }
      const MappingId rep_mid = relevant_[order[g]];
      const FlatProjected y = EvalOneMapping(embedding, q_node, outs, rep_mid,
                                             is_output_here, output_child_idx);
      for (size_t i = g; i < h; ++i) {
        const MappingId mid = relevant_[order[i]];
        out[static_cast<size_t>(mid)] = y;
        if (rep != nullptr) rep[static_cast<size_t>(mid)] = rep_mid;
      }
      g = h;
    }
  }

  /// One mapping's leaf/internal-node evaluation (the per-mapping body of
  /// Algorithm 4's recursion); children are already in outs[child].
  FlatProjected EvalOneMapping(const std::vector<SchemaNodeId>& embedding,
                               int q_node, FlatProjected** outs,
                               MappingId mid, bool is_output_here,
                               int output_child_idx) {
    const Document& doc = doc_.doc();
    const TwigNode& qn = query_.node(q_node);
    const SchemaNodeId t = embedding[static_cast<size_t>(q_node)];
    const SchemaNodeId src = index_.mappings.Row(mid)[t];
    FlatProjected y;
    if (qn.children.empty()) {
      // Single-node subquery: candidates directly.
      if (src != kInvalidSchemaNode) y.roots = Candidates(q_node, src);
    } else if (src != kInvalidSchemaNode) {
      // split_query: recombine children with region checks (the
      // stack_join step of Algorithm 4).
      ScratchVec<DocNodeId> roots(arena_);
      const Span cands = Candidates(q_node, src);
      for (DocNodeId d : cands) {
        const DocNode& dn = doc.node(d);
        bool ok = true;
        for (size_t j = 0; j < qn.children.size() && ok; ++j) {
          ok = AnyInside(outs[qn.children[j]][static_cast<size_t>(mid)].roots,
                         dn);
        }
        if (ok) roots.push_back(d);
      }
      y.roots = Span{roots.data(), static_cast<uint32_t>(roots.size())};
    }
    if (is_output_here) {
      y.has_output = true;
      OutPair* pairs = arena_->AllocateArray<OutPair>(y.roots.size);
      for (uint32_t i = 0; i < y.roots.size; ++i) {
        pairs[i] = OutPair{y.roots.data[i], y.roots.data[i]};
      }
      y.outputs = pairs;
      y.num_outputs = y.roots.size;
    } else if (output_child_idx >= 0 && !qn.children.empty()) {
      y.has_output = true;
      // Lift (child-root, output) pairs whose child-root lies under one
      // of our surviving roots.
      const int c = qn.children[static_cast<size_t>(output_child_idx)];
      const FlatProjected& co = outs[c][static_cast<size_t>(mid)];
      ScratchVec<OutPair> lifted(arena_);
      for (DocNodeId d : y.roots) {
        const DocNode& dn = doc.node(d);
        for (uint32_t pi = 0; pi < co.num_outputs; ++pi) {
          const OutPair p = co.outputs[pi];
          const DocNode& rn = doc.node(p.root);
          if (rn.start <= dn.start || rn.start >= dn.end) continue;
          lifted.push_back(OutPair{d, p.out});
        }
      }
      std::sort(lifted.begin(), lifted.end());
      OutPair* uend = std::unique(lifted.begin(), lifted.end());
      lifted.resize_down(static_cast<size_t>(uend - lifted.begin()));
      y.outputs = lifted.data();
      y.num_outputs = static_cast<uint32_t>(lifted.size());
    }
    return y;
  }

  /// Inner-loop steps between threshold loads (see Tick). Small enough
  /// that a passed-over item stops within microseconds, large enough that
  /// the check is invisible next to the region joins it gates.
  static constexpr uint32_t kCancelStride = 64;

  const TwigQuery& query_;
  const FlatPairIndex& index_;
  const AnnotatedDocument& doc_;
  const std::vector<MappingId>& relevant_;
  MonotonicScratch* arena_;
  const KernelCancelContext* cancel_;
  uint32_t cancel_tick_ = 0;
  bool cancelled_ = false;
  const int width_;
  int* sub_size_ = nullptr;
  int* post_ = nullptr;
  int* post_pos_ = nullptr;
  uint8_t* is_active_ = nullptr;
};

}  // namespace

namespace {

Status KernelCancelledStatus() {
  return Status::Cancelled(
      "evaluation abandoned mid-kernel by the corpus top-k threshold");
}

}  // namespace

Result<PtqResult> EvaluateBasicFlat(
    const TwigQuery& query,
    const std::vector<std::vector<SchemaNodeId>>& embeddings,
    const std::vector<MappingId>& relevant, bool truncated,
    const FlatPairIndex& index, const AnnotatedDocument& doc,
    const PtqOptions& /*options*/, MonotonicScratch* arena,
    const KernelCancelContext* cancel) {
  UXM_INJECT_FAULT(FaultSite::kKernelEval);
  if (query.size() == 0) return Status::InvalidArgument("empty query");
  PtqResult result;
  result.truncated_embeddings = truncated;
  if (relevant.empty()) return result;
  FlatEvaluator ev(query, index, doc, relevant, arena, cancel);
  SchemaNodeId* binding =
      arena->AllocateArray<SchemaNodeId>(static_cast<size_t>(query.size()));
  for (MappingId mid : relevant) {
    if (ev.Cancelled()) return KernelCancelledStatus();
    const SchemaNodeId* row = index.mappings.Row(mid);
    ScratchVec<DocNodeId> all(arena);
    for (const auto& emb : embeddings) {
      if (ev.Cancelled()) return KernelCancelledStatus();
      // RewriteBinding: unmapped node => this embedding yields nothing
      // under this mapping.
      bool ok = true;
      for (size_t i = 0; i < emb.size(); ++i) {
        binding[i] = kInvalidSchemaNode;
        if (emb[i] == kInvalidSchemaNode) continue;
        const SchemaNodeId src = row[emb[i]];
        if (src == kInvalidSchemaNode) {
          ok = false;
          break;
        }
        binding[i] = src;
      }
      if (!ok) continue;
      const FlatProjected pm = ev.MatchProjected(binding, 0);
      // OutputsOf: distinct output bindings, sorted.
      ScratchVec<DocNodeId> outs(arena);
      outs.reserve(pm.num_outputs);
      for (uint32_t i = 0; i < pm.num_outputs; ++i) {
        outs.push_back(pm.outputs[i].out);
      }
      std::sort(outs.begin(), outs.end());
      DocNodeId* uend = std::unique(outs.begin(), outs.end());
      for (DocNodeId* it = outs.begin(); it != uend; ++it) {
        all.push_back(*it);
      }
    }
    std::sort(all.begin(), all.end());
    DocNodeId* uend = std::unique(all.begin(), all.end());
    result.answers.push_back(MappingAnswer{
        mid, index.mappings.probability[static_cast<size_t>(mid)],
        std::vector<DocNodeId>(all.begin(), uend)});
  }
  return result;
}

Result<PtqResult> EvaluateTreeFlat(
    const TwigQuery& query,
    const std::vector<std::vector<SchemaNodeId>>& embeddings,
    const std::vector<MappingId>& relevant, bool truncated,
    const FlatPairIndex& index, const AnnotatedDocument& doc,
    const PtqOptions& /*options*/, MonotonicScratch* arena,
    const KernelCancelContext* cancel) {
  UXM_INJECT_FAULT(FaultSite::kKernelEval);
  if (query.size() == 0) return Status::InvalidArgument("empty query");
  PtqResult result;
  result.truncated_embeddings = truncated;
  if (relevant.empty()) return result;
  FlatEvaluator ev(query, index, doc, relevant, arena, cancel);
  const size_t m = index.mappings.num_mappings;
  const size_t n_rel = relevant.size();
  const size_t n_emb = embeddings.size();
  const FlatProjected** per_emb =
      arena->AllocateArray<const FlatProjected*>(n_emb);
  MappingId* rep = arena->AllocateArray<MappingId>(m);
  // fp row r = the root representative chosen for relevant[r] in each
  // embedding. Mappings with equal rows got identical root results
  // everywhere, so they share one sort+unique answer assembly below.
  MappingId* fp = arena->AllocateArray<MappingId>(n_rel * n_emb);
  for (size_t e = 0; e < n_emb; ++e) {
    per_emb[e] = ev.EvalEmbedding(embeddings[e], rep);
    // A cancelled EvalEmbedding leaves rep (and the projected arrays)
    // partially written — bail before reading either.
    if (ev.Cancelled()) return KernelCancelledStatus();
    for (size_t r = 0; r < n_rel; ++r) {
      fp[r * n_emb + e] = rep[static_cast<size_t>(relevant[r])];
    }
  }
  for (size_t r = 0; r < n_rel; ++r) {
    result.answers.push_back(MappingAnswer{
        relevant[r],
        index.mappings.probability[static_cast<size_t>(relevant[r])],
        {}});
  }
  const size_t fp_bytes = n_emb * sizeof(MappingId);
  uint32_t* order = arena->AllocateArray<uint32_t>(n_rel);
  for (size_t r = 0; r < n_rel; ++r) order[r] = static_cast<uint32_t>(r);
  std::sort(order, order + n_rel, [&](uint32_t a, uint32_t b) {
    const int c =
        std::memcmp(fp + a * n_emb, fp + b * n_emb, fp_bytes);
    return c != 0 ? c < 0 : a < b;
  });
  for (size_t g = 0; g < n_rel;) {
    size_t h = g + 1;
    while (h < n_rel && std::memcmp(fp + order[g] * n_emb,
                                    fp + order[h] * n_emb, fp_bytes) == 0) {
      ++h;
    }
    const size_t rep_mid = static_cast<size_t>(relevant[order[g]]);
    ScratchVec<DocNodeId> all(arena);
    for (size_t e = 0; e < n_emb; ++e) {
      const FlatProjected& part = per_emb[e][rep_mid];
      for (uint32_t i = 0; i < part.num_outputs; ++i) {
        all.push_back(part.outputs[i].out);
      }
    }
    std::sort(all.begin(), all.end());
    DocNodeId* uend = std::unique(all.begin(), all.end());
    for (size_t i = g; i < h; ++i) {
      result.answers[order[i]].matches.assign(all.begin(), uend);
    }
    g = h;
  }
  return result;
}

}  // namespace uxm
