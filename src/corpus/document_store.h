// Multi-document corpus registry. The paper evaluates a PTQ against one
// uncertain-schema document at a time; a production deployment holds a
// *corpus* of named documents and asks which documents (and which answers
// within them) best match a twig. The DocumentStore is the registry half
// of that subsystem: it maps names to documents annotated once against
// the source schema of THEIR prepared pair, each stamped with the epoch
// under which its cached answers are valid. Because every entry carries
// its own pair, one corpus may span documents prepared under different
// (source, target) schema pairs — a heterogeneous corpus — and a corpus
// query fans one twig across all of them.
//
// Concurrency: the registry is published as an immutable snapshot behind
// a shared_ptr — Add/Remove/Rebind build a fresh sorted vector and swap
// it in, so corpus queries grab one pointer and iterate without locks,
// and corpus mutation can race in-flight corpus queries safely (the same
// discipline the facade uses for its PreparedState). A removed document's
// annotation stays alive until the last in-flight query that snapshotted
// it finishes.
//
// Epoch discipline: every entry carries the facade epoch assigned when it
// was (re)installed. Result-cache keys include that per-document epoch,
// so re-adding a document or re-preparing the system makes every answer
// cached under the old epoch structurally unreachable — no eager cache
// sweep is ever needed for corpus membership changes.
#ifndef UXM_CORPUS_DOCUMENT_STORE_H_
#define UXM_CORPUS_DOCUMENT_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/prepared_pair.h"
#include "query/annotated_document.h"
#include "xml/document.h"
#include "xml/schema.h"

namespace uxm {

/// \brief One registered corpus member: a named document annotated against
/// its pair's source schema, plus the epoch its cached answers live
/// under.
struct CorpusDocument {
  std::string name;
  const Document* doc = nullptr;  ///< must outlive its registration
  std::shared_ptr<const AnnotatedDocument> annotated;
  uint64_t epoch = 0;  ///< result-cache epoch for this registration
  /// The prepared pair this document is queried under; its source schema
  /// is the one `annotated` is bound to.
  std::shared_ptr<const PreparedSchemaPair> pair;
};

/// \brief An immutable view of the corpus at one instant, sorted by name.
using CorpusSnapshot = std::vector<CorpusDocument>;

/// \brief Thread-safe registry of named annotated documents.
///
/// Internally synchronized, but the facade additionally serializes all
/// mutations with its state lock so epoch assignment and schema checks
/// stay atomic with respect to Prepare/AttachDocument.
class DocumentStore {
 public:
  DocumentStore();

  DocumentStore(const DocumentStore&) = delete;
  DocumentStore& operator=(const DocumentStore&) = delete;

  /// Registers `entry` under its name. AlreadyExists if the name is
  /// taken; InvalidArgument on an empty name, missing annotation, or
  /// missing pair.
  Status Add(CorpusDocument entry);

  /// Unregisters `name`. NotFound if absent. In-flight queries holding an
  /// older snapshot finish against it; queries snapshotting after this
  /// returns can never see the document. `removed`, when non-null,
  /// receives the unregistered entry.
  Status Remove(const std::string& name, CorpusDocument* removed = nullptr);

  /// Reconciles the corpus with a re-prepared pair: entries whose pair
  /// relates the same (source, target) schemas are re-bound to the new
  /// incarnation and re-stamped with `epoch` (their annotations stay
  /// valid — they depend only on the source schema, which is identical by
  /// key). Entries of other pairs are untouched. Returns the number of
  /// entries re-bound.
  int RebindPair(const std::shared_ptr<const PreparedSchemaPair>& pair,
                 uint64_t epoch);

  /// Drops every entry registered under the pair for (source, target) —
  /// the corpus half of unregistering a schema pair. In-flight queries
  /// holding an older snapshot finish against it. Returns the number of
  /// entries dropped.
  int RemovePairDocuments(const Schema* source, const Schema* target);

  /// Re-stamps every entry with `epoch` (full corpus invalidation: any
  /// in-flight insert keyed under a pre-bump epoch becomes unreachable).
  void Restamp(uint64_t epoch);

  /// Drops every entry.
  void Clear();

  /// The current corpus view. Never null; empty when no documents are
  /// registered.
  std::shared_ptr<const CorpusSnapshot> Snapshot() const;

  /// Registered document count / names (names sorted ascending).
  size_t size() const;
  std::vector<std::string> Names() const;

 private:
  /// Publishes `next` (sorted by name) as the current snapshot.
  void Publish(CorpusSnapshot next);

  mutable std::mutex mu_;
  std::shared_ptr<const CorpusSnapshot> snapshot_;
};

}  // namespace uxm

#endif  // UXM_CORPUS_DOCUMENT_STORE_H_
