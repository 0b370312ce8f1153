#include "corpus/document_store.h"

#include <algorithm>
#include <utility>

namespace uxm {

namespace {

bool ByName(const CorpusDocument& a, const CorpusDocument& b) {
  return a.name < b.name;
}

}  // namespace

DocumentStore::DocumentStore()
    : snapshot_(std::make_shared<const CorpusSnapshot>()) {}

void DocumentStore::Publish(CorpusSnapshot next) {
  std::sort(next.begin(), next.end(), ByName);
  snapshot_ = std::make_shared<const CorpusSnapshot>(std::move(next));
}

Status DocumentStore::Add(CorpusDocument entry) {
  if (entry.name.empty()) {
    return Status::InvalidArgument("corpus document name must be non-empty");
  }
  if (entry.doc == nullptr || entry.annotated == nullptr) {
    return Status::InvalidArgument(
        "corpus document needs a document and its annotation");
  }
  if (entry.pair == nullptr) {
    return Status::InvalidArgument(
        "corpus document needs the prepared pair it is queried under");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const CorpusDocument& existing : *snapshot_) {
    if (existing.name == entry.name) {
      return Status::AlreadyExists("corpus already has a document named '" +
                                   entry.name + "'");
    }
  }
  CorpusSnapshot next = *snapshot_;
  next.push_back(std::move(entry));
  Publish(std::move(next));
  return Status::OK();
}

Status DocumentStore::Remove(const std::string& name,
                             CorpusDocument* removed) {
  std::lock_guard<std::mutex> lock(mu_);
  CorpusSnapshot next;
  next.reserve(snapshot_->size());
  bool found = false;
  for (const CorpusDocument& existing : *snapshot_) {
    if (existing.name == name) {
      found = true;
      if (removed != nullptr) *removed = existing;
    } else {
      next.push_back(existing);
    }
  }
  if (!found) {
    return Status::NotFound("no corpus document named '" + name + "'");
  }
  Publish(std::move(next));
  return Status::OK();
}

int DocumentStore::RebindPair(
    const std::shared_ptr<const PreparedSchemaPair>& pair, uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  CorpusSnapshot next = *snapshot_;
  int rebound = 0;
  for (CorpusDocument& entry : next) {
    if (entry.pair->source() != pair->source() ||
        entry.pair->target() != pair->target()) {
      continue;
    }
    entry.pair = pair;
    entry.epoch = epoch;
    ++rebound;
  }
  Publish(std::move(next));
  return rebound;
}

int DocumentStore::RemovePairDocuments(const Schema* source,
                                       const Schema* target) {
  std::lock_guard<std::mutex> lock(mu_);
  CorpusSnapshot next;
  next.reserve(snapshot_->size());
  int dropped = 0;
  for (const CorpusDocument& existing : *snapshot_) {
    if (existing.pair->source() == source &&
        existing.pair->target() == target) {
      ++dropped;
    } else {
      next.push_back(existing);
    }
  }
  if (dropped > 0) Publish(std::move(next));
  return dropped;
}

void DocumentStore::Restamp(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  CorpusSnapshot next = *snapshot_;
  for (CorpusDocument& entry : next) entry.epoch = epoch;
  Publish(std::move(next));
}

void DocumentStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  Publish(CorpusSnapshot{});
}

std::shared_ptr<const CorpusSnapshot> DocumentStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

size_t DocumentStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_->size();
}

std::vector<std::string> DocumentStore::Names() const {
  std::shared_ptr<const CorpusSnapshot> snapshot = Snapshot();
  std::vector<std::string> names;
  names.reserve(snapshot->size());
  for (const CorpusDocument& entry : *snapshot) names.push_back(entry.name);
  return names;
}

}  // namespace uxm
