#include "tracer.h"

#include <cstdio>

namespace ptqbench {

int Tracer::Begin(const char* name) {
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  span.start_ns = NsSinceEpoch(Clock::now());
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NsSinceEpoch(Clock::now());
  // Spans close in LIFO order (ScopedSpan); pop through any the caller
  // forgot so the stack can never wedge.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

double Tracer::count(const std::string& name) const {
  auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

std::map<std::string, SpanTotals> Tracer::Summarize() const {
  // Children run sequentially inside their parent on the one client
  // thread, so the part of a parent they cover is the sum of their
  // durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    SpanTotals& t = totals[spans_[i].name];
    ++t.count;
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
  }
  return totals;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace ptqbench
