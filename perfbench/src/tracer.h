// Outside-in tracing for the benchmark's traced run: spans recorded by
// the benchmark's own code around its calls into each layer's public
// functions, plus the counts those calls return. Spans are kept in
// memory and written out when the run ends; a layer's self time is its
// span minus the time its child spans cover.
//
// Only the client thread records spans (the library is called
// synchronously), so the tracer needs no locking: an open-span stack
// gives every span its parent.
#ifndef PTQBENCH_TRACER_H_
#define PTQBENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace ptqbench {

struct SpanRecord {
  const char* name = "";  ///< string literal: the layer function called
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< index into the span list, -1 for a root
  int64_t request = -1;   ///< spans of one request share this id
};

/// \brief Per-span-name totals over one traced run.
struct SpanTotals {
  size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  /// Opens a span named `name` (a string literal) as a child of the
  /// innermost open span; returns its index for End.
  int Begin(const char* name);
  void End(int index);

  /// Request id stamped on spans opened from now on (-1: none).
  void set_request(int64_t id) { request_ = id; }

  /// Adds `value` to the named counter.
  void Count(const std::string& name, double value) { counts_[name] += value; }
  double count(const std::string& name) const;

  /// Totals per span name, self time = duration minus child durations.
  std::map<std::string, SpanTotals> Summarize() const;

  /// Writes every span as one JSON object per line. False on I/O error.
  bool WriteJsonLines(const std::string& path) const;

  size_t span_count() const { return spans_.size(); }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
  std::map<std::string, double> counts_;
  int64_t request_ = -1;
};

/// RAII span; a null tracer records nothing, so untraced code paths run
/// the same statements with one extra branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace ptqbench

#endif  // PTQBENCH_TRACER_H_
