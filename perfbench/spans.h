// In-memory span recording for the benchmark's traced runs.
//
// A span is one call into a layer's public function, recorded from the
// benchmark's side of the call: name, start, end and the span that was
// open when it began (its parent). Spans stay in memory while the
// workload runs and are written out once, at the end. A layer's self time
// is its span's duration minus the part of that interval its child spans
// cover.
//
// Recording is single-threaded: the traced run drives every layer from
// one thread, and the workloads detach the recorder around any call that
// fans out to worker threads.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  /// Layer name; always a string literal (spans never own their names).
  const char* name = "";
  double start = 0.0;  ///< seconds since the recorder was created
  double end = 0.0;
  std::int32_t parent = -1;  ///< index into spans(), -1 for a root

  double duration() const { return end - start; }
};

/// Per-name totals over a set of spans.
struct LayerTotals {
  std::size_t calls = 0;
  double busy_s = 0.0;  ///< sum of span durations
  double self_s = 0.0;  ///< sum of span self times
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span under the innermost open span; returns its index.
  std::int32_t begin(const char* name);
  /// Closes span `id` (must be the innermost open span).
  void end(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as tab-separated `index name start end parent`
  /// lines. Throws std::runtime_error when the file cannot be written.
  void write(const std::string& path) const;

 private:
  double now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span itself.
std::vector<double> self_times(const std::vector<Span>& spans);

/// True when span `i` is `ancestor` or lies below it.
bool descends_from(const std::vector<Span>& spans, std::int32_t i,
                   std::int32_t ancestor);

/// Totals per span name over the spans at or below `root` (every span
/// when root is -1).
std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans,
                                                std::int32_t root = -1);

/// The recorder the workloads' wrappers report to; null in untraced runs.
extern SpanRecorder* g_spans;

/// RAII span on g_spans; a no-op when no recorder is attached.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : recorder_(g_spans), id_(recorder_ ? recorder_->begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::int32_t id_;
};

}  // namespace perfbench
