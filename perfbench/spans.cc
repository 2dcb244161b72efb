#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

SpanRecorder* g_spans = nullptr;

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::int32_t SpanRecorder::begin(const char* name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  const double t = now();
  spans_.push_back(Span{name, t, t, parent});
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(std::int32_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end = now();
  open_.pop_back();
}

void SpanRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("perfbench: cannot write spans to " + path);
  }
  std::fputs("index\tname\tstart_s\tend_s\tparent\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%.9f\t%.9f\t%d\n", i, s.name, s.start, s.end,
                 s.parent);
  }
  if (std::fclose(f) != 0) {
    throw std::runtime_error("perfbench: cannot write spans to " + path);
  }
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the child intervals, clipped to [s.start, s.end].
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [a, b] : kids) {
      const double lo = std::max(a, reach);
      const double hi = std::min(b, s.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(b, s.end));
    }
    self[i] = std::max(0.0, s.duration() - covered);
  }
  return self;
}

bool descends_from(const std::vector<Span>& spans, std::int32_t i,
                   std::int32_t ancestor) {
  while (i >= 0) {
    if (i == ancestor) return true;
    i = spans[static_cast<std::size_t>(i)].parent;
  }
  return false;
}

std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans,
                                                std::int32_t root) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, LayerTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (root >= 0 &&
        !descends_from(spans, static_cast<std::int32_t>(i), root)) {
      continue;
    }
    LayerTotals& t = totals[spans[i].name];
    ++t.calls;
    t.busy_s += spans[i].duration();
    t.self_s += self[i];
  }
  return totals;
}

}  // namespace perfbench
