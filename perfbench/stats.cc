#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

double median_sorted(const std::vector<double>& v) {
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.median = median_sorted(values);
  if (values.size() == 1) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  // statistics.quantiles(method="exclusive"), n = 4.
  const auto ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  s.q1 = cut[0];
  s.q3 = cut[2];
  return s;
}

Percentile percentile(std::vector<double> values, double p) {
  Percentile out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  out.value = values[rank - 1];
  out.beyond = n - rank;
  out.reportable = out.beyond >= kMinBeyond;
  return out;
}

std::vector<double> block_minima(const std::vector<double>& values,
                                 std::size_t block) {
  std::vector<double> out;
  if (block == 0) return out;
  for (std::size_t i = 0; i < values.size(); i += block) {
    std::size_t end = std::min(values.size(), i + block);
    if (values.size() - end < block) end = values.size();
    out.push_back(*std::min_element(values.begin() + static_cast<std::ptrdiff_t>(i),
                                    values.begin() + static_cast<std::ptrdiff_t>(end)));
    if (end == values.size()) break;
  }
  return out;
}

double ack_lateness_s(double ack_wall_s, double scheduled_send_wall_s,
                      double latency_clock_s, double compression) {
  return ack_wall_s - (scheduled_send_wall_s + latency_clock_s / compression);
}

bool rung_passed(const Rung& rung, double limit_ms) {
  if (!rung.delivered() || rung.generator_late || rung.backlog_grew) {
    return false;
  }
  const double tail = rung.p99_late_ms.value_or(rung.max_late_ms);
  return tail <= limit_ms;
}

bool backlog_grew(const std::vector<double>& lateness_by_due,
                  double limit_s) {
  const std::size_t third = lateness_by_due.size() / 3;
  if (third == 0) return false;
  std::vector<double> first(lateness_by_due.begin(),
                            lateness_by_due.begin() +
                                static_cast<std::ptrdiff_t>(third));
  std::vector<double> last(lateness_by_due.end() -
                               static_cast<std::ptrdiff_t>(third),
                           lateness_by_due.end());
  return summarize(std::move(last)).median -
             summarize(std::move(first)).median >
         limit_s;
}

LadderTally tally_ladder(const std::vector<Rung>& rungs, double limit_ms) {
  LadderTally t;
  for (const Rung& r : rungs) {
    if (rung_passed(r, limit_ms)) ++t.passed;
    if (r.stalled) ++t.stalled;
  }
  return t;
}

std::optional<std::size_t> capacity_rung(const std::vector<Rung>& rungs,
                                         double limit_ms) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (!rung_passed(rungs[i], limit_ms)) continue;
    if (!best || rungs[i].compression > rungs[*best].compression) best = i;
  }
  return best;
}

OpCounts gateway_counts(const std::vector<Rung>& rungs,
                        std::optional<std::size_t> capacity,
                        std::size_t base, std::size_t high) {
  OpCounts counts;
  const double cap_compression =
      capacity ? rungs[*capacity].compression : 0.0;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const Rung& r = rungs[i];
    if (i != base && i != high && r.compression > cap_compression) continue;
    counts.attempted += r.cargo_sent;
    if (r.protocol_errors > 0 || !r.report_ok || r.stalled) {
      counts.failed += r.cargo_sent;
    } else {
      // Missing ACKs fail their cargo; a duplicate ACK fails the cargo it
      // repeats.
      counts.failed += std::min<std::size_t>(
          r.cargo_sent, (r.cargo_sent - std::min(r.cargo_sent, r.acks_unique)) +
                            r.acks_duplicate);
    }
  }
  return counts;
}

}  // namespace perfbench
