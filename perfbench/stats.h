// The benchmark's own arithmetic: dispersion summaries, tail percentiles,
// open-loop ACK lateness, gateway capacity selection and the failure
// counts behind fail_ratio. perfbench_selftest checks each of these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Median and quartiles of a sample, as Python's statistics.median and
/// statistics.quantiles(values, n=4) (the default "exclusive" method)
/// compute them. A single value is its own median and quartiles; an empty
/// sample summarizes to zeros with n = 0.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> values);

/// The fastest of each consecutive block of `block` values, in order; a
/// short last block joins the one before it. On a shared host other
/// tenants only ever slow a timing down, by a varying amount, so the
/// fastest of a block is the least disturbed of its timings.
std::vector<double> block_minima(const std::vector<double>& values,
                                 std::size_t block);

/// Nearest-rank percentile `p` (0 < p < 1) of a sample, with the number of
/// samples that lie beyond its rank. A tail percentile is reportable only
/// when at least kMinBeyond samples lie beyond it (so p99 needs >= 1000).
struct Percentile {
  double value = 0.0;
  std::size_t beyond = 0;
  bool reportable = false;
};
inline constexpr std::size_t kMinBeyond = 10;
Percentile percentile(std::vector<double> values, double p);

/// ACK lateness of an open-loop request, in wall seconds: the ACK's wall
/// arrival minus its due time. The due time is the cargo frame's
/// *scheduled* send time plus the ACK's batching latency (clock seconds)
/// divided by the clock compression — so a generator that sent the frame
/// late is charged to the gateway sample, and the scheduler's intended
/// batching delay is not. Uplink serialization can make a sample slightly
/// negative; the sign is kept.
double ack_lateness_s(double ack_wall_s, double scheduled_send_wall_s,
                      double latency_clock_s, double compression);

/// One rung of the gateway load ladder.
struct Rung {
  double compression = 0.0;  ///< clock seconds per wall second
  std::size_t cargo_sent = 0;
  std::size_t acks_unique = 0;      ///< distinct cargo ACKed in time
  std::size_t acks_duplicate = 0;   ///< ACKs for an already ACKed packet
  std::size_t protocol_errors = 0;  ///< undecodable or unexpected frames
  bool report_ok = false;     ///< shutdown report passed report_check
  bool stalled = false;       ///< daemon killed at the rung's wall deadline
  bool generator_late = false;  ///< loadgen lag p99 over the limit: invalid
  bool backlog_grew = false;  ///< lateness rose across the rung
  double acked_pkts_per_s = 0.0;  ///< unique ACKs per wall s of the rung
  /// p99 ACK lateness, ms; empty when fewer than kMinBeyond samples lie
  /// beyond it (then the rung's maximum lateness is held to the limit).
  std::optional<double> p99_late_ms;
  double max_late_ms = 0.0;

  /// Every cargo ACKed exactly once, no protocol error, a clean report.
  bool delivered() const {
    return !stalled && acks_unique == cargo_sent && acks_duplicate == 0 &&
           protocol_errors == 0 && report_ok;
  }
};

/// A rung passes when it is valid (generator on time), delivered
/// everything, its backlog did not grow, and its tail lateness (p99, or
/// the maximum when p99 is not reportable) stays within `limit_ms`.
bool rung_passed(const Rung& rung, double limit_ms);

/// True when lateness grew across the rung: the median lateness of the
/// last third of the ACKs (ordered by due time) exceeds that of the first
/// third by more than `limit_s`.
bool backlog_grew(const std::vector<double>& lateness_by_due, double limit_s);

/// Index of the capacity rung — the highest-compression rung that passed,
/// stalled rungs notwithstanding — or nullopt when none passed.
std::optional<std::size_t> capacity_rung(const std::vector<Rung>& rungs,
                                         double limit_ms);

/// Rungs that passed and rungs whose daemon stalled, over a ladder.
struct LadderTally {
  std::size_t passed = 0;
  std::size_t stalled = 0;
};
LadderTally tally_ladder(const std::vector<Rung>& rungs, double limit_ms);

/// Operations attempted and failed.
struct OpCounts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts `ops` operations, all failed unless `ok`.
  void add(std::uint64_t ops, bool ok) {
    attempted += ops;
    if (!ok) failed += ops;
  }
  double fail_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// The gateway's fail_ratio base: the cargo of every rung up to the
/// capacity rung plus the fixed `base` and `high` rungs. Probe rungs above
/// capacity are reported per rung but left out. A cargo counts as failed
/// when it was not ACKed exactly once before the rung's deadline; every
/// cargo of a rung with a protocol error or a failed report fails.
OpCounts gateway_counts(const std::vector<Rung>& rungs,
                        std::optional<std::size_t> capacity,
                        std::size_t base, std::size_t high);

}  // namespace perfbench
