// The four benchmark workloads and the result shape they share.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "process.h"
#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of the timed phase
  bool trace = false;
  std::string out_dir;  ///< scratch for spans, daemon reports and logs
  std::string bin_dir;  ///< where etrain_gatewayd and report_check live
};

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;
  /// The reported value; the median of the samples when unset.
  std::optional<double> value;

  double reported() const {
    return value ? *value : summarize(samples).median;
  }
};

struct Result {
  bool correct = true;
  OpCounts ops;
  /// Named end-to-end metrics (untraced runs) and per-layer metrics
  /// (traced runs). run.py checks both against BENCHMARK.json.
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Extra human-readable lines (rung tables, definitions).
  std::vector<std::string> notes;

  void e2e(std::string name, std::string unit, std::vector<double> samples,
           std::optional<double> value = std::nullopt) {
    end_to_end.push_back({std::move(name), std::move(unit),
                          std::move(samples), value});
  }
  void layer(std::string name, std::string unit, double value) {
    per_layer.push_back({std::move(name), std::move(unit), {value}, value});
  }
};

Result run_fleet_city(const Options& options);
Result run_deep_queue(const Options& options);
Result run_des_system(const Options& options);
Result run_gateway_ladder(const Options& options);

// --- helpers shared by the workloads ---

/// Per-workload stream of the benchmark seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a over raw bytes, for fold digests.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* data, std::size_t n);
  template <typename T>
  void add(const T& v) {
    bytes(&v, sizeof(v));
  }
};

}  // namespace perfbench
