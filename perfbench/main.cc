// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <fleet-city|deep-queue|des-system|gateway-ladder>
//             --seed N --seconds S --trace 0|1 --out-dir DIR --bin-dir DIR
//
// Untraced runs (--trace 0) print the workload's end-to-end metrics with
// their unit, reported value, and the median, quartiles and count of
// their samples; traced runs (--trace 1) print its per-layer metrics. Both print a machine fingerprint first
// and, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// The exit code is 0 only when the run completed; a failed correctness
// check still exits 0 with "correct": false.
#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.h"

namespace perfbench {

namespace {

const char* flag(int argc, char** argv, const char* name,
                 const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_fingerprint(const Options& o) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 0) load[0] = load[1] = load[2] = -1.0;
  utsname uts{};
  uname(&uts);
  std::printf(
      "fingerprint: nproc=%u compiler=\"g++ %s\" build=%s loadavg=%.2f/%.2f/"
      "%.2f kernel=%s %s\n",
      std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
      load[0], load[1], load[2], uts.sysname, uts.release);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
}

}  // namespace

int main_impl(int argc, char** argv) {
  Options o;
  o.workload = flag(argc, argv, "--workload", "");
  o.seed = std::strtoull(flag(argc, argv, "--seed", "1"), nullptr, 10);
  o.seconds = std::strtod(flag(argc, argv, "--seconds", "10"), nullptr);
  o.trace = std::strcmp(flag(argc, argv, "--trace", "0"), "1") == 0;
  o.out_dir = flag(argc, argv, "--out-dir", ".");
  o.bin_dir = flag(argc, argv, "--bin-dir", ".");
  if (o.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  print_fingerprint(o);
  std::fflush(stdout);

  Result r;
  if (o.workload == "fleet-city") {
    r = run_fleet_city(o);
  } else if (o.workload == "deep-queue") {
    r = run_deep_queue(o);
  } else if (o.workload == "des-system") {
    r = run_des_system(o);
  } else if (o.workload == "gateway-ladder") {
    r = run_gateway_ladder(o);
  } else {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }

  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  // Which names a run must report, and in what units, is BENCHMARK.json's
  // to say; run.py checks the names printed here against it.
  const std::vector<Metric>& metrics = o.trace ? r.per_layer : r.end_to_end;
  for (const Metric& m : metrics) {
    if (m.samples.empty()) {
      std::fprintf(stderr, "perfbench: %s has no samples\n", m.name.c_str());
      return 1;
    }
  }

  std::printf("%-36s %-8s %14s %14s %14s %14s %5s\n", "metric", "unit",
              "value", "median", "q1", "q3", "n");
  for (const Metric& m : metrics) {
    const Summary s = summarize(m.samples);
    std::printf("%-36s %-8s %14.6g %14.6g %14.6g %14.6g %5zu\n",
                m.name.c_str(), m.unit.c_str(), m.reported(), s.median, s.q1,
                s.q3, s.n);
  }
  std::printf("attempted=%llu failed=%llu fail_ratio=%.6g correct=%s\n",
              static_cast<unsigned long long>(r.ops.attempted),
              static_cast<unsigned long long>(r.ops.failed),
              r.ops.fail_ratio(), r.correct ? "true" : "false");

  // A run that attempted nothing checked nothing: it is not correct, and
  // reports one attempted operation so the count stays meaningful.
  const bool correct =
      r.correct && r.ops.failed == 0 && r.ops.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<std::uint64_t>(r.ops.attempted, 1));
  json += ", \"failed\": " + std::to_string(r.ops.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " +
            json_number(m.reported()) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
