// Clocks and child processes: the wall and CPU clocks the workloads time
// with, a process's peak resident set, and the gateway daemon child with
// its stall guard.
#pragma once

#include <sys/resource.h>
#include <sys/types.h>

#include <optional>
#include <string>

namespace perfbench {

/// Wall seconds on the steady clock.
double now_s();
/// CPU seconds the calling thread has used.
double thread_cpu_s();
/// CPU seconds the whole process has used, over all its threads.
double process_cpu_s();

/// Reference-core seconds. The core a shared host gives a thread speeds
/// up and slows down by tens of percent over seconds and minutes, for
/// every kind of code alike. The workloads therefore run a fixed
/// calibration kernel between their timed operations and report each time
/// as the time a reference core would have taken: one that runs the
/// kernel in kReferenceCalibration_s.
inline constexpr double kReferenceCalibration_s = 0.010;

/// Thread CPU seconds of one run of the calibration kernel: sorting and
/// hashing 100k pseudo-random integers, a mix of branches, memory traffic
/// and allocation. The kernel is part of the benchmark, not of eTrain, so
/// a change to eTrain does not move it.
double calibration_s();

/// `seconds` measured while the calibration kernel took
/// `mean_calibration_s`, in reference-core seconds.
inline double reference_s(double seconds, double mean_calibration_s) {
  return seconds * kReferenceCalibration_s / mean_calibration_s;
}

/// Peak resident set (VmHWM) of process `pid`, or of this process when
/// pid is 0, in MiB.
double peak_rss_mb(int pid = 0);

/// One etrain_gatewayd child on loopback with ephemeral service and stats
/// ports. The constructor returns once the daemon listens on both. The
/// destructor kills and reaps a daemon that is still running, so no path
/// leaves one behind.
class Daemon {
 public:
  /// Spawns `bin_dir`/etrain_gatewayd at `compression` with `shards`
  /// shards; its report, flight dump and stderr go to `out_dir`/`tag`.*.
  Daemon(const std::string& bin_dir, const std::string& out_dir,
         double compression, int shards, const std::string& tag);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port = 0;
  int stats_port = 0;
  std::string report_path;

  /// The running daemon's process id (-1 once stopped).
  pid_t pid() const { return pid_; }
  /// The running daemon's peak resident set, MiB.
  double peak_rss_mb() const { return perfbench::peak_rss_mb(pid_); }

  /// Asks for a graceful shutdown (SIGTERM) and waits until `deadline`
  /// (now_s() seconds). A daemon still running then is stalled: it is
  /// killed with SIGKILL and `killed` is set. Either way it is reaped and
  /// its rusage kept in `usage`.
  void stop(double deadline);

  rusage usage{};
  bool killed = false;

  /// User plus system CPU seconds of the reaped daemon.
  double cpu_s() const;

 private:
  void read_ports();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

/// The value of etrain_gateway_tick_lag_seconds in a daemon's /metrics
/// response, or nullopt when the response does not hold it.
std::optional<double> parse_tick_lag(const std::string& response);

}  // namespace perfbench
