// Checks the benchmark's own arithmetic (spans.h, stats.h) and the gateway
// stall guard (process.h) on a real daemon. Exits 1 when a check failed.
//
//   perfbench_selftest BIN_DIR OUT_DIR
//
// BIN_DIR holds etrain_gatewayd; OUT_DIR takes its report and logs. Run it
// with `python3 perfbench/run.py --self-test`.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "process.h"
#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using perfbench::Rung;
using perfbench::Span;

void spans_self_time() {
  // root [0,10] with children A [1,4] and B [3,6] (overlapping: they cover
  // [1,6]) and C [9,12] (clipped to the root at 10); A has a child [2,3].
  const std::vector<Span> spans = {
      {"root", 0, 10, -1}, {"a", 1, 4, 0}, {"b", 3, 6, 0},
      {"c", 9, 12, 0},     {"a.x", 2, 3, 1},
  };
  const std::vector<double> self = perfbench::self_times(spans);
  check(near(self[0], 10 - 5 - 1), "root self time = duration - union of children");
  check(near(self[1], 3 - 1), "nested child subtracts only its own children");
  check(near(self[2], 3) && near(self[4], 1), "leaf self time = duration");
  const auto totals = perfbench::layer_totals(spans, 1);
  check(totals.size() == 2 && totals.at("a").calls == 1 &&
            near(totals.at("a.x").busy_s, 1),
        "layer totals restricted to a subtree");

  perfbench::SpanRecorder recorder;
  const auto outer = recorder.begin("outer");
  const auto inner = recorder.begin("inner");
  recorder.end(inner);
  recorder.end(outer);
  check(recorder.spans()[1].parent == outer &&
            recorder.spans()[0].end >= recorder.spans()[1].end,
        "recorder nests spans under the open span");
}

void quantiles() {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  const auto s = perfbench::summarize(v);
  check(near(s.median, 5.5) && near(s.q1, 2.75) && near(s.q3, 8.25) &&
            s.n == 10,
        "quartiles of 1..10 match statistics.quantiles (2.75, 8.25)");
  const auto two = perfbench::summarize({1, 2});
  check(near(two.q1, 0.75) && near(two.median, 1.5) && near(two.q3, 2.25),
        "quartiles of two values match statistics.quantiles");
  const auto five = perfbench::summarize({5, 1, 4, 2, 3});
  check(near(five.q1, 1.5) && near(five.median, 3) && near(five.q3, 4.5),
        "quartiles of five values match statistics.quantiles");
  const auto one = perfbench::summarize({7});
  check(near(one.q1, 7) && near(one.q3, 7) && one.n == 1,
        "one value is its own quartiles");

  std::vector<double> big(1000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i + 1);
  const auto p99 = perfbench::percentile(big, 0.99);
  check(p99.reportable && p99.beyond == 10 && near(p99.value, 990),
        "p99 of 1000 samples has 10 beyond it: reportable");
  big.pop_back();
  check(!perfbench::percentile(big, 0.99).reportable,
        "p99 of 999 samples has 9 beyond it: not reportable");
  check(perfbench::percentile(big, 0.5).reportable,
        "p50 of 999 samples is reportable");

  check(near(perfbench::reference_s(0.3, 0.02), 0.15) &&
            perfbench::calibration_s() > 0.0,
        "a core twice as slow as the reference halves its times");
  const auto minima = perfbench::block_minima({5, 3, 4, 9, 8, 7, 2, 6, 1}, 4);
  check(minima.size() == 2 && near(minima[0], 3) && near(minima[1], 1),
        "block minima: a short last block joins the one before it");
  check(perfbench::block_minima({4, 2}, 4).size() == 1,
        "block minima of fewer values than a block is one block");
}

void lateness() {
  // Frame scheduled at wall 10.0 s, batched 12 clock s at 60x (0.2 wall s):
  // due at 10.2 s. The ACK arriving at 10.5 s is 0.3 s late, however late
  // the generator actually sent the frame.
  check(near(perfbench::ack_lateness_s(10.5, 10.0, 12.0, 60.0), 0.3),
        "ACK lateness counts from the due time");
  check(perfbench::ack_lateness_s(10.19, 10.0, 12.0, 60.0) < 0,
        "an early ACK keeps its negative sign");
  std::vector<double> flat(30, 0.001), rising;
  for (int i = 0; i < 30; ++i) rising.push_back(0.001 * i * i);
  check(!perfbench::backlog_grew(flat, 0.02) &&
            perfbench::backlog_grew(rising, 0.02),
        "backlog growth compares the first and last thirds");
}

Rung passing(double compression) {
  Rung r;
  r.compression = compression;
  r.cargo_sent = r.acks_unique = 2000;
  r.report_ok = true;
  r.p99_late_ms = 1.0;
  r.acked_pkts_per_s = compression * 20;
  return r;
}

void capacity() {
  std::vector<Rung> rungs = {passing(60), passing(120), passing(240),
                             passing(480), passing(960), passing(1920)};
  rungs[2].stalled = true;         // stalled below the knee
  rungs[4].p99_late_ms = 50.0;     // over the limit
  rungs[5].generator_late = true;  // invalid, not a gateway failure
  auto cap = perfbench::capacity_rung(rungs, 20.0);
  check(cap && *cap == 3,
        "capacity is the highest passing rung, past a stalled one");
  const auto tally = perfbench::tally_ladder(rungs, 20.0);
  check(tally.passed == 3 && tally.stalled == 1,
        "the ladder tally counts passed and stalled rungs");
  rungs[3].p99_late_ms.reset();
  rungs[3].max_late_ms = 25.0;
  cap = perfbench::capacity_rung(rungs, 20.0);
  check(cap && *cap == 1,
        "without a reportable p99 the maximum is held to the limit");
  rungs[0].acks_duplicate = 1;
  rungs[1].acks_unique = 1999;
  check(!perfbench::capacity_rung({rungs[0], rungs[1]}, 20.0),
        "a duplicate or missing ACK fails the rung");
}

void fail_counts() {
  std::vector<Rung> rungs = {passing(60), passing(120), passing(240),
                             passing(480)};
  rungs[1].acks_unique = 1990;  // 10 missing
  rungs[1].acks_duplicate = 5;  // 5 repeated
  rungs[2].acks_unique = 100;   // probe above capacity: left out
  rungs[3].stalled = true;      // the fixed high rung: counted, all failed
  const auto counts = perfbench::gateway_counts(rungs, 1, 0, 3);
  check(counts.attempted == 6000 && counts.failed == 2015,
        "fail_ratio base: rungs up to capacity plus base and high");
  check(near(counts.fail_ratio(), 2015.0 / 6000.0), "fail_ratio = failed / attempted");
  perfbench::OpCounts ops;
  ops.add(10, true);
  ops.add(5, false);
  check(ops.attempted == 15 && ops.failed == 5, "a failed rep fails all its operations");
}

/// GET /metrics from a daemon's stats port (blocking).
std::string fetch_metrics(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string body;
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(request.size())) {
    char buf[8192];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      body.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return body;
}

/// The stall guard on a real daemon: one that cannot act on SIGTERM
/// (stopped with SIGSTOP) is killed at the deadline, and its rung counts
/// as stalled; one that can shuts down on SIGTERM and is not killed. The
/// healthy daemon's /metrics also pins the tick-lag name the ladder reads.
void stall_guard(const std::string& bin_dir, const std::string& out_dir) {
  constexpr double kGrace = 0.5;
  constexpr double kMargin = 0.25;
  try {
    perfbench::Daemon stuck(bin_dir, out_dir, 60.0, 1, "selftest-stalled");
    check(::kill(stuck.pid(), SIGSTOP) == 0, "daemon stopped with SIGSTOP");
    const double t0 = perfbench::now_s();
    stuck.stop(t0 + kGrace);
    const double took = perfbench::now_s() - t0;
    check(stuck.killed && stuck.pid() == -1,
          "a stalled daemon is killed and reaped");
    check(took >= kGrace && took < kGrace + kMargin,
          "the stall guard returns within its grace plus 0.25 s");

    Rung stalled = passing(960);
    stalled.stalled = stuck.killed;
    const std::vector<Rung> rungs = {passing(60), passing(480), stalled,
                                     passing(1920)};
    const auto tally = perfbench::tally_ladder(rungs, 20.0);
    const auto cap = perfbench::capacity_rung(rungs, 20.0);
    check(tally.stalled == 1 && tally.passed == 3 && cap && *cap == 3,
          "the killed rung counts in stalled_rungs; capacity passes it");

    perfbench::Daemon healthy(bin_dir, out_dir, 60.0, 1, "selftest-healthy");
    check(perfbench::parse_tick_lag(fetch_metrics(healthy.stats_port))
              .has_value(),
          "the daemon's /metrics holds the tick lag the ladder scrapes");
    healthy.stop(perfbench::now_s() + 5.0);
    check(!healthy.killed && healthy.pid() == -1,
          "a healthy daemon shuts down on SIGTERM and is not killed");
  } catch (const std::exception& e) {
    check(false, e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: perfbench_selftest BIN_DIR OUT_DIR\n");
    return 2;
  }
  spans_self_time();
  quantiles();
  lateness();
  capacity();
  fail_counts();
  stall_guard(argv[1], argv[2]);
  std::printf("%s\n", failures == 0 ? "all checks passed" : "checks FAILED");
  return failures == 0 ? 0 : 1;
}
