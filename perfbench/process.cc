#include "process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <unordered_map>
#include <vector>

extern char** environ;

namespace perfbench {

namespace {

constexpr double kSpawnTimeout = 5.0;

/// Keeps the calibration kernel's work observable, so the compiler cannot
/// drop it.
volatile std::uint64_t g_calibration_sink = 0;

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int parse_after(const std::string& text, const char* key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::atoi(text.c_str() + at + std::strlen(key));
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double calibration_s() {
  const double t0 = thread_cpu_s();
  std::uint64_t x = 88172645463325252ULL;
  std::vector<std::uint64_t> v(100000);
  for (auto& e : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = x;
  }
  std::sort(v.begin(), v.end());
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  m.reserve(1 << 15);
  for (std::size_t i = 0; i < v.size(); i += 4) m[v[i] >> 40] += i;
  std::uint64_t acc = 0;
  for (const std::uint64_t e : v) {
    const auto it = m.find(e >> 40);
    if (it != m.end()) acc += it->second;
  }
  g_calibration_sink = acc;
  return thread_cpu_s() - t0;
}

double peak_rss_mb(int pid) {
  // VmHWM, not getrusage: ru_maxrss survives exec, so a child would report
  // the high-water mark of the process that spawned it.
  const std::string path =
      pid > 0 ? "/proc/" + std::to_string(pid) + "/status" : "/proc/self/status";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kb / 1024.0;
}

Daemon::Daemon(const std::string& bin_dir, const std::string& out_dir,
               double compression, int shards, const std::string& tag) {
  report_path = out_dir + "/" + tag + ".report.json";
  const std::string flight = out_dir + "/" + tag + ".flight.json";
  const std::string log = out_dir + "/" + tag + ".stderr.log";
  const std::string bin = bin_dir + "/etrain_gatewayd";
  char scale[32];
  std::snprintf(scale, sizeof(scale), "%g", compression);
  std::vector<std::string> args = {bin,           "--port",      "0",
                                   "--shards",    std::to_string(shards),
                                   "--time-scale", scale,        "--stats-port",
                                   "0",           "--report",    report_path,
                                   "--flight",    flight};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  if (rc != 0) {
    ::close(out[0]);
    pid_ = -1;
    throw std::runtime_error("cannot start " + bin);
  }
  stdout_fd_ = out[0];
  read_ports();
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

void Daemon::stop(double deadline) {
  ::kill(pid_, SIGTERM);
  int status = 0;
  while (true) {
    const pid_t got = ::wait4(pid_, &status, WNOHANG, &usage);
    if (got == pid_) break;
    if (now_s() > deadline) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &usage);
      pid_ = -1;
      killed = true;
      return;
    }
    ::usleep(2000);
  }
  pid_ = -1;
}

double Daemon::cpu_s() const {
  return static_cast<double>(usage.ru_utime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec) +
         static_cast<double>(usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_stime.tv_usec);
}

void Daemon::read_ports() {
  std::string text;
  const double deadline = now_s() + kSpawnTimeout;
  while (port == 0 || stats_port == 0) {
    if (now_s() > deadline) throw std::runtime_error("daemon did not listen");
    pollfd p{stdout_fd_, POLLIN, 0};
    if (::poll(&p, 1, 50) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) throw std::runtime_error("daemon exited before listening");
    text.append(buf, static_cast<std::size_t>(n));
    port = parse_after(text, "listening on 127.0.0.1:");
    stats_port = parse_after(text, "stats on 127.0.0.1:");
  }
}

std::optional<double> parse_tick_lag(const std::string& response) {
  const std::string key = "\netrain_gateway_tick_lag_seconds ";
  const auto at = response.find(key);
  if (at == std::string::npos) return std::nullopt;
  return std::strtod(response.c_str() + at + key.size(), nullptr);
}

}  // namespace perfbench
