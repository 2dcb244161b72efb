// gateway-ladder: etrain_gatewayd on loopback under an open-loop load that
// rises through a fixed ladder of clock compressions.
//
// Every rung spawns a fresh daemon child (kShards shards; process.h) and
// drives it from this one generator thread with nproc scripted heavy
// devices, one connection each. A device registers many cargo and train
// apps, sends HEARTBEAT and CARGO frames on a seeded schedule, and ends
// its session every kSessionClock clock seconds with BYE, reconnecting
// with a fresh HELLO, so accept and HELLO keep recurring.
//
// The load is open-loop: frames go out at their scheduled wall times
// whether or not earlier ACKs came back, and every ACK is timed from its
// due time (stats.h: ack_lateness_s). The rung's daemon runs under a wall
// deadline; a daemon that has not delivered and shut down by then is
// killed with SIGKILL and the rung is recorded as stalled, and the ladder
// goes on. Capacity is the highest rung that passed (stats.h).
//
// A traced run also replays the base rung's frame script in-process under
// sim::VirtualClock through the public wire and ClientSession functions,
// with a span around each call, to split the gateway's work by layer; the
// daemon's CPU time per rung gives the rest (loop and syscall cost).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <spawn.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.h"
#include "common/rng.h"
#include "gateway/session.h"
#include "sim/clock.h"
#include "sim/simulator.h"
#include "spans.h"
#include "system/protocol.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

namespace wire = etrain::system::wire;

namespace {

// --- the ladder ---

/// Clock compressions, lowest first. 60x is bench_gateway's default.
const std::vector<double> kLadder = {60,   120,  240,  480,  960,
                                     1920, 3840, 7680, 15360};
constexpr std::size_t kBaseRung = 0;
/// The base rung drives this many times longer than the others: its mean
/// ACK latency is the gateway's delay_s, and every session ends in a BYE
/// flush, so a single 60 s session per device leaves that mean at the
/// mercy of the few arrivals just before the flush.
constexpr double kBaseDriveFactor = 4.0;
/// The fixed rung below the knee whose latency is reported as ".high". It
/// runs kHighRepeats times (the later ones after the ladder), all of them
/// counted in the serving cost per daemon CPU second.
constexpr std::size_t kHighRung = 4;
constexpr int kHighRepeats = 9;
/// p99 ACK lateness limit of a passing rung, and the generator lag beyond
/// which a rung is invalid.
constexpr double kLimitMs = 20.0;

// --- one device's script ---

constexpr int kCargoApps = 16;
constexpr int kTrainApps = 4;
/// Cargo arrivals per clock second per device, over all its apps.
constexpr double kCargoRate = 5.0;
constexpr double kSessionClock = 60.0;
constexpr double kDeadlineMin = 10.0;
constexpr double kDeadlineMax = 120.0;
constexpr std::uint64_t kCargoBytes = 2000;

// --- wall-time allowances per rung ---

constexpr double kDrainAllowance = 1.5;
/// The base and high rungs are fixed points of the correctness gate, so a
/// transient slowdown of the host gets more time to drain before their
/// cargo counts as failed.
constexpr double kFixedRungDrainAllowance = 10.0;
constexpr double kShutdownAllowance = 2.0;
constexpr double kStallGrace = 0.5;

/// Set-ups of the high rung per block of setup_s (block_minima).
constexpr std::size_t kSetupBlock = 3;
/// Calibration kernel runs before each rung (process.h).
constexpr int kCalibrationsPerRung = 4;
/// Wall seconds between two /metrics scrapes of a traced rung.
constexpr double kScrapeInterval = 0.05;

/// One shard serves every session, so where the knee falls depends on
/// the per-frame cost and not on how SO_REUSEPORT happens to spread a
/// handful of connections over several shards.
constexpr int kShards = 1;

/// One device per core: at most nproc connections, and the generator
/// thread plus the shard stay within nproc cores.
int device_count() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

enum class EventKind : std::uint8_t { kHeartbeat, kCargo, kRotate };

struct Event {
  double t = 0.0;  ///< clock seconds from the rung's start
  std::uint32_t device = 0;
  EventKind kind = EventKind::kCargo;
  std::uint32_t app = 0;
  std::uint32_t seq = 0;     ///< heartbeat sequence number
  std::uint64_t cargo = 0;   ///< cargo index = packet id
  double deadline_s = 0.0;
};

struct Script {
  double duration = 0.0;  ///< clock seconds
  std::vector<Event> events;
  std::size_t cargo_count = 0;
};

wire::HelloFrame hello_for(std::uint32_t device, std::uint32_t session) {
  wire::HelloFrame hello;
  hello.client_id = (static_cast<std::uint64_t>(device) << 32) | session;
  for (int a = 0; a < kCargoApps; ++a) {
    hello.cargo_apps.push_back(
        {static_cast<std::uint32_t>(a),
         static_cast<wire::ProfileCode>(a % 3)});
  }
  for (int a = 0; a < kTrainApps; ++a) {
    hello.train_apps.push_back(static_cast<std::uint32_t>(100 + a));
  }
  return hello;
}

/// The seeded script of every device over `duration` clock seconds.
Script make_script(std::uint64_t seed, double duration) {
  Script s;
  s.duration = duration;
  for (int d = 0; d < device_count(); ++d) {
    etrain::Rng rng(derive_seed(seed, 0x6a7e + static_cast<std::uint64_t>(d)));
    for (int a = 0; a < kTrainApps; ++a) {
      const double period = 20.0 + 5.0 * a;
      std::uint32_t seq = 0;
      // Fixed, evenly spread phases: the seed draws only the cargo.
      const double phase =
          period * std::fmod(0.618034 * (d * kTrainApps + a + 1), 1.0);
      for (double t = phase; t < duration; t += period) {
        s.events.push_back({t, static_cast<std::uint32_t>(d),
                            EventKind::kHeartbeat,
                            static_cast<std::uint32_t>(100 + a), seq++, 0,
                            0.0});
      }
    }
    for (double t = rng.exponential_mean(1.0 / kCargoRate); t < duration;
         t += rng.exponential_mean(1.0 / kCargoRate)) {
      const auto app = static_cast<std::uint32_t>(
          std::min<double>(kCargoApps - 1, rng.uniform(0.0, kCargoApps)));
      s.events.push_back({t, static_cast<std::uint32_t>(d), EventKind::kCargo,
                          app, 0, 0, rng.uniform(kDeadlineMin, kDeadlineMax)});
    }
    for (double t = kSessionClock; t < duration; t += kSessionClock) {
      s.events.push_back(
          {t, static_cast<std::uint32_t>(d), EventKind::kRotate, 0, 0, 0, 0.0});
    }
  }
  std::stable_sort(s.events.begin(), s.events.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });
  for (Event& e : s.events) {
    if (e.kind == EventKind::kCargo) e.cargo = s.cargo_count++;
  }
  return s;
}

std::string encode_event(const Event& e) {
  if (e.kind == EventKind::kHeartbeat) {
    return wire::encode_heartbeat({e.app, e.seq});
  }
  return wire::encode_cargo({e.app, e.cargo, kCargoBytes, e.deadline_s});
}

// --- small socket helpers ---

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

/// Reads one number field from a JSON report by key (first occurrence).
std::optional<double> report_number(const std::string& path,
                                    const std::string& key) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[8192];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  const std::string quoted = "\"" + key + "\":";
  auto at = text.find(quoted);
  if (at == std::string::npos) return std::nullopt;
  at += quoted.size();
  while (at < text.size() && text[at] == ' ') ++at;
  return std::strtod(text.c_str() + at, nullptr);
}

/// Runs examples/report_check on a report; true when it passes.
bool report_check(const Options& o, const std::string& report) {
  const std::string bin = o.bin_dir + "/report_check";
  std::vector<std::string> args = {bin, report};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, bin.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return false;
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// --- the open-loop generator ---

struct RungRun {
  Rung rung;
  double setup_s = 0.0;  ///< script generation + spawn until listening
  double clock_s = 0.0;  ///< clock seconds of traffic per device
  double last_ack_s = 0.0;  ///< wall seconds from start to the last ACK
  std::vector<double> lateness_ms;
  std::vector<double> latency_clock_s;
  std::vector<double> lag_ms;
  std::vector<double> connect_ms;
  std::size_t frames_sent = 0;
  double cpu_s = 0.0;
  double maxrss_mb = 0.0;
  double energy_J = 0.0;
  double tick_lag_max_ms = 0.0;  ///< over the scrapes (traced runs)
  std::size_t tick_lag_scrapes = 0;  ///< scrapes that held a value
  double calibration_s = 0.0;  ///< summed over kCalibrationsPerRung runs
};

enum class ConnState { kLive, kDraining, kClosed };

struct Device {
  int fd = -1;
  ConnState state = ConnState::kClosed;
  std::uint32_t session = 0;
  wire::FrameReader reader;
  std::string outbuf;
  std::string pending;  ///< frames due while (re)connecting
  bool reconnect_after_drain = false;
};

class Generator {
 public:
  /// With `scrape_port` > 0, /metrics on that port is scraped every
  /// kScrapeInterval while the script runs, without blocking the loop.
  Generator(const Script& script, double compression, int port,
            int scrape_port, RungRun& out)
      : script_(script), c_(compression), port_(port),
        scrape_port_(scrape_port), out_(out),
        devices_(static_cast<std::size_t>(device_count())) {
    sched_wall_.assign(script.cargo_count, 0.0);
    acked_.assign(script.cargo_count, 0);
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (ep_ < 0) throw std::runtime_error("epoll_create1 failed");
  }
  ~Generator() {
    for (Device& d : devices_) {
      if (d.fd >= 0) ::close(d.fd);
    }
    if (scrape_fd_ >= 0) ::close(scrape_fd_);
    ::close(ep_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Drives the script; returns false when the wall deadline passed
  /// before every connection closed.
  bool run(double deadline) {
    for (std::uint32_t d = 0; d < devices_.size(); ++d) {
      if (!open_session(d)) return false;
    }
    start_ = now_s();
    std::size_t next = 0;
    while (true) {
      const double now = now_s();
      const double clock_now = (now - start_) * c_;
      while (next < script_.events.size() &&
             script_.events[next].t <= clock_now) {
        dispatch(script_.events[next], now);
        ++next;
      }
      if (scrape_port_ > 0 && !final_ && scrape_fd_ < 0 &&
          now >= next_scrape_) {
        start_scrape();
        next_scrape_ = now + kScrapeInterval;
      }
      if (next == script_.events.size() && !final_) {
        // A device between sessions still reconnects to send the frames
        // it holds, then says BYE (open_session sees final_).
        final_ = true;
        for (std::uint32_t d = 0; d < devices_.size(); ++d) begin_drain(d);
      }
      bool backlog = false;
      for (std::uint32_t d = 0; d < devices_.size(); ++d) {
        backlog |= !flush(d);
      }
      if (final_ && all_closed()) return true;
      if (now_s() > deadline) return false;

      int timeout_ms = 10;
      if (backlog) {
        timeout_ms = 0;
      } else if (next < script_.events.size()) {
        const double wait =
            start_ + script_.events[next].t / c_ - now_s();
        timeout_ms = wait <= 0.001 ? 0 : static_cast<int>(wait * 1e3);
      }
      epoll_event evs[16];
      const int n = ::epoll_wait(ep_, evs, 16, timeout_ms);
      for (int i = 0; i < n; ++i) {
        if (evs[i].data.u32 == kScrapeSlot) {
          scrape_event(evs[i].events);
        } else {
          readable(evs[i].data.u32);
        }
      }
    }
  }

  void finish() {
    const Script& s = script_;
    Rung& r = out_.rung;
    r.cargo_sent = s.cargo_count;
    for (std::size_t i = 0; i < s.cargo_count; ++i) {
      if (acked_[i] == 0) continue;
      ++r.acks_unique;
      r.acks_duplicate += acked_[i] - 1;
    }
    std::sort(due_lateness_.begin(), due_lateness_.end());
    std::vector<double> ordered;
    for (const auto& [due, late] : due_lateness_) ordered.push_back(late);
    r.backlog_grew = backlog_grew(ordered, kLimitMs / 1e3);
  }

 private:
  bool open_session(std::uint32_t d) {
    Device& dev = devices_[d];
    const double t0 = now_s();
    std::optional<ScopedSpan> span;
    if (g_spans != nullptr) span.emplace("gateway.connect");
    const int fd = connect_loopback(port_);
    if (fd < 0) return false;
    const bool ok = send_all(fd, wire::encode_hello(hello_for(d, dev.session)));
    span.reset();
    out_.connect_ms.push_back((now_s() - t0) * 1e3);
    if (!ok) {
      ::close(fd);
      return false;
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = d;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
    dev.fd = fd;
    dev.state = ConnState::kLive;
    dev.reader = wire::FrameReader();
    dev.outbuf += dev.pending;
    dev.pending.clear();
    ++dev.session;
    if (final_) begin_drain(d);
    return true;
  }

  void dispatch(const Event& e, double now) {
    Device& dev = devices_[e.device];
    const double scheduled = start_ + e.t / c_;
    out_.lag_ms.push_back((now - scheduled) * 1e3);
    if (e.kind == EventKind::kRotate) {
      dev.reconnect_after_drain = true;
      begin_drain(e.device);
      return;
    }
    if (e.kind == EventKind::kCargo) sched_wall_[e.cargo] = scheduled;
    ++out_.frames_sent;
    (dev.state == ConnState::kLive ? dev.outbuf : dev.pending) +=
        encode_event(e);
  }

  void begin_drain(std::uint32_t d) {
    Device& dev = devices_[d];
    if (dev.state != ConnState::kLive) return;
    if (final_) dev.reconnect_after_drain = false;
    dev.outbuf += wire::encode_bye();
    dev.state = ConnState::kDraining;
  }

  /// Writes what the socket takes; false when bytes remain.
  bool flush(std::uint32_t d) {
    Device& dev = devices_[d];
    if (dev.fd < 0 || dev.outbuf.empty()) return true;
    const ssize_t n =
        ::send(dev.fd, dev.outbuf.data(), dev.outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) dev.outbuf.erase(0, static_cast<std::size_t>(n));
    return dev.outbuf.empty();
  }

  void readable(std::uint32_t d) {
    Device& dev = devices_[d];
    char buf[65536];
    while (dev.fd >= 0) {
      const ssize_t n = ::recv(dev.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        const double now = now_s();
        dev.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        wire::Frame frame;
        wire::FrameReader::Status st;
        while ((st = dev.reader.next(frame)) ==
               wire::FrameReader::Status::kFrame) {
          ack(frame, now);
        }
        if (st == wire::FrameReader::Status::kError) {
          ++out_.rung.protocol_errors;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      // EOF (or reset): the daemon closed the session.
      ::epoll_ctl(ep_, EPOLL_CTL_DEL, dev.fd, nullptr);
      ::close(dev.fd);
      dev.fd = -1;
      if (dev.state == ConnState::kLive) ++out_.rung.protocol_errors;
      dev.state = ConnState::kClosed;
      dev.outbuf.clear();
      if (dev.reconnect_after_drain) {
        dev.reconnect_after_drain = false;
        if (!open_session(d)) ++out_.rung.protocol_errors;
      }
      return;
    }
  }

  void ack(const wire::Frame& frame, double now) {
    wire::AckFrame a;
    if (frame.type != wire::FrameType::kAck ||
        !wire::decode_ack(frame.payload, a) ||
        a.packet_id >= script_.cargo_count) {
      ++out_.rung.protocol_errors;
      return;
    }
    if (acked_[a.packet_id]++ > 0) return;
    const double sched = sched_wall_[a.packet_id];
    const double late = ack_lateness_s(now, sched, a.latency_s, c_);
    out_.lateness_ms.push_back(late * 1e3);
    out_.latency_clock_s.push_back(a.latency_s);
    due_lateness_.emplace_back(sched + a.latency_s / c_, late);
    out_.last_ack_s = std::max(out_.last_ack_s, now - start_);
  }

  /// Opens a nonblocking connection to the stats port; the request goes
  /// out once it is writable (scrape_event).
  void start_scrape() {
    scrape_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (scrape_fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(scrape_port_));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(scrape_fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      end_scrape();
      return;
    }
    scrape_sent_ = false;
    scrape_body_.clear();
    epoll_event ev{};
    ev.events = EPOLLOUT | EPOLLIN;
    ev.data.u32 = kScrapeSlot;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, scrape_fd_, &ev);
  }

  void scrape_event(std::uint32_t events) {
    if (!scrape_sent_ && (events & EPOLLOUT) != 0) {
      static const std::string request =
          "GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
      // The request is far below a socket buffer: it goes in one send.
      if (::send(scrape_fd_, request.data(), request.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(request.size())) {
        end_scrape();
        return;
      }
      scrape_sent_ = true;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = kScrapeSlot;
      ::epoll_ctl(ep_, EPOLL_CTL_MOD, scrape_fd_, &ev);
      return;
    }
    char buf[8192];
    while (true) {
      const ssize_t n = ::recv(scrape_fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        scrape_body_.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      break;  // EOF: the response is complete (HTTP/1.0), or an error
    }
    if (const auto lag = parse_tick_lag(scrape_body_)) {
      out_.tick_lag_max_ms = std::max(out_.tick_lag_max_ms, *lag * 1e3);
      ++out_.tick_lag_scrapes;
    }
    end_scrape();
  }

  void end_scrape() {
    if (scrape_fd_ < 0) return;
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, scrape_fd_, nullptr);
    ::close(scrape_fd_);
    scrape_fd_ = -1;
  }

  bool all_closed() const {
    for (const Device& d : devices_) {
      if (d.state != ConnState::kClosed) return false;
    }
    return true;
  }

  const Script& script_;
  double c_;
  int port_;
  int scrape_port_;
  RungRun& out_;
  std::vector<Device> devices_;
  std::vector<double> sched_wall_;
  std::vector<std::uint32_t> acked_;
  std::vector<std::pair<double, double>> due_lateness_;
  int ep_ = -1;
  double start_ = 0.0;
  bool final_ = false;  ///< the script is done: every session ends now
  static constexpr std::uint32_t kScrapeSlot = 0xffffffffu;
  int scrape_fd_ = -1;
  bool scrape_sent_ = false;
  std::string scrape_body_;
  double next_scrape_ = 0.0;
};

/// Runs one rung end to end: script, daemon, drive, shutdown, checks.
RungRun run_rung(const Options& o, std::size_t index, double drive_wall) {
  RungRun out;
  const double compression = kLadder[index];
  out.rung.compression = compression;
  for (int i = 0; i < kCalibrationsPerRung; ++i) {
    out.calibration_s += calibration_s();
  }
  const double t0 = now_s();
  const Script script = make_script(o.seed, compression * drive_wall);
  out.clock_s = script.duration;
  const std::string tag = "gateway-seed" + std::to_string(o.seed) + "-rung" +
                          std::to_string(index);
  Daemon daemon(o.bin_dir, o.out_dir, compression, kShards, tag);
  out.setup_s = now_s() - t0;

  const bool fixed = index == kBaseRung || index == kHighRung;
  const double deadline =
      now_s() + drive_wall +
      (fixed ? kFixedRungDrainAllowance : kDrainAllowance);
  bool finished = false;
  {
    // Only traced runs scrape: serving /metrics costs the daemon CPU time,
    // which the untraced sim_s_per_s counts.
    Generator gen(script, compression, daemon.port,
                  o.trace ? daemon.stats_port : 0, out);
    finished = gen.run(deadline);
    gen.finish();
  }
  out.maxrss_mb = daemon.peak_rss_mb();
  // A daemon that missed the drain deadline gets a short grace to shut
  // down on SIGTERM; one that cannot is stalled and is killed.
  daemon.stop(now_s() + (finished ? kShutdownAllowance : kStallGrace));
  out.rung.stalled = daemon.killed;
  out.cpu_s = daemon.cpu_s();
  if (!out.rung.stalled) {
    out.rung.report_ok = report_check(o, daemon.report_path);
    out.energy_J =
        report_number(daemon.report_path, "client_meter_total_J").value_or(0);
  }

  Rung& r = out.rung;
  const Percentile p99 = percentile(out.lateness_ms, 0.99);
  if (p99.reportable) r.p99_late_ms = p99.value;
  for (const double l : out.lateness_ms) r.max_late_ms = std::max(r.max_late_ms, l);
  const Percentile lag = percentile(out.lag_ms, 0.99);
  r.generator_late = lag.value > kLimitMs;
  r.acked_pkts_per_s =
      out.last_ack_s > 0 ? static_cast<double>(r.acks_unique) / out.last_ack_s
                         : 0.0;
  return out;
}

// --- in-process replay of the base rung's script (traced runs) ---

struct ReplayCounts {
  std::size_t frames = 0, acks = 0;
  std::size_t hb = 0, cargo = 0, ticks = 0;
  std::size_t evaluate_calls = 0, releasing_calls = 0;
  double depth_sum = 0.0;
  std::size_t unacked = 0, duplicates = 0;
};

/// Feeds the script's frames, as bytes, through the server-side wire
/// reader and ClientSession under a VirtualClock, the way a shard does.
ReplayCounts replay_script(const Script& script) {
  etrain::sim::Simulator sim;
  etrain::sim::VirtualClock clock(sim);
  const auto& registry = etrain::baselines::builtin_registry();
  const etrain::gateway::SessionConfig config;
  ReplayCounts c;
  std::vector<std::uint32_t> acked(script.cargo_count, 0);
  std::size_t released = 0;

  struct Conn {
    wire::FrameReader reader;
    std::unique_ptr<etrain::gateway::ClientSession> session;
    std::uint32_t session_no = 0;
  };
  std::vector<Conn> conns(static_cast<std::size_t>(device_count()));
  std::string acks_out;

  const auto on_transmit = [&](const etrain::gateway::ScheduledPacket& p) {
    ScopedSpan span("wire.encode");
    acks_out = wire::encode_ack({p.packet_id, p.latency(),
                                 static_cast<std::uint8_t>(p.piggybacked)});
    ++c.acks;
    ++released;
    if (p.packet_id < acked.size()) ++acked[p.packet_id];
  };

  const auto advance = [&](double t) {
    const auto next = sim.next_event_time();
    if (!next || *next > t) return;
    const std::uint64_t before = sim.events_executed();
    const std::size_t released_before = released;
    {
      ScopedSpan span("gateway.evaluate");
      sim.run_until(t);
    }
    const std::uint64_t fired = sim.events_executed() - before;
    c.ticks += fired;
    c.evaluate_calls += fired;
    if (released > released_before) ++c.releasing_calls;
  };

  const auto open = [&](std::uint32_t d) {
    Conn& conn = conns[d];
    conn.reader = wire::FrameReader();
    const std::string bytes = wire::encode_hello(hello_for(d, conn.session_no++));
    wire::Frame frame;
    wire::HelloFrame hello;
    {
      ScopedSpan span("wire.decode");
      conn.reader.feed(bytes);
      conn.reader.next(frame);
      wire::decode_hello(frame.payload, hello);
    }
    ++c.frames;
    ScopedSpan span("gateway.session_setup");
    conn.session = std::make_unique<etrain::gateway::ClientSession>(
        hello, registry, config, clock, on_transmit);
  };

  for (std::uint32_t d = 0; d < conns.size(); ++d) open(d);
  for (const Event& e : script.events) {
    advance(e.t);
    Conn& conn = conns[e.device];
    if (e.kind == EventKind::kRotate) {
      conn.session->flush(e.t);
      conn.session.reset();
      open(e.device);
      continue;
    }
    const std::string bytes = encode_event(e);
    wire::Frame frame;
    wire::HeartbeatFrame hb;
    wire::CargoFrame cargo;
    {
      ScopedSpan span("wire.decode");
      conn.reader.feed(bytes);
      conn.reader.next(frame);
      if (e.kind == EventKind::kHeartbeat) {
        wire::decode_heartbeat(frame.payload, hb);
      } else {
        wire::decode_cargo(frame.payload, cargo);
      }
    }
    ++c.frames;
    c.depth_sum += static_cast<double>(conn.session->waiting());
    const std::size_t released_before = released;
    {
      ScopedSpan span("gateway.evaluate");
      if (e.kind == EventKind::kHeartbeat) {
        conn.session->on_heartbeat(hb.train_app, e.t);
      } else {
        conn.session->on_cargo(cargo, e.t);
      }
    }
    ++c.evaluate_calls;
    (e.kind == EventKind::kHeartbeat ? c.hb : c.cargo) += 1;
    if (released > released_before) ++c.releasing_calls;
  }
  advance(script.duration);
  for (Conn& conn : conns) {
    conn.session->flush(script.duration);
    conn.session.reset();
  }
  for (const std::uint32_t n : acked) {
    if (n == 0) ++c.unacked;
    if (n > 1) c.duplicates += n - 1;
  }
  return c;
}

}  // namespace

Result run_gateway_ladder(const Options& o) {
  Result r;
  // Drive time per rung: the run's seconds spread over the ladder, with
  // room left for spawning, draining and shutting down each daemon.
  const double drive_wall =
      std::max(0.5, 0.6 * o.seconds / static_cast<double>(kLadder.size()));

  std::optional<SpanRecorder> spans;
  if (o.trace) {
    spans.emplace();
    g_spans = &*spans;
  }
  std::vector<RungRun> runs;
  for (std::size_t i = 0; i < kLadder.size(); ++i) {
    runs.push_back(
        run_rung(o, i, i == kBaseRung ? kBaseDriveFactor * drive_wall
                                      : drive_wall));
  }

  std::vector<RungRun> high_repeats;
  for (int i = 1; i < kHighRepeats; ++i) {
    high_repeats.push_back(run_rung(o, kHighRung, drive_wall));
  }
  g_spans = nullptr;

  std::vector<Rung> rungs;
  for (const RungRun& run : runs) rungs.push_back(run.rung);
  const std::optional<std::size_t> cap = capacity_rung(rungs, kLimitMs);
  r.ops = gateway_counts(rungs, cap, kBaseRung, kHighRung);
  r.correct = cap.has_value() && rungs[kBaseRung].delivered() &&
              rungs[kHighRung].delivered();
  for (const RungRun& run : high_repeats) {
    r.ops.add(run.rung.cargo_sent, run.rung.delivered());
    r.correct = r.correct && run.rung.delivered();
  }

  char line[320];
  std::snprintf(line, sizeof(line),
                "%-6s %7s %8s %8s %8s %6s %9s %9s %8s %6s %s", "rung", "x",
                "cargo", "acked", "dup", "err", "p99_ms", "lag99_ms",
                "pkts/s", "cpu_s", "status");
  r.notes.push_back(line);
  const LadderTally tally = tally_ladder(rungs, kLimitMs);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Rung& g = rungs[i];
    const bool ok = rung_passed(g, kLimitMs);
    std::snprintf(
        line, sizeof(line),
        "%-6zu %7.0f %8zu %8zu %8zu %6zu %9.3f %9.3f %8.0f %6.2f %s%s%s", i,
        g.compression, g.cargo_sent, g.acks_unique, g.acks_duplicate,
        g.protocol_errors, g.p99_late_ms.value_or(g.max_late_ms),
        percentile(runs[i].lag_ms, 0.99).value, g.acked_pkts_per_s,
        runs[i].cpu_s,
        g.stalled ? "STALLED" : (ok ? "pass" : "fail"),
        g.generator_late ? " (generator late: invalid)" : "",
        i == kBaseRung ? " [base]" : (i == kHighRung ? " [high]" : ""));
    r.notes.push_back(line);
  }
  std::string repeats = "high-rung repeats (device-s per daemon CPU-s):";
  for (const RungRun& run : high_repeats) {
    std::snprintf(line, sizeof(line), " %.0f%s",
                  device_count() * run.clock_s / std::max(run.cpu_s, 1e-9),
                  run.rung.delivered() ? "" : " (not delivered)");
    repeats += line;
  }
  r.notes.push_back(repeats);
  const RungRun& base = runs[kBaseRung];
  const RungRun& high = runs[kHighRung];
  const RungRun& top = runs[cap.value_or(kBaseRung)];
  // NaN (printed "nan", reported 0) where fewer than ten samples lie
  // beyond the percentile.
  const auto lat = [](const RungRun& run, double p) {
    const Percentile q = percentile(run.lateness_ms, p);
    return q.reportable ? q.value : std::nan("");
  };
  std::snprintf(line, sizeof(line),
                "gw_capacity_pkts_s=%.1f at %.0fx; gw_lat_p50_ms.base=%.3f "
                "gw_lat_p99_ms.base=%.3f gw_lat_p50_ms.high=%.3f "
                "gw_lat_p99_ms.high=%.3f (limit %.0f ms)",
                top.rung.acked_pkts_per_s, top.rung.compression,
                lat(base, 0.5), lat(base, 0.99), lat(high, 0.5),
                lat(high, 0.99), kLimitMs);
  r.notes.push_back(line);

  if (!o.trace) {
    // Set-up: the high rung's script generation and daemon spawn until
    // listening, the same work in each of its kHighRepeats runs (a rung's
    // script grows with its compression). A spawn's wall time depends on
    // how soon the host schedules the child, so the fastest of each block
    // is kept.
    // Every time is scaled to reference-core seconds by the calibration
    // kernel's mean over the rungs that count (process.h).
    double cal_sum = 0.0;
    int cal_runs = 0;
    const auto calibrate = [&](const RungRun& run) {
      cal_sum += run.calibration_s;
      cal_runs += kCalibrationsPerRung;
    };
    for (std::size_t i = 0; i <= kHighRung; ++i) calibrate(runs[i]);
    for (const RungRun& run : high_repeats) calibrate(run);
    const double cal = cal_sum / cal_runs;
    std::vector<double> setup = {reference_s(high.setup_s, cal)};
    for (const RungRun& run : high_repeats) {
      setup.push_back(reference_s(run.setup_s, cal));
    }
    double latency_sum = 0.0;
    for (const double l : base.latency_clock_s) latency_sum += l;
    // Device clock-seconds served per daemon CPU second, over every rung
    // up to the fixed high rung and its repeats: the serving cost, which
    // moves continuously with per-frame work, unlike the ladder's
    // capacity, which jumps between rungs (see the table). One daemon's
    // CPU time depends on how its frames happened to batch into wakeups;
    // the sum over the thirteen daemons averages that out.
    double served = 0.0, cpu = 0.0;
    const auto add = [&](const RungRun& run) {
      served += static_cast<double>(device_count()) * run.clock_s;
      cpu += run.cpu_s;
    };
    for (std::size_t i = 0; i <= kHighRung; ++i) add(runs[i]);
    for (const RungRun& run : high_repeats) add(run);
    r.e2e("sim_s_per_s", "s/s",
          {served / reference_s(std::max(cpu, 1e-9), cal)});
    std::snprintf(line, sizeof(line),
                  "calibration: kernel %.3f ms mean over %d runs (reference "
                  "%.0f ms); unscaled sim_s_per_s %.6g",
                  1e3 * cal, cal_runs, 1e3 * kReferenceCalibration_s,
                  served / std::max(cpu, 1e-9));
    r.notes.push_back(line);
    r.e2e("setup_s", "s", block_minima(setup, kSetupBlock));
    r.e2e("peak_rss_mb", "MiB", {base.maxrss_mb});
    r.e2e("energy_J", "J", {base.energy_J});
    r.e2e("delay_s", "s",
          {base.latency_clock_s.empty()
               ? 0.0
               : latency_sum /
                     static_cast<double>(base.latency_clock_s.size())});
    return r;
  }

  // Per-layer metrics: the live ladder's generator and connect figures,
  // the daemon's rusage, and the in-process replay's layer split.
  std::vector<double> lag, connects;
  std::size_t frames_sent = 0;
  for (const RungRun& run : runs) {
    lag.insert(lag.end(), run.lag_ms.begin(), run.lag_ms.end());
    connects.insert(connects.end(), run.connect_ms.begin(),
                    run.connect_ms.end());
    frames_sent += run.frames_sent;
  }
  r.layer("loadgen.frames_sent", "count", static_cast<double>(frames_sent));
  r.layer("loadgen.lag_p99_ms", "ms", percentile(lag, 0.99).value);
  r.layer("gateway.connect.count", "count",
          static_cast<double>(connects.size()));
  r.layer("gateway.connect.p99_ms", "ms", percentile(connects, 0.99).value);
  r.layer("gateway.daemon.cpu_s", "s", high.cpu_s);
  r.layer("gateway.daemon.cpu_us_per_frame", "us",
          high.frames_sent ? 1e6 * high.cpu_s /
                                 static_cast<double>(high.frames_sent)
                           : 0.0);
  // The largest tick lag /metrics showed over the high rung's scrapes. A
  // rung whose scrapes all failed has no value: the run fails rather than
  // report one.
  if (high.tick_lag_scrapes == 0) {
    r.correct = false;
    r.notes.push_back("gateway.daemon: no /metrics scrape held "
                      "etrain_gateway_tick_lag_seconds");
  }
  std::snprintf(line, sizeof(line),
                "gateway.daemon: tick lag max %.3f ms over %zu scrapes of "
                "the high rung",
                high.tick_lag_max_ms, high.tick_lag_scrapes);
  r.notes.push_back(line);
  r.layer("gateway.daemon.tick_lag_max_ms", "ms", high.tick_lag_max_ms);
  r.layer("gateway.ladder.capacity_pkts_s", "1/s",
          cap ? top.rung.acked_pkts_per_s : 0.0);
  r.layer("gateway.ladder.rungs_passed", "count",
          static_cast<double>(tally.passed));
  r.layer("gateway.ladder.stalled_rungs", "count",
          static_cast<double>(tally.stalled));
  r.layer("gateway.ladder.lat_p50_ms.base", "ms", lat(base, 0.5));
  r.layer("gateway.ladder.lat_p99_ms.base", "ms", lat(base, 0.99));
  r.layer("gateway.ladder.lat_p50_ms.high", "ms", lat(high, 0.5));
  r.layer("gateway.ladder.lat_p99_ms.high", "ms", lat(high, 0.99));

  const Script script = make_script(
      o.seed, kLadder[kBaseRung] * kBaseDriveFactor * drive_wall);
  const double t0 = now_s();
  (void)replay_script(script);
  const double untraced_s = now_s() - t0;
  std::int32_t root = -1;
  ReplayCounts c;
  {
    g_spans = &*spans;
    ScopedSpan span("replay");
    root = span.id();
    c = replay_script(script);
  }
  g_spans = nullptr;
  const double traced_s =
      spans->spans()[static_cast<std::size_t>(root)].duration();
  const auto totals = layer_totals(spans->spans(), root);
  const auto busy = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.busy_s;
  };
  const auto calls = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? std::size_t{0} : it->second.calls;
  };
  r.ops.add(script.cargo_count, c.unacked == 0 && c.duplicates == 0);
  if (c.unacked != 0 || c.duplicates != 0) r.correct = false;
  r.layer("wire.decode.frames", "count", static_cast<double>(c.frames));
  r.layer("wire.decode.busy_s", "s", busy("wire.decode"));
  r.layer("wire.decode.ns_per_frame", "ns",
          c.frames ? 1e9 * busy("wire.decode") / static_cast<double>(c.frames)
                   : 0.0);
  r.layer("gateway.session_setup.calls", "count",
          static_cast<double>(calls("gateway.session_setup")));
  r.layer("gateway.session_setup.busy_s", "s", busy("gateway.session_setup"));
  r.layer("gateway.evaluate.calls_heartbeat", "count",
          static_cast<double>(c.hb));
  r.layer("gateway.evaluate.calls_cargo", "count",
          static_cast<double>(c.cargo));
  r.layer("gateway.evaluate.calls_tick", "count",
          static_cast<double>(c.ticks));
  r.layer("gateway.evaluate.busy_s", "s", busy("gateway.evaluate"));
  r.layer("gateway.evaluate.ns_per_call", "ns",
          c.evaluate_calls ? 1e9 * busy("gateway.evaluate") /
                                 static_cast<double>(c.evaluate_calls)
                           : 0.0);
  r.layer("gateway.evaluate.release_ratio", "ratio",
          c.evaluate_calls ? static_cast<double>(c.releasing_calls) /
                                 static_cast<double>(c.evaluate_calls)
                           : 0.0);
  r.layer("gateway.evaluate.queue_depth_mean", "packets",
          (c.hb + c.cargo) ? c.depth_sum / static_cast<double>(c.hb + c.cargo)
                           : 0.0);
  r.layer("wire.encode.acks", "count", static_cast<double>(c.acks));
  r.layer("wire.encode.busy_s", "s", busy("wire.encode"));
  r.layer("trace.overhead", "ratio", traced_s / untraced_s - 1.0);
  spans->write(o.out_dir + "/" + o.workload + "-seed" +
               std::to_string(o.seed) + ".spans.tsv");
  return r;
}

}  // namespace perfbench
