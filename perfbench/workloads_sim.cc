// The three simulator workloads: fleet-city (population throughput through
// FleetHarness), deep-queue (one heavy, faulty device whose queue grows
// deep, through run_slotted) and des-system (the full Android-substrate
// system on the discrete-event kernel).
//
// Each workload runs a validation pass whose outputs every timed
// repetition must reproduce, then repeats until the run's seconds are
// spent: each repetition sets up afresh (input generation and
// construction, timed as setup_s) and runs (timed as sim_s_per_s). Both
// are timed on CPU clocks, not the wall, because on a shared host a wall
// timing also counts the time other tenants held the core, and scaled to
// reference-core seconds (process.h). A traced run replays the same
// inputs once more with a span around each call into a layer's public
// function and reports the per-layer metrics.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "apps/cargo_app.h"
#include "apps/heartbeat_spec.h"
#include "baselines/registry.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "exp/fleet.h"
#include "exp/scenario_builder.h"
#include "exp/slotted_sim.h"
#include "net/fault_plan.h"
#include "net/synthetic_bandwidth.h"
#include "radio/energy_meter.h"
#include "spans.h"
#include "system/etrain_system.h"
#include "workloads.h"

namespace perfbench {

namespace ex = etrain::experiments;
using etrain::Duration;

namespace {

/// Validation passes; each must reproduce the first bit for bit.
constexpr int kValidatePasses = 2;
/// Serial and replayed fleet runs timed for the traced run's exp.fleet
/// self time and parallel efficiency; the fastest of each is kept.
constexpr int kFleetTimings = 5;

// fleet-city: FleetSpec::city over a fixed population.
constexpr std::size_t kFleetDevices = 2000;
constexpr std::size_t kFleetTracedDevices = 250;
constexpr Duration kFleetHorizon = 600.0;

// deep-queue: one heavy device whose queue grows deep, over 12 h so that
// seed-to-seed differences in energy and delay average out.
constexpr Duration kDeepHorizon = 43200.0;
constexpr const char* kDeepPolicy = "etrain:theta=50,k=0";

// des-system: fig10's controlled setup over a long horizon.
constexpr Duration kDesHorizon = 86400.0;

// The fault plan deep-queue and des-system share. The outage pattern and
// the bandwidth trace are the same for every seed: over a run they hold
// only a few dozen episodes, and letting the seed redraw them moved mean
// delay by over 10 % between seeds. The seed draws the cargo arrivals,
// the per-transfer loss decisions and the estimate noise.
constexpr std::uint64_t kOutageSeed = 20150629;
constexpr std::uint64_t kBandwidthSeed = 20141208;
constexpr double kLossProbability = 0.05;
constexpr double kOutageDuty = 0.1;
constexpr Duration kOutageMean = 120.0;

/// Fleet workers: one core is left to the host, so that the workers are
/// rarely preempted.
std::size_t worker_jobs() {
  return std::max(1u, std::thread::hardware_concurrency() - 1);
}

double elapsed_since(double start) { return now_s() - start; }

/// Repetitions per block; each block's rate is one sample of the
/// quartiles the table prints.
constexpr std::size_t kBlock = 8;
constexpr std::size_t kMinReps = 3 * kBlock;

/// What timed_reps measured: each repetition's timed seconds and, after
/// each, the calibration kernel's (process.h).
struct Reps {
  std::vector<double> times;
  std::vector<double> calibration;

  double mean_calibration_s() const {
    double total = 0.0;
    for (const double c : calibration) total += c;
    return total / static_cast<double>(calibration.size());
  }
};

/// Repeats `rep` (which returns the seconds of its timed part), each time
/// followed by one run of the calibration kernel, until `seconds` of wall
/// time have passed and at least kMinReps repetitions are done.
template <typename Rep>
Reps timed_reps(double seconds, Rep&& rep) {
  Reps reps;
  const double start = now_s();
  while (reps.times.size() < kMinReps || elapsed_since(start) < seconds) {
    reps.times.push_back(rep());
    reps.calibration.push_back(calibration_s());
  }
  return reps;
}

/// Seconds `fn` takes on `clock` (thread_cpu_s, process_cpu_s or now_s).
template <typename Fn>
double timed(double (*clock)(), Fn&& fn) {
  const double t0 = clock();
  fn();
  return clock() - t0;
}

/// Reports sim_s_per_s: the simulated seconds of every repetition over
/// their summed CPU seconds, in reference-core seconds (process.h). The
/// total over the whole run averages out the core's swings over seconds,
/// which a median or minimum of shorter timings would follow; the
/// calibration removes the slower drift that moves every timing alike.
/// Each block of kBlock repetitions gives one sample.
void report_rate(Result& r, double sim_s_per_rep, const Reps& reps) {
  const double cal = reps.mean_calibration_s();
  const auto rate = [&](std::size_t begin, std::size_t end) {
    double total = 0.0;
    for (std::size_t i = begin; i < end; ++i) total += reps.times[i];
    return sim_s_per_rep * static_cast<double>(end - begin) /
           reference_s(total, cal);
  };
  std::vector<double> blocks;
  for (std::size_t i = 0; i + kBlock <= reps.times.size(); i += kBlock) {
    blocks.push_back(rate(i, i + kBlock));
  }
  r.e2e("sim_s_per_s", "s/s", blocks, rate(0, reps.times.size()));
  char line[160];
  std::snprintf(line, sizeof(line),
                "calibration: kernel %.3f ms mean over %zu runs (reference "
                "%.0f ms); unscaled sim_s_per_s %.6g",
                1e3 * cal, reps.calibration.size(),
                1e3 * kReferenceCalibration_s,
                rate(0, reps.times.size()) * kReferenceCalibration_s / cal);
  r.notes.push_back(line);
}

/// Reports setup_s: the mean of every repetition's set-up time, in
/// reference-core seconds. Set-ups are spread over the whole run, like
/// the timed runs, so that their mean averages the host's swings the same
/// way (report_rate).
void report_setup(Result& r, const std::vector<double>& times,
                  const Reps& reps) {
  const double cal = reps.mean_calibration_s();
  std::vector<double> scaled;
  double total = 0.0;
  for (const double t : times) {
    scaled.push_back(reference_s(t, cal));
    total += scaled.back();
  }
  r.e2e("setup_s", "s", scaled, total / static_cast<double>(scaled.size()));
}

etrain::net::FaultPlan fault_plan(std::uint64_t seed, Duration horizon) {
  etrain::net::FaultPlan plan;
  plan.seed = derive_seed(seed, 0xfa17);
  plan.loss_probability = kLossProbability;
  plan.outages = etrain::net::generate_outages(
      {.horizon = horizon, .duty = kOutageDuty, .episode_mean = kOutageMean},
      kOutageSeed);
  return plan;
}

// --- per-layer wrappers ---

/// Counters of the wrapped core.select calls.
struct SelectStats {
  std::size_t calls = 0;
  std::size_t selected = 0;
  std::size_t open = 0;  ///< calls that selected anything
  std::vector<double> depth;
};

/// A forwarding SchedulingPolicy that spans each select_into call and
/// counts what it saw and chose.
class TimedPolicy final : public etrain::core::SchedulingPolicy {
 public:
  TimedPolicy(std::unique_ptr<etrain::core::SchedulingPolicy> inner,
              SelectStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  std::vector<etrain::core::Selection> select(
      const etrain::core::SlotContext& ctx,
      const etrain::core::WaitingQueues& queues) override {
    std::vector<etrain::core::Selection> out;
    select_into(ctx, queues, out);
    return out;
  }
  void select_into(const etrain::core::SlotContext& ctx,
                   const etrain::core::WaitingQueues& queues,
                   std::vector<etrain::core::Selection>& out) override {
    stats_.depth.push_back(static_cast<double>(queues.total_size()));
    {
      ScopedSpan span("core.select");
      inner_->select_into(ctx, queues, out);
    }
    ++stats_.calls;
    stats_.selected += out.size();
    if (!out.empty()) ++stats_.open;
  }
  std::string name() const override { return inner_->name(); }
  Duration preferred_slot_length() const override {
    return inner_->preferred_slot_length();
  }
  void reset() override { inner_->reset(); }
  void bind_interfaces(const std::vector<std::string>& names) override {
    inner_->bind_interfaces(names);
  }

 private:
  std::unique_ptr<etrain::core::SchedulingPolicy> inner_;
  SelectStats& stats_;
};

std::unique_ptr<etrain::core::SchedulingPolicy> make_traced_policy(
    const std::string& spec, SelectStats& stats) {
  std::unique_ptr<etrain::core::SchedulingPolicy> inner;
  {
    ScopedSpan span("core.policy_make");
    inner = etrain::baselines::make_policy(spec);
  }
  return std::make_unique<TimedPolicy>(std::move(inner), stats);
}

/// What one slotted replay of a scenario produced.
struct Replay {
  ex::RunMetrics metrics;
  std::size_t slots = 0;
};

/// Replays one scenario through the slotted layers with a span around
/// each public call: validate (a separate call on the same input, made
/// only when `validate`; run_slotted validates its input again inside),
/// run_slotted (select spans nest inside) and the energy meter's re-bill
/// of the run's log.
Replay replay_slotted(const ex::Scenario& scenario,
                      etrain::core::SchedulingPolicy& policy,
                      std::size_t& meter_calls, std::size_t& tx_billed,
                      bool validate) {
  if (validate) {
    ScopedSpan span("exp.validate");
    ex::validate_scenario(scenario);
  }
  Replay out;
  {
    ScopedSpan span("exp.slotted");
    out.metrics = ex::run_slotted(scenario, policy);
  }
  {
    ScopedSpan span("radio.meter");
    const auto report = etrain::radio::measure_energy(
        out.metrics.log, scenario.model, out.metrics.energy.horizon);
    if (report.network_energy() != out.metrics.energy.network_energy()) {
      throw std::runtime_error("radio.meter re-bill disagrees with the run");
    }
  }
  ++meter_calls;
  tx_billed += out.metrics.log.size();
  out.slots = static_cast<std::size_t>(std::ceil(
      scenario.horizon / policy.preferred_slot_length() - 1e-12));
  return out;
}

/// Channel counters from a transmission log.
void add_channel(const etrain::radio::TransmissionLog& log,
                 std::size_t& attempts, std::size_t& failed) {
  for (const auto& tx : log.entries()) {
    if (tx.kind != etrain::radio::TxKind::kData) continue;
    ++attempts;
    if (tx.failed) ++failed;
  }
}

/// What the traced replay of the slotted layers recorded: span totals
/// below the replay's root and the wrappers' counters.
struct SlottedLayers {
  std::map<std::string, LayerTotals> totals;
  SelectStats select;
  std::size_t slots = 0;
  std::size_t meter_calls = 0;
  std::size_t tx_billed = 0;
  std::size_t attempts = 0;
  std::size_t failed = 0;
};

/// Reports the slotted layers' metrics. Shares are over the layers' summed
/// self time plus `extra_self_s` (exp.fleet's, when it runs); returns that
/// denominator.
double report_slotted_layers(Result& r, const SlottedLayers& l,
                             double extra_self_s) {
  auto get = [&](const char* name) {
    const auto it = l.totals.find(name);
    return it == l.totals.end() ? LayerTotals{} : it->second;
  };
  const LayerTotals gen = get("exp.generate"), val = get("exp.validate"),
                    make = get("core.policy_make"), slot = get("exp.slotted"),
                    sel = get("core.select"), meter = get("radio.meter");
  const double total = gen.self_s + val.self_s + make.self_s + slot.self_s +
                       sel.self_s + meter.self_s + extra_self_s;
  const auto share = [&](double s) { return total > 0.0 ? s / total : 0.0; };
  r.layer("exp.generate.calls", "count", static_cast<double>(gen.calls));
  r.layer("exp.generate.busy_s", "s", gen.busy_s);
  r.layer("exp.generate.share", "ratio", share(gen.self_s));
  r.layer("exp.validate.busy_s", "s", val.busy_s);
  r.layer("exp.validate.share", "ratio", share(val.self_s));
  r.layer("core.policy_make.calls", "count", static_cast<double>(make.calls));
  r.layer("core.policy_make.busy_s", "s", make.busy_s);
  r.layer("exp.slotted.self_s", "s", slot.self_s);
  r.layer("exp.slotted.slots", "count", static_cast<double>(l.slots));
  r.layer("exp.slotted.ns_per_slot", "ns",
          l.slots ? 1e9 * slot.self_s / static_cast<double>(l.slots) : 0.0);
  r.layer("exp.slotted.share", "ratio", share(slot.self_s));
  r.layer("core.select.calls", "count", static_cast<double>(l.select.calls));
  r.layer("core.select.busy_s", "s", sel.busy_s);
  r.layer("core.select.ns_per_call", "ns",
          l.select.calls ? 1e9 * sel.busy_s /
                               static_cast<double>(l.select.calls)
                         : 0.0);
  double depth_sum = 0.0;
  for (const double d : l.select.depth) depth_sum += d;
  r.layer("core.select.queue_depth_mean", "packets",
          l.select.depth.empty()
              ? 0.0
              : depth_sum / static_cast<double>(l.select.depth.size()));
  r.layer("core.select.queue_depth_p99", "packets",
          percentile(l.select.depth, 0.99).value);
  r.layer("core.select.selected", "count",
          static_cast<double>(l.select.selected));
  r.layer("core.select.open_ratio", "ratio",
          l.select.calls ? static_cast<double>(l.select.open) /
                               static_cast<double>(l.select.calls)
                         : 0.0);
  r.layer("core.select.share", "ratio", share(sel.self_s));
  r.layer("radio.meter.calls", "count", static_cast<double>(l.meter_calls));
  r.layer("radio.meter.busy_s", "s", meter.busy_s);
  r.layer("radio.meter.tx_billed", "count", static_cast<double>(l.tx_billed));
  return total;
}

void report_channel(Result& r, std::size_t attempts, std::size_t failed) {
  r.layer("net.channel.attempts", "count", static_cast<double>(attempts));
  r.layer("net.channel.failed", "count", static_cast<double>(failed));
  r.layer("net.channel.success_ratio", "ratio",
          attempts ? static_cast<double>(attempts - failed) /
                         static_cast<double>(attempts)
                   : 0.0);
}

/// Writes the recorder's spans next to the run's other outputs.
void write_spans(const SpanRecorder& spans, const Options& o) {
  spans.write(o.out_dir + "/" + o.workload + "-seed" +
              std::to_string(o.seed) + ".spans.tsv");
}

/// Attaches a recorder for the lifetime of the guard.
class RecorderScope {
 public:
  explicit RecorderScope(SpanRecorder& r) { g_spans = &r; }
  ~RecorderScope() { g_spans = nullptr; }
  RecorderScope(const RecorderScope&) = delete;
  RecorderScope& operator=(const RecorderScope&) = delete;
};

// --- fleet-city ---

std::uint64_t fleet_digest(const ex::FleetResult& f) {
  Digest d;
  d.add(f.devices);
  d.add(f.total_slots);
  d.add(f.total_packets);
  d.add(f.device_meter_total_J);
  for (const auto& c : f.classes) {
    d.add(c.devices);
    d.add(c.packets);
    d.add(c.violations);
    d.add(c.transmissions);
    d.add(c.failures);
    d.add(c.network_J);
    d.add(c.heartbeat_J);
    d.add(c.data_J);
    d.add(c.delay_sum_s);
    d.add(c.delay_cost);
  }
  for (const auto& row : f.ledger.rows) {
    d.bytes(row.interface_name.data(), row.interface_name.size());
    d.add(row.tx_J);
    d.add(row.setup_J);
    d.add(row.tail_J);
    d.add(row.transmissions);
  }
  d.bytes(f.arrays.meter_J.data(), f.arrays.meter_J.size() * sizeof(double));
  return d.h;
}

double fleet_delay(const ex::FleetResult& f) {
  double sum = 0.0;
  std::size_t packets = 0;
  for (const auto& c : f.classes) {
    sum += c.delay_sum_s;
    packets += c.packets;
  }
  return packets ? sum / static_cast<double>(packets) : 0.0;
}

ex::FleetSpec fleet_spec(std::uint64_t seed, std::size_t devices) {
  ex::FleetSpec spec = ex::FleetSpec::city(devices, kFleetHorizon);
  spec.seed = seed;
  return spec;
}

}  // namespace

Result run_fleet_city(const Options& o) {
  Result r;
  const auto& registry = etrain::baselines::builtin_registry();
  const std::size_t jobs = worker_jobs();

  // Set-up: the population's spec and the harness. The devices' scenarios
  // are generated inside each run, so they count as simulation.
  std::optional<ex::FleetHarness> harness(fleet_spec(o.seed, kFleetDevices));

  // Validation: serial passes whose fold every parallel repetition must
  // reproduce.
  std::uint64_t reference = 0;
  double serial_s = 1e300;  // the fastest serial pass, wall
  ex::FleetResult ref_result;
  for (int i = 0; i < kValidatePasses; ++i) {
    serial_s = std::min(serial_s, timed(now_s, [&] {
                          ref_result = harness->run(registry, 1);
                        }));
    const std::uint64_t digest = fleet_digest(ref_result);
    if (i > 0 && digest != reference) r.correct = false;
    reference = digest;
  }
  const double device_s =
      static_cast<double>(kFleetDevices) * kFleetHorizon;

  if (!o.trace) {
    // Process CPU time covers every worker thread of the run.
    std::vector<double> setup;
    const Reps reps = timed_reps(o.seconds, [&] {
      setup.push_back(timed(thread_cpu_s, [&] {
        harness.emplace(fleet_spec(o.seed, kFleetDevices));
      }));
      std::optional<ex::FleetResult> f;
      const double t =
          timed(process_cpu_s, [&] { f.emplace(harness->run(registry, jobs)); });
      const bool ok = fleet_digest(*f) == reference;
      r.ops.add(kFleetDevices, ok);
      if (!ok) r.correct = false;
      return t;
    });
    report_rate(r, device_s, reps);
    report_setup(r, setup, reps);
    r.e2e("peak_rss_mb", "MiB", {peak_rss_mb()});
    r.e2e("energy_J", "J",
          {ref_result.device_meter_total_J /
           static_cast<double>(kFleetDevices)});
    r.e2e("delay_s", "s", {fleet_delay(ref_result)});
    r.notes.push_back("fleet: " + std::to_string(kFleetDevices) +
                      " devices x 600 s, jobs " + std::to_string(jobs) +
                      "; energy_J is the mean per device");
    return r;
  }

  // Traced run. Parallel efficiency of the full population: the fastest
  // jobs=N run against the fastest serial validation pass, both wall.
  {
    double parallel_s = 1e300;
    for (int i = 0; i < kFleetTimings; ++i) {
      std::optional<ex::FleetResult> f;
      parallel_s = std::min(parallel_s, timed(now_s, [&] {
                              f.emplace(harness->run(registry, jobs));
                            }));
      const bool ok = fleet_digest(*f) == reference;
      r.ops.add(kFleetDevices, ok);
      if (!ok) r.correct = false;
    }
    r.layer("exp.fleet.parallel_eff", "ratio",
            serial_s / (static_cast<double>(jobs) * parallel_s));
  }

  // A smaller population for the spans: its devices replayed one layer
  // call at a time, as the fleet's workers run them.
  const ex::FleetHarness small(fleet_spec(o.seed, kFleetTracedDevices));
  std::optional<ex::FleetResult> small_fleet;
  SlottedLayers layers;
  // Untraced, the replay makes the calls the fleet's workers make: no
  // separate validate call and no forwarding policy around select.
  const auto replay_all = [&](bool traced) {
    std::vector<std::unique_ptr<etrain::core::SchedulingPolicy>> policies(
        small.spec().classes.size());
    std::size_t mismatches = 0;
    for (std::size_t device = 0; device < kFleetTracedDevices; ++device) {
      const std::size_t cls = small.class_of(device);
      if (policies[cls] == nullptr) {
        const std::string& spec = small.spec().classes[cls].policy;
        policies[cls] = traced ? make_traced_policy(spec, layers.select)
                               : etrain::baselines::make_policy(spec);
      }
      std::optional<ex::Scenario> scenario;
      {
        ScopedSpan span("exp.generate");
        scenario.emplace(small.device_scenario(device));
      }
      const Replay rep =
          replay_slotted(*scenario, *policies[cls], layers.meter_calls,
                         layers.tx_billed, traced);
      add_channel(rep.metrics.log, layers.attempts, layers.failed);
      layers.slots += rep.slots;
      if (rep.metrics.network_energy() != small_fleet->arrays.meter_J[device]) {
        ++mismatches;
      }
    }
    return mismatches;
  };

  // exp.fleet's self time is the serial fleet run minus the same devices
  // replayed untraced. Each is timed kFleetTimings times,
  // alternating, and the fastest kept: their difference is small and
  // would drown in a single timing's noise.
  double fleet_s = 1e300, untraced_s = 1e300;
  for (int i = 0; i < kFleetTimings; ++i) {
    fleet_s = std::min(fleet_s, timed(now_s, [&] {
                         small_fleet.emplace(small.run(registry, 1));
                       }));
    layers = SlottedLayers{};
    untraced_s = std::min(untraced_s,
                          timed(now_s, [&] { (void)replay_all(false); }));
  }

  SpanRecorder spans;
  layers = SlottedLayers{};
  std::size_t mismatches = 0;
  double replay_s = 0.0;
  {
    RecorderScope scope(spans);
    std::int32_t root = -1;
    {
      ScopedSpan span("replay");
      root = span.id();
      mismatches = replay_all(true);
    }
    replay_s = spans.spans()[static_cast<std::size_t>(root)].duration();
    layers.totals = layer_totals(spans.spans(), root);
  }
  r.ops.add(kFleetTracedDevices, mismatches == 0);
  if (mismatches != 0) r.correct = false;

  // Not clamped: a negative self time means the two timings' noise
  // exceeds the fleet's own work, and shows as such.
  const double fleet_self = fleet_s - untraced_s;
  const double total = report_slotted_layers(r, layers, fleet_self);
  report_channel(r, layers.attempts, layers.failed);
  r.layer("exp.fleet.self_s", "s", fleet_self);
  r.layer("exp.fleet.share", "ratio", total > 0 ? fleet_self / total : 0.0);
  // The traced replay makes the separate validate call; the untraced one
  // does not.
  const auto validate = layers.totals.find("exp.validate");
  const double validate_s =
      validate == layers.totals.end() ? 0.0 : validate->second.busy_s;
  r.layer("trace.overhead", "ratio",
          (replay_s - validate_s) / untraced_s - 1.0);
  write_spans(spans, o);
  return r;
}

// --- deep-queue ---

namespace {

ex::Scenario deep_scenario(std::uint64_t seed) {
  return ex::ScenarioBuilder()
      .lambda(2.0)
      .shared_deadline(600.0)
      .horizon(kDeepHorizon)
      .model(etrain::radio::PowerModel::PaperSimulation())
      .workload_seed(derive_seed(seed, 1))
      .bandwidth_seed(kBandwidthSeed)
      .noise_seed(derive_seed(seed, 3))
      .faults(fault_plan(seed, kDeepHorizon))
      .build();
}

/// The outputs a repetition must reproduce bit for bit.
struct RunFacts {
  double energy_J = 0.0;
  double delay_s = 0.0;
  std::size_t packets = 0;
  std::size_t log_entries = 0;
  std::size_t failed = 0;

  static RunFacts of(const ex::RunMetrics& m) {
    return {m.network_energy(), m.normalized_delay, m.outcomes.size(),
            m.log.size(), m.log.failed_count()};
  }
  bool operator==(const RunFacts& o) const {
    return std::bit_cast<std::uint64_t>(energy_J) ==
               std::bit_cast<std::uint64_t>(o.energy_J) &&
           std::bit_cast<std::uint64_t>(delay_s) ==
               std::bit_cast<std::uint64_t>(o.delay_s) &&
           packets == o.packets && log_entries == o.log_entries &&
           failed == o.failed;
  }
};

}  // namespace

Result run_deep_queue(const Options& o) {
  Result r;
  // Set-up: generating the scenario and making the policy.
  std::optional<ex::Scenario> scenario;
  std::unique_ptr<etrain::core::SchedulingPolicy> policy;
  const auto set_up = [&] {
    scenario.emplace(deep_scenario(o.seed));
    policy = etrain::baselines::make_policy(kDeepPolicy);
  };
  set_up();

  RunFacts reference;
  for (int i = 0; i < kValidatePasses; ++i) {
    const RunFacts facts = RunFacts::of(ex::run_slotted(*scenario, *policy));
    if (i > 0 && !(facts == reference)) r.correct = false;
    reference = facts;
  }

  if (!o.trace) {
    std::vector<double> setup;
    const Reps reps = timed_reps(o.seconds, [&] {
      setup.push_back(timed(thread_cpu_s, set_up));
      std::optional<ex::RunMetrics> m;
      const double t = timed(thread_cpu_s, [&] {
        m.emplace(ex::run_slotted(*scenario, *policy));
      });
      const bool ok = RunFacts::of(*m) == reference;
      r.ops.add(reference.packets, ok);
      if (!ok) r.correct = false;
      return t;
    });
    report_rate(r, kDeepHorizon, reps);
    report_setup(r, setup, reps);
    r.e2e("peak_rss_mb", "MiB", {peak_rss_mb()});
    r.e2e("energy_J", "J", {reference.energy_J});
    r.e2e("delay_s", "s", {reference.delay_s});
    return r;
  }

  // Untraced reference time of the replayed run, then the traced replay.
  const double t0 = now_s();
  (void)ex::run_slotted(*scenario, *policy);
  const double untraced_s = elapsed_since(t0);

  SpanRecorder spans;
  SlottedLayers layers;
  double traced_slotted_s = 0.0;
  {
    RecorderScope scope(spans);
    std::int32_t root = -1;
    {
    ScopedSpan span("replay");
    root = span.id();
    std::optional<ex::Scenario> traced;
    {
      ScopedSpan gen("exp.generate");
      traced.emplace(deep_scenario(o.seed));
    }
    auto traced_policy = make_traced_policy(kDeepPolicy, layers.select);
    const Replay rep = replay_slotted(*traced, *traced_policy,
                                      layers.meter_calls, layers.tx_billed,
                                      true);
    layers.slots = rep.slots;
    add_channel(rep.metrics.log, layers.attempts, layers.failed);
    const bool ok = RunFacts::of(rep.metrics) == reference;
    r.ops.add(reference.packets, ok);
    if (!ok) r.correct = false;
    }
    for (const Span& s : spans.spans()) {
      if (std::strcmp(s.name, "exp.slotted") == 0) {
        traced_slotted_s = s.duration();
      }
    }
    layers.totals = layer_totals(spans.spans(), root);
  }
  report_slotted_layers(r, layers, 0.0);
  report_channel(r, layers.attempts, layers.failed);
  r.layer("trace.overhead", "ratio", traced_slotted_s / untraced_s - 1.0);
  write_spans(spans, o);
  return r;
}

// --- des-system ---

namespace {

/// fig10's controlled setup: three trains, Mail/Weibo/Cloud cargo, the
/// Wuhan trace and the paper's UMTS model, plus deep-queue's fault plan.
std::unique_ptr<etrain::system::EtrainSystem> des_system(std::uint64_t seed) {
  etrain::system::EtrainSystem::Config cfg;
  cfg.horizon = kDesHorizon;
  cfg.model = etrain::radio::PowerModel::PaperUmts3G();
  cfg.service.scheduler = {.theta = 0.2, .k = 20};
  cfg.faults = fault_plan(seed, kDesHorizon);
  auto sys = std::make_unique<etrain::system::EtrainSystem>(
      cfg, etrain::net::wuhan_trace());
  const auto trains = etrain::apps::default_train_specs();
  for (int i = 0; i < 3; ++i) sys->add_train_app(trains[i], 5.0 * i);
  etrain::Rng rng(derive_seed(seed, 4));
  const auto cargo = etrain::apps::default_cargo_specs();
  for (std::size_t i = 0; i < cargo.size(); ++i) {
    etrain::Rng stream = rng.fork();
    auto packets = etrain::apps::generate_arrivals(
        cargo[i], static_cast<int>(i), kDesHorizon, stream,
        static_cast<etrain::core::PacketId>(i) << 20);
    sys->add_cargo_app(static_cast<int>(i), *cargo[i].profile,
                       std::move(packets));
  }
  return sys;
}

}  // namespace

Result run_des_system(const Options& o) {
  Result r;
  // Set-up: building the system with its apps and their cargo arrivals.
  // run() is one-shot, so every pass and repetition builds a fresh one.
  RunFacts reference;
  for (int i = 0; i < kValidatePasses; ++i) {
    const RunFacts facts = RunFacts::of(des_system(o.seed)->run());
    if (i > 0 && !(facts == reference)) r.correct = false;
    reference = facts;
  }

  if (!o.trace) {
    std::vector<double> setup;
    const Reps reps = timed_reps(o.seconds, [&] {
      std::unique_ptr<etrain::system::EtrainSystem> sys;
      setup.push_back(timed(thread_cpu_s, [&] { sys = des_system(o.seed); }));
      std::optional<ex::RunMetrics> m;
      const double t = timed(thread_cpu_s, [&] { m.emplace(sys->run()); });
      const bool ok = RunFacts::of(*m) == reference;
      r.ops.add(reference.packets, ok);
      if (!ok) r.correct = false;
      return t;
    });
    report_rate(r, kDesHorizon, reps);
    report_setup(r, setup, reps);
    r.e2e("peak_rss_mb", "MiB", {peak_rss_mb()});
    r.e2e("energy_J", "J", {reference.energy_J});
    r.e2e("delay_s", "s", {reference.delay_s});
    return r;
  }

  double untraced_s = 0.0;
  {
    auto sys = des_system(o.seed);
    const double t0 = now_s();
    (void)sys->run();
    untraced_s = elapsed_since(t0);
  }

  SpanRecorder spans;
  std::size_t attempts = 0, failed = 0, events = 0;
  double kernel_s = 0.0, setup_busy = 0.0, meter_busy = 0.0;
  {
    RecorderScope scope(spans);
    std::unique_ptr<etrain::system::EtrainSystem> sys;
    {
      ScopedSpan span("system.setup");
      sys = des_system(o.seed);
    }
    std::optional<ex::RunMetrics> metrics;
    {
      ScopedSpan span("sim.kernel");
      metrics.emplace(sys->run());
    }
    events = sys->simulator().events_executed();
    {
      ScopedSpan span("radio.meter");
      (void)etrain::radio::measure_energy(metrics->log,
                                          etrain::radio::PowerModel::PaperUmts3G(),
                                          metrics->energy.horizon);
    }
    const bool ok = RunFacts::of(*metrics) == reference;
    r.ops.add(reference.packets, ok);
    if (!ok) r.correct = false;
    add_channel(metrics->log, attempts, failed);
    const auto totals = layer_totals(spans.spans());
    kernel_s = totals.at("sim.kernel").busy_s;
    setup_busy = totals.at("system.setup").busy_s;
    meter_busy = totals.at("radio.meter").busy_s;
    r.layer("radio.meter.calls", "count", 1.0);
    r.layer("radio.meter.tx_billed", "count",
            static_cast<double>(metrics->log.size()));
  }
  r.layer("radio.meter.busy_s", "s", meter_busy);
  r.layer("system.setup.busy_s", "s", setup_busy);
  r.layer("sim.kernel.busy_s", "s", kernel_s);
  r.layer("sim.kernel.events", "count", static_cast<double>(events));
  r.layer("sim.kernel.ns_per_event", "ns",
          events ? 1e9 * kernel_s / static_cast<double>(events) : 0.0);
  report_channel(r, attempts, failed);
  r.layer("trace.overhead", "ratio", kernel_s / untraced_s - 1.0);
  write_spans(spans, o);
  return r;
}

// --- shared helpers ---

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

}  // namespace perfbench
