// Profiling-overhead guardrail: runs the same deterministic mixed
// OLTP + BI hour three times — telemetry disabled entirely, telemetry
// on with profiling off, and the full latency-decomposition +
// flight-recorder stack on — and compares host wall-clock time. The
// telemetry facade is passive by contract (enabling it must not change
// a single control decision), so the bench also asserts the simulated
// outcomes are identical across arms before it trusts the timings.
// Reported: min-of-N host seconds per arm and the profiling overhead
// percentage (profiling on vs telemetry on / profiling off), which CI
// asserts stays under 5%. Writes JSON (first CLI arg, default
// profile_overhead.json).

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "scheduling/queue_schedulers.h"

namespace {

using namespace wlm;

constexpr double kTrafficSeconds = 120.0;
constexpr double kDrainSeconds = 30.0;
constexpr double kOltpRate = 90.0;
constexpr double kBiRate = 0.8;
constexpr uint64_t kSeed = 31;
constexpr int kReps = 9;
/// Leading rounds still warming the allocator / page cache / branch
/// predictors measure 2-4x the steady-state overhead; they are run but
/// excluded from the statistic.
constexpr int kWarmupRounds = 3;

enum class Mode { kTelemetryOff, kProfilingOff, kProfilingOn };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kTelemetryOff: return "telemetry_off";
    case Mode::kProfilingOff: return "profiling_off";
    case Mode::kProfilingOn: return "profiling_on";
  }
  return "?";
}

struct ArmResult {
  Mode mode = Mode::kTelemetryOff;
  double min_seconds = 0.0;
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  size_t profiles = 0;
};

/// One deterministic run; returns host seconds spent inside the
/// simulation loop (setup and teardown excluded).
double RunOnce(Mode mode, ArmResult* out) {
  Simulation sim;
  DatabaseEngine engine(&sim, wlm_bench::DefaultEngine());
  Monitor monitor(&sim, &engine, /*interval=*/0.5);
  monitor.Start();

  WlmConfig config;
  config.telemetry.enabled = mode != Mode::kTelemetryOff;
  config.telemetry.profiling = mode == Mode::kProfilingOn;
  WorkloadManager manager(&sim, &engine, &monitor, config);
  wlm_bench::DefineStandardWorkloads(&manager);
  manager.set_scheduler(std::make_unique<PriorityScheduler>(/*mpl=*/10));

  WorkloadGenerator gen(kSeed);
  Rng oltp_arrivals(kSeed * 7 + 3);
  Rng bi_arrivals(kSeed * 11 + 5);
  OltpWorkloadConfig oltp_shape;
  BiWorkloadConfig bi_shape;
  OpenLoopDriver oltp_driver(
      &sim, &oltp_arrivals, kOltpRate, [&] { return gen.NextOltp(oltp_shape); },
      [&](QuerySpec spec) { (void)manager.Submit(std::move(spec)); });
  OpenLoopDriver bi_driver(
      &sim, &bi_arrivals, kBiRate, [&] { return gen.NextBi(bi_shape); },
      [&](QuerySpec spec) { (void)manager.Submit(std::move(spec)); });
  oltp_driver.Start(kTrafficSeconds);
  bi_driver.Start(kTrafficSeconds);

  auto begin = std::chrono::steady_clock::now();
  sim.RunUntil(kTrafficSeconds + kDrainSeconds);
  auto end = std::chrono::steady_clock::now();

  out->submitted = out->completed = out->shed = 0;
  for (const auto& [name, def] : manager.workloads()) {
    const WorkloadCounters& counters = manager.counters(name);
    out->submitted += counters.submitted;
    out->completed += counters.completed;
    out->shed += counters.shed;
  }
  out->profiles = manager.telemetry().profiles().size();
  return std::chrono::duration<double>(end - begin).count();
}

/// Interleaved rounds with a bracketed pairing: each round times
/// profiling_off, profiling_on, then profiling_off again, and scores the
/// round as 2*on / (off_before + off_after). A shared-host slowdown that
/// drifts linearly across the round inflates numerator and denominator
/// alike, so the ratio survives noise that min-of-N over unpaired
/// timings cannot cancel. The headline overhead is the median ratio.
std::vector<ArmResult> RunAllArms(std::vector<double>* round_ratios) {
  std::vector<ArmResult> arms;
  for (Mode mode :
       {Mode::kTelemetryOff, Mode::kProfilingOff, Mode::kProfilingOn}) {
    ArmResult arm;
    arm.mode = mode;
    arm.min_seconds = 1e300;
    (void)RunOnce(mode, &arm);  // warm caches / allocator before timing
    arms.push_back(arm);
  }
  auto time_arm = [](ArmResult* arm) {
    double seconds = RunOnce(arm->mode, arm);
    if (seconds < arm->min_seconds) arm->min_seconds = seconds;
    return seconds;
  };
  for (int rep = 0; rep < kWarmupRounds + kReps; ++rep) {
    (void)time_arm(&arms[0]);
    double off_before = time_arm(&arms[1]);
    double on = time_arm(&arms[2]);
    double off_after = time_arm(&arms[1]);
    if (rep >= kWarmupRounds && off_before + off_after > 0.0) {
      round_ratios->push_back(2.0 * on / (off_before + off_after));
    }
  }
  return arms;
}

// ---------------------------------------------------------------------------
// Cluster observability arms: the same passivity contract for metric
// federation + query journeys. A 4-shard crash run with the whole
// observability stack off is timed against the identical run with
// journeys, the federation sampling loop and the time-series store on;
// the simulated routing outcomes must not move.
// ---------------------------------------------------------------------------

constexpr double kClusterTrafficSeconds = 40.0;
constexpr double kClusterOltpRate = 60.0;
constexpr int kClusterReps = 5;

struct ClusterArmResult {
  bool observability = false;
  double min_seconds = 1e300;
  int64_t routed = 0;
  int64_t rejected = 0;
  int64_t redispatched = 0;
  int64_t completed = 0;
  size_t journeys = 0;
};

double RunClusterOnce(bool observability, ClusterArmResult* out) {
  Simulation sim;
  ClusterOptions options;
  options.num_shards = 4;
  options.engine = wlm_bench::DefaultEngine();
  options.placement = PlacementPolicyKind::kLeastOutstanding;
  options.redispatch = true;
  options.health.enabled = true;
  options.wlm.overload.enabled = true;
  options.observability.journeys = observability;
  options.observability.federation = observability;
  ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& manager) {
    wlm_bench::DefineStandardWorkloads(&manager);
    manager.set_scheduler(std::make_unique<PriorityScheduler>(/*mpl=*/10));
  });

  // A mid-run crash so journeys carry second lives and hedges, not just
  // straight-line placements.
  FaultPlan shard_faults;
  FaultEvent crash;
  crash.kind = FaultKind::kShardCrash;
  crash.shard = 2;
  crash.start = 15.0;
  crash.duration = 10.0;
  shard_faults.Add(crash);
  if (!cluster.ArmFaultPlan(shard_faults).ok()) return 0.0;

  WorkloadGenerator gen(kSeed);
  Rng oltp_arrivals(kSeed * 13 + 1);
  Rng bi_arrivals(kSeed * 17 + 9);
  OltpWorkloadConfig oltp_shape;
  BiWorkloadConfig bi_shape;
  OpenLoopDriver oltp_driver(
      &sim, &oltp_arrivals, kClusterOltpRate,
      [&] {
        QuerySpec spec = gen.NextOltp(oltp_shape);
        spec.deadline_seconds = 5.0;  // arms hedged dispatch
        return spec;
      },
      [&](QuerySpec spec) { (void)cluster.Submit(std::move(spec)); });
  OpenLoopDriver bi_driver(
      &sim, &bi_arrivals, kBiRate, [&] { return gen.NextBi(bi_shape); },
      [&](QuerySpec spec) { (void)cluster.Submit(std::move(spec)); });
  oltp_driver.Start(kClusterTrafficSeconds);
  bi_driver.Start(kClusterTrafficSeconds);

  auto begin = std::chrono::steady_clock::now();
  sim.RunUntil(kClusterTrafficSeconds + kDrainSeconds);
  auto end = std::chrono::steady_clock::now();

  out->observability = observability;
  out->routed = cluster.routed_total();
  out->rejected = cluster.rejected_total();
  out->redispatched = cluster.redispatched_total();
  out->completed = 0;
  for (int s = 0; s < cluster.num_shards(); ++s) {
    out->completed +=
        cluster.shard(s).wlm().event_log().CountOf(WlmEventType::kCompleted);
  }
  out->journeys = cluster.journeys().journeys().size();
  return std::chrono::duration<double>(end - begin).count();
}

/// Same bracketed pairing as the single-node arms: off / on / off per
/// round, ratio 2*on / (off_before + off_after).
std::vector<ClusterArmResult> RunClusterArms(
    std::vector<double>* round_ratios) {
  std::vector<ClusterArmResult> arms(2);
  (void)RunClusterOnce(false, &arms[0]);  // warmup
  (void)RunClusterOnce(true, &arms[1]);
  auto time_arm = [](ClusterArmResult* arm, bool observability) {
    double seconds = RunClusterOnce(observability, arm);
    if (seconds < arm->min_seconds) arm->min_seconds = seconds;
    return seconds;
  };
  for (int rep = 0; rep < kClusterReps; ++rep) {
    double off_before = time_arm(&arms[0], false);
    double on = time_arm(&arms[1], true);
    double off_after = time_arm(&arms[0], false);
    if (off_before + off_after > 0.0) {
      round_ratios->push_back(2.0 * on / (off_before + off_after));
    }
  }
  return arms;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

void WriteJson(const std::vector<ArmResult>& arms, double overhead_pct,
               const std::vector<double>& round_ratios,
               const std::vector<ClusterArmResult>& cluster_arms,
               double cluster_overhead_pct,
               const std::vector<double>& cluster_ratios,
               const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"profile_overhead\",\n"
      << "  \"traffic_seconds\": " << kTrafficSeconds << ",\n"
      << "  \"reps\": " << kReps << ",\n"
      << "  \"overhead_pct\": " << overhead_pct << ",\n"
      << "  \"cluster_overhead_pct\": " << cluster_overhead_pct << ",\n"
      << "  \"round_ratios\": [";
  for (size_t i = 0; i < round_ratios.size(); ++i) {
    if (i > 0) out << ", ";
    out << round_ratios[i];
  }
  out << "],\n  \"cluster_round_ratios\": [";
  for (size_t i = 0; i < cluster_ratios.size(); ++i) {
    if (i > 0) out << ", ";
    out << cluster_ratios[i];
  }
  out << "],\n"
      << "  \"runs\": [\n";
  for (size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& a = arms[i];
    out << "    {\"mode\": \"" << ModeName(a.mode) << "\""
        << ", \"min_seconds\": " << a.min_seconds
        << ", \"submitted\": " << a.submitted
        << ", \"completed\": " << a.completed << ", \"shed\": " << a.shed
        << ", \"profiles\": " << a.profiles << "}"
        << (i + 1 < arms.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"cluster_runs\": [\n";
  for (size_t i = 0; i < cluster_arms.size(); ++i) {
    const ClusterArmResult& a = cluster_arms[i];
    out << "    {\"mode\": \""
        << (a.observability ? "observability_on" : "observability_off") << "\""
        << ", \"min_seconds\": " << a.min_seconds
        << ", \"routed\": " << a.routed << ", \"rejected\": " << a.rejected
        << ", \"redispatched\": " << a.redispatched
        << ", \"completed\": " << a.completed
        << ", \"journeys\": " << a.journeys << "}"
        << (i + 1 < cluster_arms.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "profile_overhead.json";

  std::cout << "Profiling overhead: identical mixed runs, telemetry off / "
               "profiling off / full decomposition + flight recorder.\n\n";

  std::vector<double> round_ratios;
  std::vector<ArmResult> arms = RunAllArms(&round_ratios);

  // Passivity gate: if turning profiling on changed any simulated
  // outcome the timing comparison is meaningless (and the facade has a
  // bug worse than any overhead).
  for (const ArmResult& a : arms) {
    if (a.submitted != arms[0].submitted || a.completed != arms[0].completed ||
        a.shed != arms[0].shed) {
      std::cerr << "FAIL: telemetry mode changed simulated outcomes ("
                << ModeName(a.mode) << ": submitted=" << a.submitted
                << " completed=" << a.completed << " shed=" << a.shed << ")\n";
      return 1;
    }
  }

  const double overhead_pct = (Median(round_ratios) - 1.0) * 100.0;

  // Cluster arms: federation + journeys + time-series sampling on vs the
  // same 4-shard crash run with the observability stack off.
  std::vector<double> cluster_ratios;
  std::vector<ClusterArmResult> cluster_arms = RunClusterArms(&cluster_ratios);
  const ClusterArmResult& obs_off = cluster_arms[0];
  const ClusterArmResult& obs_on = cluster_arms[1];
  if (obs_on.routed != obs_off.routed || obs_on.rejected != obs_off.rejected ||
      obs_on.redispatched != obs_off.redispatched ||
      obs_on.completed != obs_off.completed) {
    std::cerr << "FAIL: cluster observability changed routing outcomes "
              << "(off: routed=" << obs_off.routed
              << " rejected=" << obs_off.rejected
              << " redispatched=" << obs_off.redispatched
              << " completed=" << obs_off.completed
              << "; on: routed=" << obs_on.routed
              << " rejected=" << obs_on.rejected
              << " redispatched=" << obs_on.redispatched
              << " completed=" << obs_on.completed << ")\n";
    return 1;
  }
  const double cluster_overhead_pct = (Median(cluster_ratios) - 1.0) * 100.0;

  TablePrinter table(
      {"mode", "min host s", "submitted", "completed", "profiles"});
  for (const ArmResult& a : arms) {
    table.AddRow({ModeName(a.mode), TablePrinter::Num(a.min_seconds, 4),
                  TablePrinter::Int(a.submitted), TablePrinter::Int(a.completed),
                  TablePrinter::Int(static_cast<int64_t>(a.profiles))});
  }
  table.Print(std::cout);

  TablePrinter cluster_table(
      {"cluster mode", "min host s", "routed", "completed", "journeys"});
  for (const ClusterArmResult& a : cluster_arms) {
    cluster_table.AddRow(
        {a.observability ? "observability_on" : "observability_off",
         TablePrinter::Num(a.min_seconds, 4), TablePrinter::Int(a.routed),
         TablePrinter::Int(a.completed),
         TablePrinter::Int(static_cast<int64_t>(a.journeys))});
  }
  std::cout << "\n";
  cluster_table.Print(std::cout);

  WriteJson(arms, overhead_pct, round_ratios, cluster_arms,
            cluster_overhead_pct, cluster_ratios, json_path);

  std::cout << "\nprofiling overhead (profiling_on vs profiling_off, "
               "median of per-round ratios): "
            << TablePrinter::Num(overhead_pct, 2)
            << "% of host wall-clock; outcomes byte-identical across arms.\n"
            << "federation + journey overhead (observability_on vs off): "
            << TablePrinter::Num(cluster_overhead_pct, 2)
            << "% of host wall-clock; routing outcomes identical.\n"
            << "JSON written to " << json_path << "\n";
  return 0;
}
