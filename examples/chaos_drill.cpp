// Chaos drill: a mixed OLTP + reporting system run through a scripted
// fault timeline — disk degradation, a full I/O stall, core loss, memory
// pressure, a hot-key lock storm, spontaneous aborts and an arrival
// surge — with the resilience policies (retry-with-backoff, MPL shedding,
// low-priority throttling, timeout escalation) switched on.
//
// Prints a per-window account of what the injector did and what the
// manager did about it, then writes chaos_drill_trace.json (load it in
// Perfetto: fault windows appear as spans on the synthetic `q0 [faults]`
// track) and chaos_drill_metrics.prom.
//
// Build & run:  ./build/examples/chaos_drill

#include <array>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "characterization/static_classifier.h"
#include "core/workload_manager.h"
#include "execution/timeout_escalation.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "scheduling/queue_schedulers.h"
#include "telemetry/exporters.h"
#include "telemetry/profile.h"
#include "workloads/generators.h"

int main() {
  using namespace wlm;

  // 1. A 4-CPU database server and a workload manager with the full
  //    resilience policy set enabled.
  Simulation sim;
  EngineConfig engine_config;
  engine_config.num_cpus = 4;
  engine_config.io_ops_per_second = 2000.0;
  engine_config.memory_mb = 2048.0;
  DatabaseEngine engine(&sim, engine_config);
  Monitor monitor(&sim, &engine, /*interval=*/0.5);
  monitor.Start();

  WlmConfig config;
  config.resilience.enabled = true;
  config.resilience.max_retries = 4;
  config.resilience.retry_backoff_seconds = 0.25;
  config.resilience.degraded_mpl_factor = 0.5;
  config.resilience.degraded_throttle_duty = 0.3;
  WorkloadManager manager(&sim, &engine, &monitor, config);

  WorkloadDefinition orders;
  orders.name = "orders";
  orders.priority = BusinessPriority::kHigh;
  manager.DefineWorkload(orders);
  WorkloadDefinition reports;
  reports.name = "reports";
  reports.priority = BusinessPriority::kLow;
  manager.DefineWorkload(reports);

  auto classifier = std::make_unique<StaticClassifier>();
  ClassificationRule orders_rule;
  orders_rule.workload = "orders";
  orders_rule.application = "pos-system";
  classifier->AddRule(orders_rule);
  ClassificationRule reports_rule;
  reports_rule.workload = "reports";
  reports_rule.application = "reporting";
  classifier->AddRule(reports_rule);
  manager.set_classifier(std::move(classifier));
  manager.set_scheduler(std::make_unique<FifoScheduler>(/*mpl=*/12));

  // Reports that overstay escalate: throttled at 8s, suspended at 16s,
  // killed (and requeued) at 30s.
  TimeoutEscalationController::Config escalation;
  escalation.per_workload["reports"].throttle_after_seconds = 8.0;
  escalation.per_workload["reports"].throttle_duty = 0.5;
  escalation.per_workload["reports"].suspend_after_seconds = 16.0;
  escalation.per_workload["reports"].kill_after_seconds = 30.0;
  escalation.per_workload["reports"].resubmit_on_kill = true;
  manager.AddExecutionController(
      std::make_unique<TimeoutEscalationController>(escalation));

  // 2. The scripted fault timeline. Everything below is deterministic:
  //    re-running this binary reproduces the run bit-for-bit.
  FaultInjector injector(&sim, &engine, &manager);
  FaultPlan plan;
  plan.seed = 2024;
  plan.Add({FaultKind::kDiskDegrade, 8.0, 6.0, /*magnitude=*/0.3});
  plan.Add({FaultKind::kIoStall, 20.0, 2.0});
  plan.Add({FaultKind::kCpuLoss, 26.0, 5.0, /*magnitude=*/2.0});
  plan.Add({FaultKind::kMemoryPressure, 33.0, 6.0, /*magnitude=*/1024.0});
  FaultEvent storm;
  storm.kind = FaultKind::kLockStorm;
  storm.start = 41.0;
  storm.duration = 4.0;
  storm.hot_keys = 6;
  plan.Add(storm);
  FaultEvent aborts;
  aborts.kind = FaultKind::kQueryAborts;
  aborts.start = 47.0;
  aborts.duration = 5.0;
  aborts.magnitude = 1.0;
  aborts.period = 0.5;
  plan.Add(aborts);
  FaultEvent surge;
  surge.kind = FaultKind::kArrivalSurge;
  surge.start = 54.0;
  surge.duration = 5.0;
  surge.magnitude = 3.0;
  plan.Add(surge);

  std::cout << plan.ToString() << "\n";

  // 3. Open-loop traffic; the surge handler scales the OLTP arrival rate
  //    for the kArrivalSurge window.
  WorkloadGenerator gen(7);
  Rng oltp_arrivals(101);
  Rng bi_arrivals(202);
  OltpWorkloadConfig oltp_shape;
  BiWorkloadConfig bi_shape;
  const double oltp_rate = 20.0;
  OpenLoopDriver oltp_driver(
      &sim, &oltp_arrivals, oltp_rate,
      [&] { return gen.NextOltp(oltp_shape); },
      [&](QuerySpec spec) { (void)manager.Submit(std::move(spec)); });
  OpenLoopDriver bi_driver(
      &sim, &bi_arrivals, 0.8, [&] { return gen.NextBi(bi_shape); },
      [&](QuerySpec spec) { (void)manager.Submit(std::move(spec)); });
  injector.set_surge_handler([&](double factor, bool active) {
    oltp_driver.set_rate(active ? oltp_rate * factor : oltp_rate);
  });

  if (!injector.Arm(plan).ok()) {
    std::cerr << "failed to arm fault plan\n";
    return 1;
  }
  oltp_driver.Start(/*until=*/60.0);
  bi_driver.Start(/*until=*/60.0);
  sim.RunUntil(90.0);  // 60s of traffic + 30s drain

  // 4. What happened, per workload and per fault window.
  std::printf("%-10s %10s %10s %8s %8s %10s\n", "workload", "submitted",
              "completed", "killed", "retried", "suspended");
  for (const auto& [name, def] : manager.workloads()) {
    const WorkloadCounters& c = manager.counters(name);
    std::printf("%-10s %10lld %10lld %8lld %8lld %10lld\n", name.c_str(),
                static_cast<long long>(c.submitted),
                static_cast<long long>(c.completed),
                static_cast<long long>(c.killed),
                static_cast<long long>(c.resubmitted),
                static_cast<long long>(c.suspended));
  }

  // Per-workload latency decomposition: where each service class's
  // seconds went, from the telemetry profile store.
  std::printf("\n%-10s %-15s %9s %9s %9s\n", "workload", "phase", "p50(s)",
              "p90(s)", "max(s)");
  const std::vector<const QueryProfile*> profiles =
      manager.telemetry().profiles().Profiles();
  for (const auto& [name, def] : manager.workloads()) {
    std::array<Percentiles, kPhaseCount> dists;
    for (const QueryProfile* p : profiles) {
      if (!p->terminal() || p->workload != name) continue;
      for (size_t i = 0; i < kPhaseCount; ++i) {
        dists[i].Add(p->phase_seconds[i]);
      }
    }
    for (size_t i = 0; i < kPhaseCount; ++i) {
      const Percentiles& dist = dists[i];
      if (dist.max() <= 0.0) continue;  // phase never occurred here
      std::printf("%-10s %-15s %9.3f %9.3f %9.3f\n", name.c_str(),
                  PhaseToString(static_cast<Phase>(i)), dist.Percentile(50),
                  dist.Percentile(90), dist.max());
    }
  }

  std::cout << "\nfault windows (from the control-plane event log):\n";
  for (const WlmEvent& event : manager.event_log().events()) {
    if (event.type != WlmEventType::kFaultInjected &&
        event.type != WlmEventType::kFaultRecovered) {
      continue;
    }
    std::printf("  t=%6.2fs  %-15s %s\n", event.time,
                WlmEventTypeToString(event.type), event.detail.c_str());
  }
  std::printf("\ninjector: %d windows, %d spontaneous aborts, %d storm txns\n",
              injector.stats().windows_opened, injector.stats().aborts_fired,
              injector.stats().storm_txns);

  // 5. Exports: fault windows ride along as spans of the `q0 [faults]`
  //    track in the Chrome trace; wlm_faults_* metrics in the Prometheus
  //    exposition.
  {
    std::ofstream out("chaos_drill_trace.json");
    WriteChromeTrace(manager.telemetry().tracer(), out, &monitor);
  }
  {
    std::ofstream out("chaos_drill_metrics.prom");
    WritePrometheus(manager.telemetry().metrics(), out);
  }
  // Flight-recorder post-mortems: each fault window (and any breaker trip
  // or SLO violation) snapshotted the recent profiles + event-log tail.
  const FlightRecorder& recorder = manager.telemetry().flight_recorder();
  {
    std::ofstream out("chaos_drill_postmortem.jsonl");
    recorder.WriteJsonl(out);
  }
  {
    std::ofstream out("chaos_drill_postmortem.txt");
    recorder.WriteAscii(out);
  }
  std::printf("\nflight recorder: %zu post-mortems (%lld triggers, %lld "
              "suppressed)\n",
              recorder.postmortems().size(),
              static_cast<long long>(recorder.triggers_seen()),
              static_cast<long long>(recorder.triggers_suppressed()));
  std::cout << "wrote chaos_drill_trace.json, chaos_drill_metrics.prom,\n"
               "      chaos_drill_postmortem.jsonl and "
               "chaos_drill_postmortem.txt\n";
  return 0;
}
