#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "execution/timeout_escalation.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "faults/link_model.h"
#include "scheduling/queue_schedulers.h"
#include "telemetry/event_log.h"
#include "tests/wlm_test_util.h"

namespace wlm {
namespace {

WlmConfig ResilientConfig() {
  WlmConfig config;
  config.resilience.enabled = true;
  return config;
}

// --- FaultPlan -------------------------------------------------------------

TEST(FaultPlanTest, AddHorizonToString) {
  FaultPlan plan;
  plan.Add({FaultKind::kIoStall, 1.0, 2.0})
      .Add({FaultKind::kCpuLoss, 5.0, 1.5, 1.0});
  EXPECT_EQ(plan.events.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.Horizon(), 6.5);
  std::string text = plan.ToString();
  EXPECT_NE(text.find("io_stall"), std::string::npos);
  EXPECT_NE(text.find("cpu_loss"), std::string::npos);
}

TEST(FaultPlanTest, EmptyPlanHorizonIsZero) {
  EXPECT_DOUBLE_EQ(FaultPlan().Horizon(), 0.0);
}

TEST(FaultPlanTest, RandomIsDeterministicPerSeed) {
  FaultPlan a = FaultPlan::Random(7, 60.0, 12);
  FaultPlan b = FaultPlan::Random(7, 60.0, 12);
  ASSERT_EQ(a.events.size(), 12u);
  EXPECT_EQ(a.ToString(), b.ToString());
  FaultPlan c = FaultPlan::Random(8, 60.0, 12);
  EXPECT_NE(a.ToString(), c.ToString());
}

TEST(FaultPlanTest, RandomEventsFitHorizon) {
  FaultPlan plan = FaultPlan::Random(42, 30.0, 20);
  for (const FaultEvent& event : plan.events) {
    EXPECT_GE(event.start, 0.0);
    EXPECT_GT(event.duration, 0.0);
    EXPECT_LE(event.end(), 30.0 + 1e-9);
  }
}

// --- engine-surface faults -------------------------------------------------

TEST(FaultInjectorTest, DiskDegradeSetsAndRestoresIoFactor) {
  TestRig rig;
  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  FaultPlan plan;
  plan.Add({FaultKind::kDiskDegrade, 1.0, 1.0, 0.25});
  ASSERT_TRUE(injector.Arm(plan).ok());

  rig.sim.RunUntil(1.5);
  EXPECT_DOUBLE_EQ(rig.engine.io_rate_factor(), 0.25);
  EXPECT_EQ(injector.active_windows(), 1);

  rig.sim.RunUntil(3.0);
  EXPECT_DOUBLE_EQ(rig.engine.io_rate_factor(), 1.0);
  EXPECT_EQ(injector.active_windows(), 0);
  EXPECT_EQ(injector.stats().windows_opened, 1);
  EXPECT_EQ(injector.stats().windows_closed, 1);

  // The window is visible in the control-plane event log.
  EXPECT_EQ(rig.wlm.event_log().CountOf(WlmEventType::kFaultInjected), 1);
  EXPECT_EQ(rig.wlm.event_log().CountOf(WlmEventType::kFaultRecovered), 1);
}

TEST(FaultInjectorTest, OverlappingIoWindowsComposeToMinAndRecoverStepwise) {
  TestRig rig;
  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  FaultPlan plan;
  plan.Add({FaultKind::kDiskDegrade, 1.0, 3.0, 0.5})
      .Add({FaultKind::kIoStall, 2.0, 1.0});
  ASSERT_TRUE(injector.Arm(plan).ok());

  rig.sim.RunUntil(1.5);
  EXPECT_DOUBLE_EQ(rig.engine.io_rate_factor(), 0.5);
  rig.sim.RunUntil(2.5);
  EXPECT_DOUBLE_EQ(rig.engine.io_rate_factor(), 0.0);  // stall dominates
  rig.sim.RunUntil(3.5);
  EXPECT_DOUBLE_EQ(rig.engine.io_rate_factor(), 0.5);  // back to degrade
  rig.sim.RunUntil(4.5);
  EXPECT_DOUBLE_EQ(rig.engine.io_rate_factor(), 1.0);  // healthy
}

TEST(FaultInjectorTest, IoStallDelaysIoBoundQueryPastRecovery) {
  TestRig rig;
  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  FaultPlan plan;
  plan.Add({FaultKind::kIoStall, 0.1, 2.0});
  ASSERT_TRUE(injector.Arm(plan).ok());

  // 500 I/Os at 1000 iops is 0.5s healthy — but the disk stalls first.
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, /*cpu=*/0.01, /*io=*/500.0)).ok());
  rig.sim.RunUntil(10.0);
  const Request* request = rig.Find(1);
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->state, RequestState::kCompleted);
  EXPECT_GT(request->finish_time, 2.1);  // could not finish inside the stall
}

TEST(FaultInjectorTest, MemoryPressureSeizesBudgetAndReleasesIt) {
  TestRig rig;
  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  FaultPlan plan;
  plan.Add({FaultKind::kMemoryPressure, 1.0, 1.0, 768.0});
  ASSERT_TRUE(injector.Arm(plan).ok());

  rig.sim.RunUntil(1.5);
  EXPECT_DOUBLE_EQ(rig.engine.memory().pressure_mb(), 768.0);
  rig.sim.RunUntil(3.0);
  EXPECT_DOUBLE_EQ(rig.engine.memory().pressure_mb(), 0.0);
}

TEST(FaultInjectorTest, CpuLossTakesCoresOfflineForTheWindow) {
  TestRig rig;
  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  FaultPlan plan;
  plan.Add({FaultKind::kCpuLoss, 1.0, 1.0, 1.0});
  ASSERT_TRUE(injector.Arm(plan).ok());

  rig.sim.RunUntil(1.5);
  EXPECT_EQ(rig.engine.cpus_offline(), 1);
  rig.sim.RunUntil(3.0);
  EXPECT_EQ(rig.engine.cpus_offline(), 0);
}

TEST(FaultInjectorTest, LockStormBlocksConflictingWriterUntilRecovery) {
  TestRig rig;
  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  FaultPlan plan;
  FaultEvent storm;
  storm.kind = FaultKind::kLockStorm;
  storm.start = 0.1;
  storm.duration = 2.0;
  storm.hot_keys = 4;
  plan.Add(storm);
  ASSERT_TRUE(injector.Arm(plan).ok());

  // A short writer needing hot key 0 arrives mid-storm; it must wait out
  // the storm transaction's exclusive hold.
  QuerySpec writer = OltpSpec(1, /*cpu=*/0.01);
  writer.locks.push_back({0, true});
  rig.sim.RunUntil(0.5);
  ASSERT_TRUE(rig.wlm.Submit(writer).ok());
  rig.sim.RunUntil(10.0);

  EXPECT_EQ(injector.stats().storm_txns, 1);
  const Request* request = rig.Find(1);
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->state, RequestState::kCompleted);
  EXPECT_GT(request->finish_time, 2.1);  // released only at storm end
}

TEST(FaultInjectorTest, QueryAbortStrikesKillRunningVictims) {
  TestRig rig;  // resilience off: aborts are terminal kills
  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  FaultPlan plan;
  plan.seed = 11;
  FaultEvent aborts;
  aborts.kind = FaultKind::kQueryAborts;
  aborts.start = 0.5;
  aborts.duration = 1.0;
  aborts.magnitude = 1.0;
  aborts.period = 0.4;
  plan.Add(aborts);
  ASSERT_TRUE(injector.Arm(plan).ok());

  for (QueryId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, /*cpu=*/20.0)).ok());
  }
  rig.sim.RunUntil(5.0);
  EXPECT_GT(injector.stats().aborts_fired, 0);
  EXPECT_EQ(rig.wlm.counters("default").killed, injector.stats().aborts_fired);
}

// Determinism contract: victim selection must depend only on (plan, seed),
// never on container hash order. Two identical abort-strike runs must kill
// the same queries at the same times in the same order.
TEST(FaultInjectorTest, IdenticalRunsProduceIdenticalVictimSequences) {
  auto victim_sequence = []() {
    TestRig rig;
    FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
    FaultPlan plan;
    plan.seed = 11;
    FaultEvent aborts;
    aborts.kind = FaultKind::kQueryAborts;
    aborts.start = 0.5;
    aborts.duration = 2.0;
    aborts.magnitude = 1.0;
    aborts.period = 0.4;
    plan.Add(aborts);
    EXPECT_TRUE(injector.Arm(plan).ok());
    for (QueryId id = 1; id <= 6; ++id) {
      EXPECT_TRUE(rig.wlm.Submit(BiSpec(id, /*cpu=*/20.0)).ok());
    }
    rig.sim.RunUntil(5.0);
    std::vector<std::pair<double, QueryId>> victims;
    for (const WlmEvent& event : rig.wlm.event_log().events()) {
      if (event.type == WlmEventType::kKilled) {
        victims.emplace_back(event.time, event.query);
      }
    }
    return victims;
  };

  std::vector<std::pair<double, QueryId>> first = victim_sequence();
  std::vector<std::pair<double, QueryId>> second = victim_sequence();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(FaultInjectorTest, ArrivalSurgeDrivesTheHandlerAtBothEdges) {
  TestRig rig;
  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  std::vector<std::pair<double, bool>> calls;
  injector.set_surge_handler([&](double factor, bool active) {
    calls.push_back({factor, active});
  });
  FaultPlan plan;
  FaultEvent surge;
  surge.kind = FaultKind::kArrivalSurge;
  surge.start = 1.0;
  surge.duration = 2.0;
  surge.magnitude = 3.0;
  plan.Add(surge);
  ASSERT_TRUE(injector.Arm(plan).ok());

  rig.sim.RunUntil(5.0);
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_DOUBLE_EQ(calls[0].first, 3.0);
  EXPECT_TRUE(calls[0].second);
  EXPECT_DOUBLE_EQ(calls[1].first, 3.0);
  EXPECT_FALSE(calls[1].second);
}

TEST(FaultInjectorTest, ArmRejectsMalformedWindows) {
  TestRig rig;
  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  FaultPlan bad;
  bad.Add({FaultKind::kIoStall, 1.0, 0.0});
  EXPECT_FALSE(injector.Arm(bad).ok());
  FaultPlan negative;
  negative.Add({FaultKind::kIoStall, -1.0, 1.0});
  EXPECT_FALSE(injector.Arm(negative).ok());
}

TEST(FaultInjectorTest, ArmRejectsShardLevelKinds) {
  // Shard crash/restart windows target the cluster layer; the
  // single-engine injector must refuse them rather than no-op.
  TestRig rig;
  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kShardCrash;
  crash.start = 1.0;
  crash.duration = 1.0;
  crash.shard = 0;
  plan.Add(crash);
  EXPECT_FALSE(injector.Arm(plan).ok());
}

TEST(FaultPlanTest, RollingRestartStaggersOneWindowPerShard) {
  FaultPlan plan = FaultPlan::RollingRestart(
      /*seed=*/7, /*num_shards=*/4, /*start=*/2.0, /*down_seconds=*/1.5,
      /*gap_seconds=*/3.0, /*announced=*/false);
  ASSERT_EQ(plan.events.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    const FaultEvent& event = plan.events[s];
    EXPECT_EQ(event.kind, FaultKind::kShardCrash);
    EXPECT_EQ(event.shard, s);
    EXPECT_DOUBLE_EQ(event.start, 2.0 + 3.0 * s);
    EXPECT_DOUBLE_EQ(event.duration, 1.5);
  }
  FaultPlan announced = FaultPlan::RollingRestart(7, 2, 0.0, 1.0, 2.0,
                                                  /*announced=*/true);
  for (const FaultEvent& event : announced.events) {
    EXPECT_EQ(event.kind, FaultKind::kShardRestart);
  }
}

// --- dispatch link model ---------------------------------------------------

TEST(LinkModelTest, FactorsScaleBaselineMultiplicatively) {
  LinkOptions options;
  options.delay_seconds = 0.1;
  options.drop_rate = 0.2;
  DispatchLinkModel link(options, 3);
  EXPECT_DOUBLE_EQ(link.Delay(1), 0.1);
  EXPECT_DOUBLE_EQ(link.DropRate(1), 0.2);
  link.SetShardQuality(1, /*delay_factor=*/3.0, /*drop_factor=*/2.0);
  EXPECT_DOUBLE_EQ(link.Delay(1), 0.3);
  EXPECT_DOUBLE_EQ(link.DropRate(1), 0.4);
  // Untouched shards keep the baseline.
  EXPECT_DOUBLE_EQ(link.Delay(0), 0.1);
  EXPECT_DOUBLE_EQ(link.DropRate(0), 0.2);
  // The effective rate clamps to a probability.
  link.SetShardQuality(2, 1.0, 100.0);
  EXPECT_DOUBLE_EQ(link.DropRate(2), 1.0);
  // A zero baseline cannot be degraded into lossiness by factors alone.
  DispatchLinkModel lossless(LinkOptions(), 1);
  lossless.SetShardQuality(0, 1.0, 1e9);
  EXPECT_DOUBLE_EQ(lossless.DropRate(0), 0.0);
  EXPECT_FALSE(lossless.DropHeartbeat(0));
}

TEST(LinkModelTest, PerShardDropStreamsAreIndependent) {
  LinkOptions options;
  options.drop_rate = 0.5;
  // Degrading shard 2 in one model must leave the other shards'
  // drop sequences bit-identical to an undisturbed twin.
  DispatchLinkModel a(options, 4);
  DispatchLinkModel b(options, 4);
  b.SetShardQuality(2, 1.0, 1.6);
  std::vector<bool> a_seq, b_seq;
  for (int i = 0; i < 64; ++i) {
    for (int s = 0; s < 4; ++s) {
      if (s == 2) {
        (void)a.DropHeartbeat(s);
        (void)b.DropHeartbeat(s);
        continue;
      }
      a_seq.push_back(a.DropHeartbeat(s));
      b_seq.push_back(b.DropHeartbeat(s));
    }
  }
  EXPECT_EQ(a_seq, b_seq);
  // And a different link seed reshuffles the drops.
  LinkOptions reseeded = options;
  reseeded.seed = 0xBEEF;
  DispatchLinkModel c(options, 1);
  DispatchLinkModel d(reseeded, 1);
  int diverged = 0;
  for (int i = 0; i < 64; ++i) {
    if (c.DropHeartbeat(0) != d.DropHeartbeat(0)) ++diverged;
  }
  EXPECT_GT(diverged, 0);
}

// --- resilience: retry with backoff ---------------------------------------

TEST(ResilienceTest, FaultAbortRetriesAndCompletes) {
  TestRig rig(TestEngineConfig(), 0.5, ResilientConfig());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, /*cpu=*/1.0, /*io=*/100.0)).ok());
  rig.sim.RunUntil(0.1);
  ASSERT_TRUE(rig.wlm.AbortRequestByFault(1, "test").ok());

  rig.sim.RunUntil(30.0);
  const Request* request = rig.Find(1);
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->state, RequestState::kCompleted);
  EXPECT_EQ(request->resubmits, 1);
  EXPECT_EQ(rig.wlm.counters("default").completed, 1);
  EXPECT_EQ(rig.wlm.counters("default").killed, 0);
  EXPECT_EQ(rig.wlm.counters("default").resubmitted, 1);
}

TEST(ResilienceTest, RetryWaitsOutTheConfiguredBackoff) {
  WlmConfig config = ResilientConfig();
  config.resilience.retry_backoff_seconds = 2.0;
  TestRig rig(TestEngineConfig(), 0.5, config);
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, /*cpu=*/0.5, /*io=*/50.0)).ok());
  rig.sim.RunUntil(0.1);
  ASSERT_TRUE(rig.wlm.AbortRequestByFault(1, "test").ok());

  // During the backoff the request is neither queued nor running.
  rig.sim.RunUntil(1.0);
  EXPECT_EQ(rig.wlm.queue_depth(), 0u);
  EXPECT_EQ(rig.wlm.running_count(), 0u);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kQueued);

  rig.sim.RunUntil(30.0);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kCompleted);
  // Requeue happened at abort time + 2.0s, so completion is after that.
  EXPECT_GT(rig.Find(1)->finish_time, 2.1);
}

TEST(ResilienceTest, BackoffGrowsExponentiallyAcrossRetries) {
  WlmConfig config = ResilientConfig();
  config.resilience.max_retries = 3;
  TestRig rig(TestEngineConfig(), 0.5, config);
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, /*cpu=*/5.0)).ok());
  rig.sim.RunUntil(0.1);
  ASSERT_TRUE(rig.wlm.AbortRequestByFault(1, "one").ok());
  rig.sim.RunUntil(1.0);  // past the 0.25s backoff; running again
  ASSERT_TRUE(rig.wlm.AbortRequestByFault(1, "two").ok());

  auto resubmits = rig.wlm.event_log().OfType(WlmEventType::kResubmitted);
  ASSERT_EQ(resubmits.size(), 2u);
  EXPECT_NE(resubmits[0].detail.find("backoff=0.250s"), std::string::npos);
  EXPECT_NE(resubmits[1].detail.find("backoff=0.500s"), std::string::npos);
}

TEST(ResilienceTest, RetryBudgetExhaustionEndsKilled) {
  WlmConfig config = ResilientConfig();
  config.resilience.max_retries = 1;
  config.resilience.retry_backoff_seconds = 0.1;
  TestRig rig(TestEngineConfig(), 0.5, config);
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, /*cpu=*/5.0)).ok());
  rig.sim.RunUntil(0.1);
  ASSERT_TRUE(rig.wlm.AbortRequestByFault(1, "one").ok());
  rig.sim.RunUntil(1.0);  // retried and running again
  ASSERT_EQ(rig.Find(1)->state, RequestState::kRunning);
  ASSERT_TRUE(rig.wlm.AbortRequestByFault(1, "two").ok());

  rig.sim.RunUntil(10.0);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kKilled);
  EXPECT_EQ(rig.wlm.counters("default").killed, 1);
}

TEST(ResilienceTest, DisabledResilienceKillsFaultAbortsOutright) {
  TestRig rig;  // resilience off by default
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, /*cpu=*/5.0)).ok());
  rig.sim.RunUntil(0.1);
  ASSERT_TRUE(rig.wlm.AbortRequestByFault(1, "test").ok());
  EXPECT_EQ(rig.Find(1)->state, RequestState::kKilled);
  EXPECT_EQ(rig.wlm.counters("default").resubmitted, 0);
}

TEST(ResilienceTest, AbortRequestByFaultValidatesTarget) {
  TestRig rig;
  EXPECT_FALSE(rig.wlm.AbortRequestByFault(99, "test").ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, /*cpu=*/0.01, /*io=*/1.0)).ok());
  rig.sim.RunUntil(5.0);  // completed; no longer running
  EXPECT_FALSE(rig.wlm.AbortRequestByFault(1, "test").ok());
}

// --- resilience: graceful degradation --------------------------------------

TEST(ResilienceTest, DegradationShedsMplWhileFaultActiveAndRestores) {
  WlmConfig config = ResilientConfig();
  config.resilience.degraded_mpl_factor = 0.5;
  TestRig rig(TestEngineConfig(), 0.5, config);
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(/*mpl=*/4));

  rig.wlm.NotifyFaultBegin("io_stall", "test");
  ASSERT_TRUE(rig.wlm.degraded());
  for (QueryId id = 1; id <= 6; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, /*cpu=*/20.0)).ok());
  }
  EXPECT_EQ(rig.wlm.running_count(), 2u);  // 4 * 0.5
  EXPECT_EQ(rig.wlm.queue_depth(), 4u);

  rig.wlm.NotifyFaultEnd("io_stall", 0.0);
  EXPECT_FALSE(rig.wlm.degraded());
  EXPECT_EQ(rig.wlm.running_count(), 4u);  // refilled on recovery
}

TEST(ResilienceTest, DegradationThrottlesLowPriorityAndRestoresOnRecovery) {
  WlmConfig config = ResilientConfig();
  config.resilience.degraded_throttle_duty = 0.25;
  TestRig rig(TestEngineConfig(), 0.5, config);
  WorkloadDefinition low;
  low.name = "background";
  low.priority = BusinessPriority::kBackground;
  rig.wlm.DefineWorkload(low);
  WorkloadDefinition high;
  high.name = "critical";
  high.priority = BusinessPriority::kCritical;
  rig.wlm.DefineWorkload(high);

  QuerySpec low_spec = BiSpec(1, /*cpu=*/20.0);
  QuerySpec high_spec = BiSpec(2, /*cpu=*/20.0);
  class ByIdClassifier : public RequestClassifier {
   public:
    std::string Classify(const Request& request,
                         const WorkloadManager&) override {
      return request.spec.id == 1 ? "background" : "critical";
    }
    TechniqueInfo info() const override { return TechniqueInfo{}; }
  };
  rig.wlm.set_classifier(std::make_unique<ByIdClassifier>());
  ASSERT_TRUE(rig.wlm.Submit(low_spec).ok());
  ASSERT_TRUE(rig.wlm.Submit(high_spec).ok());

  rig.wlm.NotifyFaultBegin("cpu_loss", "test");
  auto throttles = rig.wlm.event_log().OfType(WlmEventType::kThrottled);
  ASSERT_EQ(throttles.size(), 1u);  // only the background request
  EXPECT_EQ(throttles[0].query, 1u);

  rig.wlm.NotifyFaultEnd("cpu_loss", 0.0);
  throttles = rig.wlm.event_log().OfType(WlmEventType::kThrottled);
  ASSERT_EQ(throttles.size(), 2u);
  EXPECT_EQ(throttles[1].query, 1u);
  EXPECT_NE(throttles[1].detail.find("1.0"), std::string::npos);
}

TEST(ResilienceTest, NestedFaultWindowsStayDegradedUntilLastRecovers) {
  TestRig rig(TestEngineConfig(), 0.5, ResilientConfig());
  rig.wlm.NotifyFaultBegin("io_stall", "a");
  rig.wlm.NotifyFaultBegin("cpu_loss", "b");
  EXPECT_EQ(rig.wlm.active_fault_count(), 2);
  rig.wlm.NotifyFaultEnd("io_stall", 0.0);
  EXPECT_TRUE(rig.wlm.degraded());
  rig.wlm.NotifyFaultEnd("cpu_loss", 0.0);
  EXPECT_FALSE(rig.wlm.degraded());
}

// --- timeout escalation -----------------------------------------------------

TEST(TimeoutEscalationTest, ThrottleRungFiresPastSoftTimeout) {
  TestRig rig(TestEngineConfig(), /*monitor_interval=*/0.1);
  TimeoutEscalationController::Config config;
  config.default_policy.throttle_after_seconds = 0.5;
  config.default_policy.throttle_duty = 0.5;
  auto controller =
      std::make_unique<TimeoutEscalationController>(config);
  TimeoutEscalationController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, /*cpu=*/4.0)).ok());
  rig.sim.RunUntil(1.0);
  EXPECT_EQ(raw->throttles(), 1);
  EXPECT_EQ(rig.wlm.event_log().CountOf(WlmEventType::kThrottled), 1);
  rig.sim.RunUntil(2.0);
  EXPECT_EQ(raw->throttles(), 1);  // one rung application per run
}

TEST(TimeoutEscalationTest, LadderEscalatesThrottleThenSuspend) {
  TestRig rig(TestEngineConfig(), /*monitor_interval=*/0.1);
  TimeoutEscalationController::Config config;
  config.default_policy.throttle_after_seconds = 0.3;
  config.default_policy.throttle_duty = 0.5;
  config.default_policy.suspend_after_seconds = 0.8;
  auto controller =
      std::make_unique<TimeoutEscalationController>(config);
  TimeoutEscalationController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, /*cpu=*/6.0)).ok());
  rig.sim.RunUntil(2.0);
  EXPECT_GE(raw->throttles(), 1);
  EXPECT_GE(raw->suspends(), 1);
  const EventLog& log = rig.wlm.event_log();
  auto throttled = log.OfType(WlmEventType::kThrottled);
  auto suspended = log.OfType(WlmEventType::kSuspended);
  ASSERT_FALSE(throttled.empty());
  ASSERT_FALSE(suspended.empty());
  EXPECT_LT(throttled[0].time, suspended[0].time);
}

TEST(TimeoutEscalationTest, KillRungTerminatesAndCanResubmit) {
  TestRig rig(TestEngineConfig(), /*monitor_interval=*/0.1);
  TimeoutEscalationController::Config config;
  config.default_policy.kill_after_seconds = 0.5;
  config.default_policy.resubmit_on_kill = true;
  auto controller =
      std::make_unique<TimeoutEscalationController>(config);
  TimeoutEscalationController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, /*cpu=*/100.0)).ok());
  rig.sim.RunUntil(3.0);
  EXPECT_GE(raw->kills(), 1);
  EXPECT_GT(rig.wlm.counters("default").resubmitted, 0);
}

TEST(TimeoutEscalationTest, PerWorkloadPolicyOverridesDefault) {
  TestRig rig(TestEngineConfig(), /*monitor_interval=*/0.1);
  TimeoutEscalationController::Config config;
  // Default unmanaged; only "default" workload gets a throttle rung.
  config.per_workload["default"].throttle_after_seconds = 0.3;
  config.per_workload["default"].throttle_duty = 0.5;
  auto controller =
      std::make_unique<TimeoutEscalationController>(config);
  TimeoutEscalationController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, /*cpu=*/2.0)).ok());
  rig.sim.RunUntil(1.0);
  EXPECT_EQ(raw->throttles(), 1);
  EXPECT_FALSE(raw->info().name.empty());
}

// --- telemetry surfacing ----------------------------------------------------

TEST(FaultTelemetryTest, FaultWindowsSurfaceInMetricsAndTraces) {
  TestRig rig(TestEngineConfig(), 0.5, ResilientConfig());
  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  FaultPlan plan;
  plan.Add({FaultKind::kDiskDegrade, 1.0, 1.0, 0.25});
  ASSERT_TRUE(injector.Arm(plan).ok());

  rig.sim.RunUntil(1.5);
  auto& metrics = rig.wlm.telemetry().metrics();
  EXPECT_DOUBLE_EQ(metrics
                       .GetCounter("wlm_faults_injected_total",
                                   {{"kind", "disk_degrade"}})
                       .value(),
                   1.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("wlm_faults_active", {}).value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("wlm_faults_degraded", {}).value(), 1.0);

  rig.sim.RunUntil(3.0);
  EXPECT_DOUBLE_EQ(metrics
                       .GetCounter("wlm_faults_recovered_total",
                                   {{"kind", "disk_degrade"}})
                       .value(),
                   1.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("wlm_faults_active", {}).value(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("wlm_faults_degraded", {}).value(), 0.0);

  // The whole window is one kFault span on the synthetic fault track.
  const QueryTrace* track = rig.wlm.telemetry().tracer().Find(SyntheticTrackId(SyntheticTrack::kFaults));
  ASSERT_NE(track, nullptr);
  auto spans = track->SpansOfKind(SpanKind::kFault);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0]->start, 1.0);
  EXPECT_DOUBLE_EQ(spans[0]->end, 2.0);
}

}  // namespace
}  // namespace wlm
