// Cluster-layer tests: placement-policy units, dispatcher routing /
// failover / health semantics, re-dispatch, and the multi-shard
// determinism regressions (identical seed => byte-identical per-shard
// routing sequences and cluster metric exports, for every policy).

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "tests/wlm_test_util.h"
#include "workloads/generators.h"

namespace wlm {
namespace {

std::vector<ShardSnapshot> Snaps(std::vector<ShardSnapshot> snaps) {
  return snaps;
}

// Every shard getter and dispatcher total reads back exactly the
// `wlm_cluster_*` series the registry exports.
void ExpectCountersMatchMetrics(ClusterDispatcher& cluster) {
  const MetricsRegistry& metrics = cluster.metrics();
  auto series = [&](const char* family, int shard) -> int64_t {
    const Counter* counter =
        metrics.FindCounter(family, {{"shard", std::to_string(shard)}});
    return counter == nullptr ? -1 : static_cast<int64_t>(counter->value());
  };
  auto family = [&](const char* name) {
    return static_cast<int64_t>(FamilyValueSum(metrics, name));
  };
  for (int s = 0; s < cluster.num_shards(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const ClusterShard& shard = cluster.shard(s);
    EXPECT_EQ(shard.routed(), series("wlm_cluster_routed_total", s));
    EXPECT_EQ(shard.refused(), series("wlm_cluster_refused_total", s));
    EXPECT_EQ(shard.redispatched_in(),
              series("wlm_cluster_redispatched_total", s));
    EXPECT_EQ(shard.blackholed(),
              series("wlm_cluster_health_blackholed_total", s));
    EXPECT_EQ(shard.down_transitions(),
              series("wlm_cluster_health_down_total", s));
  }
  EXPECT_EQ(cluster.routed_total(), family("wlm_cluster_routed_total"));
  EXPECT_EQ(cluster.rejected_total(), family("wlm_cluster_rejected_total"));
  EXPECT_EQ(cluster.redispatched_total(),
            family("wlm_cluster_redispatched_total"));
  EXPECT_EQ(cluster.hedges_started(),
            family("wlm_cluster_hedge_started_total"));
  EXPECT_EQ(cluster.hedges_cancelled(),
            family("wlm_cluster_hedge_cancelled_total"));
  EXPECT_EQ(cluster.orphans_lost(), family("wlm_cluster_health_lost_total"));
}

// ------------------------------------------------- placement policies

TEST(PlacementTest, RoundRobinCyclesEligibleShards) {
  auto policy = MakePlacementPolicy(PlacementPolicyKind::kRoundRobin);
  auto snaps = Snaps({{0, 0, 0, 0.0, true},
                      {1, 0, 0, 0.0, true},
                      {2, 0, 0, 0.0, true}});
  QuerySpec spec = OltpSpec(1);
  EXPECT_EQ(policy->Pick(spec, snaps), 0);
  EXPECT_EQ(policy->Pick(spec, snaps), 1);
  EXPECT_EQ(policy->Pick(spec, snaps), 2);
  EXPECT_EQ(policy->Pick(spec, snaps), 0);
}

TEST(PlacementTest, LeastOutstandingPicksFewestWithLowIndexTie) {
  auto policy = MakePlacementPolicy(PlacementPolicyKind::kLeastOutstanding);
  QuerySpec spec = OltpSpec(1);
  EXPECT_EQ(policy->Pick(spec, Snaps({{0, 3, 1, 0.0, true},
                                      {1, 1, 1, 0.0, true},
                                      {2, 4, 0, 0.0, true}})),
            1);
  // Tie on outstanding: the lowest shard index wins.
  EXPECT_EQ(policy->Pick(spec, Snaps({{0, 1, 1, 0.0, true},
                                      {1, 2, 0, 0.0, true},
                                      {2, 0, 2, 0.0, true}})),
            0);
}

TEST(PlacementTest, EwmaLatencyPicksFastestThenLeastLoaded) {
  auto policy = MakePlacementPolicy(PlacementPolicyKind::kEwmaLatency);
  QuerySpec spec = BiSpec(1);
  EXPECT_EQ(policy->Pick(spec, Snaps({{0, 0, 0, 2.5, true},
                                      {1, 9, 9, 0.4, true},
                                      {2, 0, 0, 1.0, true}})),
            1);
  // Equal latency: fewer outstanding requests breaks the tie.
  EXPECT_EQ(policy->Pick(spec, Snaps({{0, 5, 0, 1.0, true},
                                      {1, 2, 0, 1.0, true}})),
            1);
}

TEST(PlacementTest, AffinityIsStableForAKey) {
  auto policy = MakePlacementPolicy(PlacementPolicyKind::kAffinity);
  auto snaps = Snaps({{0, 0, 0, 0.0, true},
                      {1, 0, 0, 0.0, true},
                      {2, 0, 0, 0.0, true},
                      {3, 0, 0, 0.0, true}});
  QuerySpec spec = BiSpec(1);
  spec.sql_digest = "select sum(x) from t group by y";
  const int first = policy->Pick(spec, snaps);
  for (int i = 0; i < 10; ++i) {
    spec.id = static_cast<QueryId>(i + 2);
    EXPECT_EQ(policy->Pick(spec, snaps), first);
  }
}

TEST(PlacementTest, AffinityRemapsOnlyKeysOfRemovedShard) {
  auto policy = MakePlacementPolicy(PlacementPolicyKind::kAffinity);
  auto all = Snaps({{0, 0, 0, 0.0, true},
                    {1, 0, 0, 0.0, true},
                    {2, 0, 0, 0.0, true},
                    {3, 0, 0, 0.0, true}});
  const int removed = 2;
  std::vector<ShardSnapshot> remaining;
  for (const ShardSnapshot& s : all) {
    if (s.shard != removed) remaining.push_back(s);
  }
  int moved = 0;
  for (int k = 0; k < 200; ++k) {
    QuerySpec spec = BiSpec(static_cast<QueryId>(k + 1));
    spec.sql_digest = "digest-" + std::to_string(k);
    const int before = policy->Pick(spec, all);
    const int after = policy->Pick(spec, remaining);
    if (before != removed) {
      EXPECT_EQ(after, before) << "key " << k << " moved without cause";
    } else {
      ++moved;
      EXPECT_NE(after, removed);
    }
  }
  // Rendezvous hashing spreads keys: the removed shard owned some.
  EXPECT_GT(moved, 0);
}

TEST(PlacementTest, AffinityKeyPrefersLocksThenDigestThenApplication) {
  QuerySpec with_lock = OltpSpec(1);
  LockRequest lock;
  lock.key = 77;
  with_lock.locks = {lock};
  QuerySpec same_lock = OltpSpec(2);
  same_lock.locks = {lock};
  EXPECT_EQ(AffinityKey(with_lock), AffinityKey(same_lock));

  QuerySpec digest_a = BiSpec(3);
  digest_a.sql_digest = "q1";
  QuerySpec digest_b = BiSpec(4);
  digest_b.sql_digest = "q1";
  QuerySpec digest_c = BiSpec(5);
  digest_c.sql_digest = "q2";
  EXPECT_EQ(AffinityKey(digest_a), AffinityKey(digest_b));
  EXPECT_NE(AffinityKey(digest_a), AffinityKey(digest_c));

  QuerySpec app_only = BiSpec(6);
  QuerySpec app_same = BiSpec(7);
  EXPECT_EQ(AffinityKey(app_only), AffinityKey(app_same));
}

TEST(PlacementTest, KindRoundTrip) {
  for (PlacementPolicyKind kind :
       {PlacementPolicyKind::kRoundRobin, PlacementPolicyKind::kLeastOutstanding,
        PlacementPolicyKind::kEwmaLatency, PlacementPolicyKind::kAffinity}) {
    auto policy = MakePlacementPolicy(kind);
    EXPECT_EQ(policy->kind(), kind);
    EXPECT_STRNE(PlacementPolicyKindToString(kind), "unknown");
  }
}

// ------------------------------------------------- dispatcher routing

TEST(ClusterDispatcherTest, RoutesAcrossShardsAndCountsThem) {
  Simulation sim;
  ClusterDispatcher cluster(&sim, TestClusterOptions(2),
                            [](int, WorkloadManager& m) {
                              DefineTestWorkloads(m);
                            });
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.Submit(OltpSpec(static_cast<QueryId>(i + 1))).ok());
  }
  sim.RunUntil(5.0);
  EXPECT_EQ(cluster.routed_total(), 6);
  EXPECT_EQ(cluster.shard(0).routed() + cluster.shard(1).routed(), 6);
  EXPECT_EQ(cluster.route_log().size(), 6u);
  // Every query completed on the shard it was routed to.
  int completed = 0;
  for (int s = 0; s < cluster.num_shards(); ++s) {
    completed += static_cast<int>(
        cluster.shard(s).wlm().event_log().CountOf(WlmEventType::kCompleted));
  }
  EXPECT_EQ(completed, 6);
}

TEST(ClusterDispatcherTest, FailsOverWhenOneShardRefuses) {
  Simulation sim;
  ClusterOptions options = TestClusterOptions(2);
  options.wlm.overload.codel.queue_capacity = 2;
  options.placement = PlacementPolicyKind::kRoundRobin;
  ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
    DefineTestWorkloads(m);
    m.set_scheduler(std::make_unique<FifoScheduler>(2));
  });
  // Long BI queries occupy both engines (MPL 2); round-robin then keeps
  // offering shard 0 first, whose queue fills first.
  int admitted = 0;
  for (int i = 0; i < 12; ++i) {
    Status status = cluster.Submit(BiSpec(static_cast<QueryId>(i + 1), 50.0));
    if (status.ok()) ++admitted;
  }
  // Capacity: 2 queues of 2 plus what dispatched immediately.
  EXPECT_LT(admitted, 12);
  EXPECT_GT(admitted, 0);
  // Failover attempts show up as attempt > 0 in the route log, and the
  // final refusals as cluster-level rejects.
  bool saw_failover = false;
  for (const auto& decision : cluster.route_log()) {
    if (decision.attempt > 0) saw_failover = true;
  }
  EXPECT_TRUE(saw_failover);
  EXPECT_GT(cluster.rejected_total(), 0);
  EXPECT_GT(cluster.shard(0).refused() + cluster.shard(1).refused(), 0);
  ExpectCountersMatchMetrics(cluster);
}

TEST(ClusterDispatcherTest, RejectsOnlyWhenEveryShardRefuses) {
  Simulation sim;
  ClusterOptions options = TestClusterOptions(3);
  options.wlm.overload.codel.queue_capacity = 1;
  ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
    DefineTestWorkloads(m);
    m.set_scheduler(std::make_unique<FifoScheduler>(2));
  });
  // Saturate: each shard runs 2 (MPL) and queues 1 => 9 admitted.
  int admitted = 0;
  int overloaded = 0;
  for (int i = 0; i < 15; ++i) {
    Status status = cluster.Submit(BiSpec(static_cast<QueryId>(i + 1), 50.0));
    if (status.ok()) {
      ++admitted;
    } else {
      EXPECT_TRUE(status.IsOverloaded()) << status.ToString();
      ++overloaded;
    }
  }
  EXPECT_EQ(admitted, 9);
  EXPECT_EQ(overloaded, 6);
  EXPECT_EQ(cluster.rejected_total(), 6);
}

TEST(ClusterDispatcherTest, RoutesAroundShardInFaultWindow) {
  Simulation sim;
  ClusterOptions options = TestClusterOptions(2);
  options.placement = PlacementPolicyKind::kRoundRobin;
  ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
    DefineTestWorkloads(m);
  });
  cluster.shard(0).wlm().NotifyFaultBegin("io_stall", "disk degraded");
  EXPECT_FALSE(cluster.shard(0).healthy());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster.Submit(OltpSpec(static_cast<QueryId>(i + 1))).ok());
  }
  EXPECT_EQ(cluster.shard(0).routed(), 0);
  EXPECT_EQ(cluster.shard(1).routed(), 4);
  cluster.shard(0).wlm().NotifyFaultEnd("io_stall", 0.0);
  EXPECT_TRUE(cluster.shard(0).healthy());
  for (int i = 4; i < 8; ++i) {
    ASSERT_TRUE(cluster.Submit(OltpSpec(static_cast<QueryId>(i + 1))).ok());
  }
  EXPECT_GT(cluster.shard(0).routed(), 0);
}

TEST(ClusterDispatcherTest, DegradedClusterStillRoutesWhenNoShardHealthy) {
  Simulation sim;
  ClusterDispatcher cluster(&sim, TestClusterOptions(2),
                            [](int, WorkloadManager& m) {
                              DefineTestWorkloads(m);
                            });
  cluster.shard(0).wlm().NotifyFaultBegin("crash", "x");
  cluster.shard(1).wlm().NotifyFaultBegin("crash", "y");
  EXPECT_TRUE(cluster.Submit(OltpSpec(1)).ok());
  EXPECT_EQ(cluster.routed_total(), 1);
}

TEST(ClusterDispatcherTest, RedispatchGivesShedQueriesASecondShard) {
  Simulation sim;
  ClusterOptions options = TestClusterOptions(2);
  options.redispatch = true;
  options.placement = PlacementPolicyKind::kLeastOutstanding;
  options.wlm.overload.codel.queue_capacity = 4;
  ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
    DefineTestWorkloads(m);
  });
  WorkloadGenerator generator(7);
  Rng arrivals(7 ^ 0x9999ULL);
  OpenLoopDriver bi(
      &sim, &arrivals, 4.0,
      [&generator] { return generator.NextBi(BiWorkloadConfig()); },
      [&cluster](QuerySpec spec) { (void)cluster.Submit(std::move(spec)); });
  bi.Start(20.0);
  sim.RunUntil(40.0);
  // The surge sheds queued queries (CoDel / deadline); with re-dispatch
  // enabled some get a second life on the other shard.
  EXPECT_GT(cluster.redispatched_total(), 0);
  EXPECT_EQ(cluster.redispatched_total(),
            cluster.shard(0).redispatched_in() +
                cluster.shard(1).redispatched_in());
  // Re-dispatched submissions are marked in the route log.
  bool saw_redispatch = false;
  for (const auto& decision : cluster.route_log()) {
    if (decision.redispatch) saw_redispatch = true;
  }
  EXPECT_TRUE(saw_redispatch);
}

TEST(ClusterDispatcherTest, ExportsClusterMetricFamilies) {
  Simulation sim;
  ClusterDispatcher cluster(&sim, TestClusterOptions(2),
                            [](int, WorkloadManager& m) {
                              DefineTestWorkloads(m);
                            });
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster.Submit(OltpSpec(static_cast<QueryId>(i + 1))).ok());
  }
  sim.RunUntil(5.0);
  std::ostringstream out;
  cluster.ExportMetrics(out);
  const std::string text = out.str();
  for (const char* family :
       {"wlm_cluster_routed_total", "wlm_cluster_refused_total",
        "wlm_cluster_rejected_total", "wlm_cluster_redispatched_total",
        "wlm_cluster_imbalance", "wlm_cluster_shard_p99_seconds",
        "wlm_cluster_shard_queue_depth", "wlm_cluster_shard_running",
        "wlm_cluster_shard_healthy", "wlm_cluster_shard_ewma_latency_seconds"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
  EXPECT_NE(text.find("shard=\"0\""), std::string::npos);
  EXPECT_NE(text.find("shard=\"1\""), std::string::npos);
}

TEST(ClusterDispatcherTest, ImbalanceCoefficientTracksSkew) {
  Simulation sim;
  ClusterOptions options = TestClusterOptions(2);
  options.placement = PlacementPolicyKind::kRoundRobin;
  ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
    DefineTestWorkloads(m);
  });
  EXPECT_DOUBLE_EQ(cluster.ImbalanceCoefficient(), 0.0);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.Submit(OltpSpec(static_cast<QueryId>(i + 1))).ok());
  }
  // Round-robin over two healthy shards: perfectly balanced.
  EXPECT_DOUBLE_EQ(cluster.ImbalanceCoefficient(), 0.0);
  // Skew every remaining query to shard 1 via a fault window on shard 0.
  cluster.shard(0).wlm().NotifyFaultBegin("crash", "x");
  for (int i = 8; i < 16; ++i) {
    ASSERT_TRUE(cluster.Submit(OltpSpec(static_cast<QueryId>(i + 1))).ok());
  }
  EXPECT_GT(cluster.ImbalanceCoefficient(), 0.0);
}

// ------------------------------------------------- crash / recovery

ClusterOptions HealthClusterOptions(int num_shards) {
  ClusterOptions options = TestClusterOptions(num_shards);
  options.placement = PlacementPolicyKind::kLeastOutstanding;
  options.redispatch = true;
  options.health.enabled = true;
  return options;
}

TEST(ClusterHealthTest, DetectorDeclaresCrashedShardDownWithinBound) {
  Simulation sim;
  ClusterDispatcher cluster(&sim, HealthClusterOptions(2),
                            [](int, WorkloadManager& m) {
                              DefineTestWorkloads(m);
                            });
  sim.RunUntil(2.0);
  EXPECT_EQ(cluster.shard(1).lifecycle(), ShardLifecycle::kHealthy);
  cluster.CrashShard(1);
  EXPECT_TRUE(cluster.shard(1).crashed());
  // Ground truth is invisible to routing: the lifecycle only moves once
  // heartbeat silence accrues.
  EXPECT_EQ(cluster.shard(1).lifecycle(), ShardLifecycle::kHealthy);
  const double interval = kHeartbeatIntervalSeconds;
  // One missed evaluation: suspected, not yet down.
  sim.RunUntil(2.0 + 2.0 * interval + 1e-9);
  EXPECT_EQ(cluster.shard(1).lifecycle(), ShardLifecycle::kSuspected);
  // Within four intervals the detector must declare it dead.
  sim.RunUntil(2.0 + 4.0 * interval + 1e-9);
  EXPECT_EQ(cluster.shard(1).lifecycle(), ShardLifecycle::kDown);
  EXPECT_EQ(cluster.shard(1).down_transitions(), 1);
  ASSERT_EQ(cluster.event_log().CountOf(WlmEventType::kShardDown), 1);
  // The dead shard's flight recorder captured a shard_down post-mortem.
  const auto& postmortems =
      cluster.shard(1).wlm().telemetry().flight_recorder().postmortems();
  ASSERT_EQ(postmortems.size(), 1u);
  EXPECT_EQ(postmortems.front().reason, "shard_down");
}

// The dead shard's shard_down post-mortem goes through the telemetry
// facade's one trigger: it is counted like every other dump, and there is
// none while profiling (or telemetry as a whole) is off.
TEST(ClusterHealthTest, ShardDownPostMortemIsCountedAndFollowsProfiling) {
  struct Case {
    bool enabled;
    bool profiling;
  };
  for (const Case& c : {Case{true, true}, Case{true, false},
                        Case{false, true}}) {
    SCOPED_TRACE(testing::Message() << "enabled=" << c.enabled
                                    << " profiling=" << c.profiling);
    Simulation sim;
    ClusterOptions options = HealthClusterOptions(2);
    options.wlm.telemetry.enabled = c.enabled;
    options.wlm.telemetry.profiling = c.profiling;
    ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
      DefineTestWorkloads(m);
    });
    sim.RunUntil(2.0);
    cluster.CrashShard(1);
    sim.RunUntil(2.0 + 4.0 * kHeartbeatIntervalSeconds + 1e-9);
    ASSERT_EQ(cluster.shard(1).lifecycle(), ShardLifecycle::kDown);

    const Telemetry& telemetry = cluster.shard(1).wlm().telemetry();
    const std::vector<PostMortem>& postmortems =
        telemetry.flight_recorder().postmortems();
    const Counter* dumps =
        telemetry.metrics().FindCounter("wlm_flight_recorder_dumps_total");
    if (c.enabled && c.profiling) {
      ASSERT_EQ(postmortems.size(), 1u);
      EXPECT_EQ(postmortems.front().reason, "shard_down");
      ASSERT_NE(dumps, nullptr);
      EXPECT_DOUBLE_EQ(dumps->value(),
                       static_cast<double>(postmortems.size()));
    } else {
      EXPECT_TRUE(postmortems.empty());
      EXPECT_EQ(dumps, nullptr);
    }
  }
}

TEST(ClusterHealthTest, CrashDrainGrantsSecondLivesAndConservesWork) {
  Simulation sim;
  ClusterDispatcher cluster(&sim, HealthClusterOptions(2),
                            [](int, WorkloadManager& m) {
                              DefineTestWorkloads(m);
                            });
  // Load both shards, then kill shard 0 with work queued and running.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(cluster.Submit(OltpSpec(static_cast<QueryId>(i + 1), 0.5)).ok());
  }
  ASSERT_GT(cluster.shard(0).wlm().queue_depth() +
                cluster.shard(0).wlm().running_count(),
            0u);
  cluster.CrashShard(0);
  sim.RunUntil(30.0);
  // Every victim re-dispatched to shard 1 and completed there.
  bool saw_crash_drain = false;
  for (const auto& decision : cluster.route_log()) {
    if (decision.cause == RouteCause::kCrashDrain) {
      saw_crash_drain = true;
      EXPECT_EQ(decision.shard, 1);
      EXPECT_TRUE(decision.redispatch);
    }
  }
  EXPECT_TRUE(saw_crash_drain);
  EXPECT_EQ(cluster.orphans_lost(), 0);
  const int64_t completed_total =
      cluster.shard(0).wlm().event_log().CountOf(WlmEventType::kCompleted) +
      cluster.shard(1).wlm().event_log().CountOf(WlmEventType::kCompleted);
  EXPECT_EQ(completed_total, 12);
  // Journeys chain each second life to its first: a crash_drain life on
  // the survivor whose parent is the earlier life on the crashed shard.
  bool saw_drain_chain = false;
  for (const Journey& journey : cluster.journeys().journeys()) {
    for (const JourneyLife& life : journey.lives) {
      if (life.cause != RouteCause::kCrashDrain) continue;
      EXPECT_EQ(life.shard, 1);
      ASSERT_GE(life.parent, 0);
      EXPECT_EQ(journey.lives[static_cast<size_t>(life.parent)].shard, 0);
      EXPECT_EQ(life.outcome, "completed");
      saw_drain_chain = true;
    }
    EXPECT_EQ(journey.OpenLives(), 0);
  }
  EXPECT_TRUE(saw_drain_chain);
  EXPECT_EQ(cluster.shard(0).down_transitions(), 1);
  EXPECT_GT(cluster.redispatched_total(), 0);
  ExpectCountersMatchMetrics(cluster);
}

TEST(ClusterHealthTest, FederatedExportMergesShardRegistries) {
  Simulation sim;
  ClusterDispatcher cluster(&sim, HealthClusterOptions(2),
                            [](int, WorkloadManager& m) {
                              DefineTestWorkloads(m);
                            });
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.Submit(OltpSpec(static_cast<QueryId>(i + 1), 0.2)).ok());
  }
  sim.RunUntil(20.0);
  MetricsRegistry federated;
  const FederationStats stats = cluster.BuildFederatedRegistry(&federated);
  EXPECT_EQ(stats.sources, 2);
  EXPECT_GT(stats.families_merged, 0);
  EXPECT_EQ(stats.histogram_bound_mismatches, 0);
  // Counters sum across shards: every submitted query is in the
  // federated family exactly once.
  EXPECT_DOUBLE_EQ(
      FamilyValueSum(federated, "wlm_cluster_requests_submitted_total"), 8.0);
  std::ostringstream out;
  cluster.ExportFederatedMetrics(out);
  const std::string text = out.str();
  // Gauges keep per-shard series plus min/max/sum rollups.
  EXPECT_NE(text.find("shard=\"0\""), std::string::npos);
  EXPECT_NE(text.find("shard=\"1\""), std::string::npos);
  EXPECT_NE(text.find("stat=\"max\""), std::string::npos);
  // The dispatcher's own families ride along un-renamed.
  EXPECT_NE(text.find("wlm_cluster_routed_total"), std::string::npos);
  // The sim-clock sampling loop fed the time-series store. (All 8
  // arrivals land before the first sample, so the series is flat at 8 —
  // DeltaSince sees no growth, Latest sees the level.)
  EXPECT_FALSE(cluster.timeseries().SeriesNames().empty());
  TimePoint latest;
  ASSERT_TRUE(cluster.timeseries().Latest("wlm_cluster_requests_total",
                                          &latest));
  EXPECT_DOUBLE_EQ(latest.value, 8.0);
}

TEST(ClusterHealthTest, BlackholedArrivalsDrainOnceDetected) {
  Simulation sim;
  ClusterDispatcher cluster(&sim, HealthClusterOptions(2),
                            [](int, WorkloadManager& m) {
                              DefineTestWorkloads(m);
                            });
  sim.RunUntil(1.0);
  cluster.CrashShard(0);
  // Least-outstanding now PREFERS the black hole: the dead shard shows
  // zero outstanding. These arrivals vanish into it...
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster.Submit(OltpSpec(static_cast<QueryId>(i + 1))).ok());
  }
  EXPECT_GT(cluster.shard(0).blackholed(), 0);
  // ... until detection drains them onto the survivor.
  sim.RunUntil(20.0);
  EXPECT_EQ(cluster.shard(1).wlm().event_log().CountOf(WlmEventType::kCompleted),
            4);
  EXPECT_EQ(cluster.orphans_lost(), 0);
  ExpectCountersMatchMetrics(cluster);
}

// A shard a query black-holed on never saw its id, yet the query was
// handed to it: a later drain must not send it back there.
TEST(ClusterHealthTest, DrainedQueryNeverReturnsToAShardItBlackholedOn) {
  Simulation sim;
  ClusterDispatcher cluster(&sim, HealthClusterOptions(3),
                            [](int, WorkloadManager& m) {
                              DefineTestWorkloads(m);
                            });
  sim.RunUntil(1.0);
  cluster.CrashShard(0);
  ASSERT_TRUE(cluster.Submit(BiSpec(1, /*cpu=*/20.0)).ok());
  EXPECT_EQ(cluster.shard(0).blackholed(), 1);
  sim.RunUntil(3.0);
  ASSERT_EQ(cluster.shard(0).lifecycle(), ShardLifecycle::kDown);
  const Journey* journey = cluster.journeys().Find(1);
  ASSERT_NE(journey, nullptr);
  ASSERT_EQ(journey->lives.size(), 2u);
  EXPECT_EQ(journey->lives[1].shard, 1);
  // Shard 0 comes back empty and healthy, so least-outstanding would
  // pick it first; then the query's second shard dies too.
  cluster.RestartShard(0);
  sim.RunUntil(8.0);
  ASSERT_EQ(cluster.shard(0).lifecycle(), ShardLifecycle::kHealthy);
  cluster.CrashShard(1);
  sim.RunUntil(12.0);
  journey = cluster.journeys().Find(1);
  ASSERT_EQ(journey->lives.size(), 3u);
  EXPECT_EQ(journey->lives[2].cause, RouteCause::kCrashDrain);
  EXPECT_EQ(journey->lives[2].shard, 2);
}

TEST(ClusterHealthTest, UndefendedCrashLosesBlackholedQueriesForever) {
  Simulation sim;
  ClusterOptions options = HealthClusterOptions(2);
  options.health.enabled = false;  // the undefended baseline
  ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
    DefineTestWorkloads(m);
  });
  sim.RunUntil(1.0);
  cluster.CrashShard(0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster.Submit(OltpSpec(static_cast<QueryId>(i + 1))).ok());
  }
  cluster.RestartShard(0);
  sim.RunUntil(20.0);
  EXPECT_EQ(cluster.shard(0).blackholed(), 4);
  // Nobody ever drained them: nothing completed anywhere.
  EXPECT_EQ(cluster.shard(0).wlm().event_log().CountOf(WlmEventType::kCompleted),
            0);
  EXPECT_EQ(cluster.shard(1).wlm().event_log().CountOf(WlmEventType::kCompleted),
            0);
}

TEST(ClusterHealthTest, RecoveryWalksWarmingThenHealthy) {
  Simulation sim;
  ClusterOptions options = HealthClusterOptions(2);
  options.health.warmup.warmup_seconds = 2.0;
  ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
    DefineTestWorkloads(m);
  });
  sim.RunUntil(1.0);
  cluster.CrashShard(1);
  sim.RunUntil(4.0);
  ASSERT_EQ(cluster.shard(1).lifecycle(), ShardLifecycle::kDown);
  cluster.RestartShard(1);
  // The next heartbeat revives it into warming...
  sim.RunUntil(4.0 + kHeartbeatIntervalSeconds + 1e-9);
  EXPECT_EQ(cluster.shard(1).lifecycle(), ShardLifecycle::kWarming);
  EXPECT_EQ(cluster.event_log().CountOf(WlmEventType::kShardRecovered), 1);
  // ... and the ramp's end restores full health.
  sim.RunUntil(7.0);
  EXPECT_EQ(cluster.shard(1).lifecycle(), ShardLifecycle::kHealthy);
}

TEST(ClusterHealthTest, WarmupGovernorCapsReadmissionDuringRamp) {
  Simulation sim;
  ClusterOptions options = HealthClusterOptions(2);
  options.health.warmup.warmup_seconds = 4.0;
  options.health.warmup.min_fraction = 0.125;
  options.health.warmup.capacity = 8;
  ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
    DefineTestWorkloads(m);
  });
  sim.RunUntil(1.0);
  cluster.CrashShard(0);
  sim.RunUntil(4.0);
  ASSERT_EQ(cluster.shard(0).lifecycle(), ShardLifecycle::kDown);
  cluster.RestartShard(0);
  sim.RunUntil(4.5);
  ASSERT_EQ(cluster.shard(0).lifecycle(), ShardLifecycle::kWarming);
  // A restarted shard shows zero outstanding, so least-outstanding would
  // funnel this whole burst at it. 0.25 s into the 4 s ramp the admit
  // fraction is 0.125 + 0.875 * 0.0625, so the cap is ceil(0.18 * 8) = 2:
  // exactly two queries land there, the rest go to the survivor.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.Submit(OltpSpec(static_cast<QueryId>(100 + i), 0.5)).ok());
  }
  EXPECT_EQ(cluster.shard(0).wlm().queue_depth() +
                cluster.shard(0).wlm().running_count(),
            2u);
  EXPECT_EQ(cluster.shard(1).wlm().queue_depth() +
                cluster.shard(1).wlm().running_count(),
            4u);
  sim.RunUntil(30.0);
  EXPECT_EQ(cluster.shard(0).wlm().event_log().CountOf(WlmEventType::kCompleted) +
                cluster.shard(1).wlm().event_log().CountOf(
                    WlmEventType::kCompleted),
            6);
}

TEST(ClusterHealthTest, HedgedDispatchRacesASuspectedShard) {
  Simulation sim;
  ClusterDispatcher cluster(&sim, HealthClusterOptions(2),
                            [](int, WorkloadManager& m) {
                              DefineTestWorkloads(m);
                            });
  // Crash shard 0 just after a heartbeat: one evaluation later it is
  // suspected (not yet down) — and, being "empty", least-outstanding
  // still prefers it.
  sim.ScheduleAt(1.01, [&] { cluster.CrashShard(0); });
  QuerySpec critical = OltpSpec(77);
  critical.deadline_seconds = 5.0;
  sim.ScheduleAt(1.6, [&] {
    ASSERT_EQ(cluster.shard(0).lifecycle(), ShardLifecycle::kSuspected);
    ASSERT_TRUE(cluster.Submit(critical).ok());
  });
  sim.RunUntil(20.0);
  // The primary copy black-holed on the dead shard; the hedge won.
  EXPECT_EQ(cluster.hedges_started(), 1);
  EXPECT_EQ(cluster.event_log().CountOf(WlmEventType::kHedged), 1);
  bool saw_hedge_route = false;
  for (const auto& decision : cluster.route_log()) {
    if (decision.cause == RouteCause::kHedge) {
      saw_hedge_route = true;
      EXPECT_EQ(decision.shard, 1);
    }
  }
  EXPECT_TRUE(saw_hedge_route);
  EXPECT_EQ(cluster.shard(1).wlm().event_log().CountOf(WlmEventType::kCompleted),
            1);
  // The journey records both lives: the primary black-holed on the dead
  // shard, the hedge completed on the survivor, linked by a hedge edge.
  const Journey* journey = cluster.journeys().Find(77);
  ASSERT_NE(journey, nullptr);
  ASSERT_EQ(journey->lives.size(), 2u);
  EXPECT_EQ(journey->lives[0].shard, 0);
  EXPECT_EQ(journey->lives[0].outcome, "blackholed");
  EXPECT_EQ(journey->lives[1].cause, RouteCause::kHedge);
  EXPECT_EQ(journey->lives[1].shard, 1);
  EXPECT_EQ(journey->lives[1].parent, 0);
  EXPECT_EQ(journey->lives[1].outcome, "completed");
}

TEST(ClusterHealthTest, HedgeLoserIsCancelledWhenBothCopiesRun) {
  Simulation sim;
  ClusterOptions options = HealthClusterOptions(3);
  // First-choice placement cycles from shard 0, so the hedged query's
  // primary is the suspected shard even while it looks busy.
  options.placement = PlacementPolicyKind::kRoundRobin;
  // Per-shard drop factors scale this base rate; start every link
  // lossless and degrade only shard 0's below.
  options.health.link.drop_rate = 1.0;
  ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
    DefineTestWorkloads(m);
  });
  for (int s = 0; s < cluster.num_shards(); ++s) {
    cluster.link().SetShardQuality(s, 1.0, 0.0);
  }
  // Make shard 0 suspected WITHOUT killing it: drop its heartbeats on
  // the link, so both hedge copies genuinely execute and race.
  sim.ScheduleAt(1.01, [&] { cluster.link().SetShardQuality(0, 1.0, 1.0); });
  // Fill shard 0's scheduler slots (mpl 4) with CPU-heavy work straight
  // into its manager: its hedge copy then waits in queue, so the race
  // has a deterministic winner (the idle alternate).
  sim.ScheduleAt(1.55, [&] {
    for (QueryId id = 900; id < 904; ++id) {
      ASSERT_TRUE(
          cluster.shard(0).wlm().Submit(BiSpec(id, /*cpu=*/4.0, /*io=*/10.0))
              .ok());
    }
  });
  QuerySpec critical = OltpSpec(99, /*cpu=*/0.5);
  critical.deadline_seconds = 10.0;
  bool submitted = false;
  sim.ScheduleAt(1.6, [&] {
    ASSERT_EQ(cluster.shard(0).lifecycle(), ShardLifecycle::kSuspected);
    submitted = true;
    ASSERT_TRUE(cluster.Submit(critical).ok());
    // Restore the link so shard 0 is not declared down mid-race.
    cluster.link().SetShardQuality(0, 1.0, 0.0);
  });
  sim.RunUntil(30.0);
  ASSERT_TRUE(submitted);
  EXPECT_EQ(cluster.hedges_started(), 1);
  EXPECT_EQ(cluster.hedges_cancelled(), 1);
  // The idle alternate's copy won; the primary's copy was killed, not
  // double-run: query 99 completed exactly once, on the alternate.
  EXPECT_EQ(cluster.shard(1).wlm().event_log().CountOf(WlmEventType::kCompleted),
            1);
  EXPECT_EQ(cluster.shard(0).wlm().event_log().CountOf(WlmEventType::kKilled),
            1);
  int64_t completions_of_99 = 0;
  for (int s = 0; s < cluster.num_shards(); ++s) {
    for (const WlmEvent& event :
         cluster.shard(s).wlm().event_log().ForQuery(99)) {
      if (event.type == WlmEventType::kCompleted) ++completions_of_99;
    }
  }
  EXPECT_EQ(completions_of_99, 1);
  // Journey view of the same race: the cancelled loser is relabeled
  // hedge_cancelled after the kill lands, and both lives close.
  const Journey* journey = cluster.journeys().Find(99);
  ASSERT_NE(journey, nullptr);
  ASSERT_EQ(journey->lives.size(), 2u);
  EXPECT_EQ(journey->lives[0].outcome, "hedge_cancelled");
  EXPECT_EQ(journey->lives[1].cause, RouteCause::kHedge);
  EXPECT_EQ(journey->lives[1].outcome, "completed");
  EXPECT_EQ(journey->OpenLives(), 0);
  ExpectCountersMatchMetrics(cluster);
}

TEST(ClusterHealthTest, AnnouncedRestartDrainsWithoutDetectionLatency) {
  Simulation sim;
  ClusterDispatcher cluster(&sim, HealthClusterOptions(2),
                            [](int, WorkloadManager& m) {
                              DefineTestWorkloads(m);
                            });
  FaultPlan plan;
  FaultEvent restart;
  restart.kind = FaultKind::kShardRestart;
  restart.start = 2.0;
  restart.duration = 3.0;
  restart.shard = 0;
  plan.Add(restart);
  ASSERT_TRUE(cluster.ArmFaultPlan(plan).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.Submit(OltpSpec(static_cast<QueryId>(i + 1), 0.6)).ok());
  }
  sim.RunUntil(2.0 + 1e-9);
  // Announced: down at the window start, before any heartbeat silence.
  EXPECT_EQ(cluster.shard(0).lifecycle(), ShardLifecycle::kDown);
  sim.RunUntil(30.0);
  // Nothing was black-holed — the coordinated drain beat the crash.
  EXPECT_EQ(cluster.shard(0).blackholed(), 0);
  const int64_t completed_total =
      cluster.shard(0).wlm().event_log().CountOf(WlmEventType::kCompleted) +
      cluster.shard(1).wlm().event_log().CountOf(WlmEventType::kCompleted);
  EXPECT_EQ(completed_total, 8);
  // And the shard came back through warming.
  EXPECT_EQ(cluster.event_log().CountOf(WlmEventType::kShardRecovered), 1);
  EXPECT_NE(cluster.shard(0).lifecycle(), ShardLifecycle::kDown);
}

TEST(ClusterHealthTest, ArmFaultPlanRejectsBadPlans) {
  Simulation sim;
  ClusterDispatcher cluster(&sim, HealthClusterOptions(2),
                            [](int, WorkloadManager& m) {
                              DefineTestWorkloads(m);
                            });
  FaultPlan engine_kind;
  FaultEvent stall;
  stall.kind = FaultKind::kIoStall;
  stall.start = 1.0;
  stall.duration = 1.0;
  engine_kind.Add(stall);
  EXPECT_FALSE(cluster.ArmFaultPlan(engine_kind).ok());

  FaultPlan bad_shard;
  FaultEvent crash;
  crash.kind = FaultKind::kShardCrash;
  crash.start = 1.0;
  crash.duration = 1.0;
  crash.shard = 7;
  bad_shard.Add(crash);
  EXPECT_FALSE(cluster.ArmFaultPlan(bad_shard).ok());

  FaultPlan bad_window;
  crash.shard = 1;
  crash.duration = 0.0;
  bad_window.Add(crash);
  EXPECT_FALSE(cluster.ArmFaultPlan(bad_window).ok());
}

TEST(ClusterHealthTest, HealthMetricFamiliesExport) {
  Simulation sim;
  ClusterDispatcher cluster(&sim, HealthClusterOptions(2),
                            [](int, WorkloadManager& m) {
                              DefineTestWorkloads(m);
                            });
  sim.RunUntil(1.0);
  cluster.CrashShard(0);
  sim.RunUntil(10.0);
  std::ostringstream out;
  cluster.ExportMetrics(out);
  const std::string text = out.str();
  for (const char* family :
       {"wlm_cluster_health_state", "wlm_cluster_health_phi",
        "wlm_cluster_health_heartbeats_total",
        "wlm_cluster_health_heartbeats_dropped_total",
        "wlm_cluster_health_down_total", "wlm_cluster_health_drained_total",
        "wlm_cluster_health_lost_total", "wlm_cluster_health_blackholed_total",
        "wlm_cluster_hedge_started_total", "wlm_cluster_hedge_won_total",
        "wlm_cluster_hedge_cancelled_total"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
}

// ------------------------------------------------- determinism regressions

struct ClusterRunResult {
  std::string route_log;
  std::string metrics;
};

ClusterRunResult RunClusterScenario(PlacementPolicyKind kind, uint64_t seed) {
  Simulation sim;
  ClusterOptions options = TestClusterOptions(4);
  options.placement = kind;
  options.redispatch = true;
  ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
    DefineTestWorkloads(m);
  });
  WorkloadGenerator generator(seed);
  Rng arrivals(seed ^ 0x5a5a5a5aULL);
  OpenLoopDriver oltp(
      &sim, &arrivals, 20.0,
      [&generator] { return generator.NextOltp(OltpWorkloadConfig()); },
      [&cluster](QuerySpec spec) { (void)cluster.Submit(std::move(spec)); });
  OpenLoopDriver bi(
      &sim, &arrivals, 1.5,
      [&generator] { return generator.NextBi(BiWorkloadConfig()); },
      [&cluster](QuerySpec spec) { (void)cluster.Submit(std::move(spec)); });
  oltp.Start(6.0);
  bi.Start(6.0);
  sim.RunUntil(10.0);
  std::ostringstream metrics;
  cluster.ExportMetrics(metrics);
  return {cluster.FormatRouteLog(), metrics.str()};
}

class ClusterDeterminismSweep
    : public ::testing::TestWithParam<PlacementPolicyKind> {};

TEST_P(ClusterDeterminismSweep, SameSeedSameRoutesAndMetrics) {
  ClusterRunResult a = RunClusterScenario(GetParam(), 1234);
  ClusterRunResult b = RunClusterScenario(GetParam(), 1234);
  EXPECT_FALSE(a.route_log.empty());
  EXPECT_EQ(a.route_log, b.route_log);
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST_P(ClusterDeterminismSweep, DifferentSeedsDiverge) {
  ClusterRunResult a = RunClusterScenario(GetParam(), 1234);
  ClusterRunResult b = RunClusterScenario(GetParam(), 987654321);
  EXPECT_NE(a.route_log, b.route_log);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ClusterDeterminismSweep,
    ::testing::Values(PlacementPolicyKind::kRoundRobin,
                      PlacementPolicyKind::kLeastOutstanding,
                      PlacementPolicyKind::kEwmaLatency,
                      PlacementPolicyKind::kAffinity),
    [](const ::testing::TestParamInfo<PlacementPolicyKind>& info) {
      return std::string(PlacementPolicyKindToString(info.param));
    });

}  // namespace
}  // namespace wlm
