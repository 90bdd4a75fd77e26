// Golden scenario-replay regressions: a seeded end-to-end cluster run is
// serialized to canonical JSONL (arrivals, admissions, sheds, escalations,
// completions, routing decisions, summaries) and byte-compared against the
// checked-in goldens for the 1-shard and 4-shard configurations, and the
// 4-shard crash run's federated exposition and journey JSONL with it. A
// scripted single-node run pins the telemetry exporters' output the same way.
//
// When an intentional behavior change shifts the goldens, regenerate with
//   ./scenario_replay_test --regold
// and review the JSONL diff like any other code change (see README).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "execution/timeout_escalation.h"
#include "telemetry/exporters.h"
#include "tests/wlm_test_util.h"

namespace {

bool g_regold = false;

std::string GoldenPath(const std::string& name) {
  return std::string(WLM_GOLDEN_DIR) + "/" + name;
}

bool ReadFile(const std::string& path, std::string* content) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *content = ss.str();
  return true;
}

/// First differing line, for a reviewable failure message.
std::string FirstDiff(const std::string& got, const std::string& want) {
  std::istringstream got_stream(got), want_stream(want);
  std::string got_line, want_line;
  int line = 0;
  while (true) {
    ++line;
    const bool got_ok = static_cast<bool>(std::getline(got_stream, got_line));
    const bool want_ok =
        static_cast<bool>(std::getline(want_stream, want_line));
    if (!got_ok && !want_ok) return "files identical";
    if (got_line != want_line || got_ok != want_ok) {
      return "line " + std::to_string(line) + "\n  golden: " +
             (want_ok ? want_line : "<eof>") + "\n  run:    " +
             (got_ok ? got_line : "<eof>");
    }
  }
}

void CompareGolden(const std::string& got, const std::string& name) {
  ASSERT_FALSE(got.empty());
  const std::string path = GoldenPath(name);
  if (g_regold) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    SUCCEED() << "regenerated " << path;
    return;
  }
  std::string want;
  ASSERT_TRUE(ReadFile(path, &want))
      << "missing golden " << path << " — run `scenario_replay_test --regold`";
  EXPECT_EQ(got, want) << "scenario diverged from " << name << " at "
                       << FirstDiff(got, want);
}

void CheckGolden(const wlm::ScenarioOptions& options, const std::string& name) {
  CompareGolden(wlm::RunScenarioJsonl(options), name);
}

wlm::ScenarioOptions OneShard() {
  wlm::ScenarioOptions options;
  options.num_shards = 1;
  return options;
}

wlm::ScenarioOptions FourShards() {
  wlm::ScenarioOptions options;
  options.num_shards = 4;
  options.placement = wlm::PlacementPolicyKind::kLeastOutstanding;
  return options;
}

/// Four shards with the full failure stack on and shard 2 crashing
/// unannounced mid-run: the transcript pins down detection timing,
/// crash-drain routing causes and the recovery ramp.
wlm::ScenarioOptions FourShardsCrash() {
  wlm::ScenarioOptions options;
  options.num_shards = 4;
  options.placement = wlm::PlacementPolicyKind::kLeastOutstanding;
  options.health = true;
  wlm::FaultEvent crash;
  crash.kind = wlm::FaultKind::kShardCrash;
  crash.start = 4.0;
  crash.duration = 4.0;
  crash.shard = 2;
  options.shard_faults.Add(crash);
  // Deadline-carrying OLTP: hedged dispatch races the suspected shard
  // while the detector is between suspect and down.
  options.oltp_deadline_seconds = 5.0;
  return options;
}

TEST(ScenarioReplayTest, OneShardMatchesGolden) {
  CheckGolden(OneShard(), "scenario_1shard.jsonl");
}

TEST(ScenarioReplayTest, FourShardMatchesGolden) {
  CheckGolden(FourShards(), "scenario_4shard.jsonl");
}

TEST(ScenarioReplayTest, FourShardCrashMatchesGolden) {
  CheckGolden(FourShardsCrash(), "scenario_4shard_crash.jsonl");
}

TEST(ScenarioReplayTest, ReplayIsByteStable) {
  // Two in-process runs of the same seed must agree byte for byte —
  // catches nondeterminism without involving the checked-in goldens.
  EXPECT_EQ(wlm::RunScenarioJsonl(OneShard()), wlm::RunScenarioJsonl(OneShard()));
  EXPECT_EQ(wlm::RunScenarioJsonl(FourShards()),
            wlm::RunScenarioJsonl(FourShards()));
  EXPECT_EQ(wlm::RunScenarioJsonl(FourShardsCrash()),
            wlm::RunScenarioJsonl(FourShardsCrash()));
}

TEST(ScenarioReplayTest, FederatedSnapshotAndJourneysAreByteStable) {
  // The acceptance surface for cluster observability: two same-seed runs
  // of the 4-shard crash scenario export a byte-identical federated
  // Prometheus snapshot and journey JSONL.
  std::string prom_a, prom_b, journeys_a, journeys_b;
  const std::string run_a =
      wlm::RunScenarioJsonl(FourShardsCrash(), &prom_a, &journeys_a);
  const std::string run_b =
      wlm::RunScenarioJsonl(FourShardsCrash(), &prom_b, &journeys_b);
  EXPECT_EQ(run_a, run_b);
  ASSERT_FALSE(prom_a.empty());
  ASSERT_FALSE(journeys_a.empty());
  EXPECT_EQ(prom_a, prom_b);
  EXPECT_EQ(journeys_a, journeys_b);
  // Federated families actually materialized (not just dispatcher ones).
  EXPECT_NE(prom_a.find("wlm_cluster_requests_submitted_total"),
            std::string::npos);
  EXPECT_NE(prom_a.find("wlm_cluster_phase_seconds_total"),
            std::string::npos);
}

TEST(ScenarioReplayTest, FederatedSnapshotAndJourneysMatchGoldens) {
  // The same two exports pinned against checked-in files, so a change to
  // the dispatcher's routing state or the journey records is checked
  // against the bytes the previous code wrote, not only run against run.
  std::string prom, journeys;
  wlm::RunScenarioJsonl(FourShardsCrash(), &prom, &journeys);
  CompareGolden(prom, "scenario_4shard_crash_federated.prom");
  CompareGolden(journeys, "scenario_4shard_crash_journeys.jsonl");
}

TEST(ScenarioReplayTest, HedgedJourneyShowsBothLivesAndConservesPhases) {
  bool saw_hedge_edge = false;
  int checked_lives = 0;
  wlm::RunScenarioJsonl(
      FourShardsCrash(), nullptr, nullptr,
      [&](wlm::ClusterDispatcher& cluster) {
        cluster.StitchJourneys();
        for (const wlm::Journey& journey : cluster.journeys().journeys()) {
          for (const wlm::JourneyLife& life : journey.lives) {
            // DAG contract: parents strictly precede children.
            if (life.parent >= 0) {
              EXPECT_LT(life.parent, life.index);
            }
            if (life.cause == wlm::RouteCause::kHedge) {
              ASSERT_GE(life.parent, 0) << "hedge life without a primary";
              const wlm::JourneyLife& primary =
                  journey.lives[static_cast<size_t>(life.parent)];
              // Exactly one of the two linked lives completed; the other
              // was retired (cancelled, black-holed or refused).
              const bool primary_won = primary.outcome == "completed";
              const bool hedge_won = life.outcome == "completed";
              EXPECT_NE(primary_won, hedge_won)
                  << "hedge race must have one winner (primary="
                  << primary.outcome << " hedge=" << life.outcome << ")";
              if (primary_won) {
                // The loser was killed mid-run or never ran at all.
                EXPECT_TRUE(life.outcome == "hedge_cancelled" ||
                            life.outcome == "blackholed")
                    << life.outcome;
              }
              saw_hedge_edge = true;
            }
            // Per-life phase-sum conservation: each stitched life's
            // phase decomposition sums to that life's wall time.
            if (life.profile_wall_seconds >= 0.0 && !life.outcome.empty()) {
              EXPECT_NEAR(life.PhaseSum(), life.profile_wall_seconds, 1e-6)
                  << "journey " << journey.id << " life " << life.index;
              ++checked_lives;
            }
          }
        }
      });
  EXPECT_TRUE(saw_hedge_edge)
      << "the crash scenario no longer exercises hedged dispatch";
  EXPECT_GT(checked_lives, 100);
}

// ---------------------------------------------------------------------------
// Exporter goldens: one scripted single-node run with seeded background
// traffic, exported as a Chrome trace, event-log JSONL, a Prometheus
// exposition and the flight recorder's dumps. The script makes the facade
// record every kind of span, instant and event text it writes: admit,
// queue, resubmit and resumed execute spans; suspend flush and suspended
// wait; throttle, pause and lock wait; rejects, sheds and CoDel LIFO flips;
// fault begin, end, abort and retry; breaker, brownout, escalation and SLO
// violation.
// ---------------------------------------------------------------------------

struct ExporterOutputs {
  std::string chrome_trace;
  std::string events_jsonl;
  std::string prometheus;
  std::string flight_recorder;
};

ExporterOutputs RunExporterScenario() {
  using namespace wlm;
  EngineConfig engine = TestEngineConfig();
  engine.deadlock_check_period = 0.1;
  WlmConfig config;
  config.resubmit_deadlock_victims = false;
  config.resilience.enabled = true;
  config.overload.enabled = true;
  config.overload.codel.queue_capacity = 8;
  config.overload.codel.target_seconds = 0.5;
  config.overload.codel.interval_seconds = 0.5;
  config.overload.codel.lifo_after_sheds = 1;
  config.overload.deadline_shedding = false;
  config.overload.deadline_slack = 0.0;  // explicit deadlines only
  config.overload.breaker_options.window_seconds = 10.0;
  config.overload.breaker_options.min_samples = 4;
  config.overload.breaker_options.open_seconds = 2.0;
  config.overload.breaker_options.half_open_probes = 2;
  config.overload.breaker_options.close_rate = 0.0;
  config.overload.brownout_options.max_level = 1;  // sheds background only
  TestRig rig(engine, /*monitor_interval=*/0.25, config);
  WorkloadManager& wlm = rig.wlm;

  WorkloadDefinition bi;
  bi.name = "bi";
  bi.priority = BusinessPriority::kLow;
  bi.slos.push_back(ServiceLevelObjective::AvgResponse(0.5));
  wlm.DefineWorkload(bi);
  WorkloadDefinition oltp;
  oltp.name = "oltp";
  oltp.priority = BusinessPriority::kHigh;
  oltp.slos.push_back(ServiceLevelObjective::AvgResponse(0.5));
  wlm.DefineWorkload(oltp);
  auto classifier = std::make_unique<StaticClassifier>();
  ClassificationRule bi_rule;
  bi_rule.workload = "bi";
  bi_rule.kind = QueryKind::kBiQuery;
  classifier->AddRule(bi_rule);
  ClassificationRule oltp_rule;
  oltp_rule.workload = "oltp";
  oltp_rule.kind = QueryKind::kOltpTransaction;
  classifier->AddRule(oltp_rule);
  wlm.set_classifier(std::move(classifier));
  wlm.set_scheduler(std::make_unique<FifoScheduler>(/*mpl=*/10));
  wlm.AddAdmissionController(std::make_unique<RejectUtilities>());
  TimeoutEscalationController::Config ladder;
  ladder.per_workload["bi"].throttle_after_seconds = 1.5;
  ladder.per_workload["bi"].throttle_duty = 0.5;
  ladder.per_workload["bi"].kill_after_seconds = 4.0;
  wlm.AddExecutionController(
      std::make_unique<TimeoutEscalationController>(ladder));

  // Seeded background OLTP, with ids clear of the scripted ones.
  WorkloadGenerator generator(/*seed=*/7, /*first_id=*/1000);
  Rng arrivals(7);
  OpenLoopDriver background(
      &rig.sim, &arrivals, /*rate=*/4.0,
      [&generator] { return generator.NextOltp(OltpWorkloadConfig()); },
      [&wlm](QuerySpec spec) { (void)wlm.Submit(std::move(spec)); });
  background.Start(/*until=*/14.0);

  auto at = [&rig](double time, std::function<void()> fn) {
    rig.sim.Schedule(time, std::move(fn));
  };
  // Execution control on a long BI query and a long OLTP transaction, and
  // a utility the admission gate refuses.
  at(0.0, [&wlm] { (void)wlm.Submit(BiSpec(1, /*cpu=*/3.0, /*io=*/100.0)); });
  at(0.0, [&wlm] { (void)wlm.Submit(OltpSpec(2, /*cpu=*/2.0)); });
  at(0.0, [&wlm] {
    QuerySpec utility = OltpSpec(3);
    utility.kind = QueryKind::kUtility;
    (void)wlm.Submit(utility);
  });
  at(0.2, [&wlm] { (void)wlm.ThrottleRequest(1, 0.5); });
  at(0.3, [&wlm] { (void)wlm.PauseRequest(1, 0.1); });
  at(0.4, [&wlm] {
    (void)wlm.SetRequestPriority(1, BusinessPriority::kMedium);
  });
  at(0.5, [&wlm] { (void)wlm.KillRequest(2, /*resubmit=*/true); });
  at(0.6, [&wlm] { (void)wlm.SuspendRequest(1, SuspendStrategy::kDumpState); });
  // A lock-order cycle: the youngest member is the deadlock victim, and
  // the others record lock waits.
  at(0.0, [&wlm] {
    QuerySpec blocker = OltpSpec(20, /*cpu=*/0.3);
    blocker.locks = {{1, true}, {2, true}};
    QuerySpec a = OltpSpec(21, /*cpu=*/3.0);
    a.locks = {{1, true}, {2, true}};
    QuerySpec b = OltpSpec(22, /*cpu=*/3.0);
    b.locks = {{2, true}, {1, true}};
    (void)wlm.Submit(blocker);
    (void)wlm.Submit(a);
    (void)wlm.Submit(b);
  });
  // A fault window: one abort retries after backoff, one is denied
  // because its deadline is out of reach.
  at(1.0, [&wlm] { wlm.NotifyFaultBegin("cpu_slowdown", "factor=2"); });
  at(1.1, [&wlm] {
    (void)wlm.Submit(OltpSpec(10, /*cpu=*/1.0));
    QuerySpec doomed = OltpSpec(11, /*cpu=*/1.0);
    doomed.deadline_seconds = 0.3;
    (void)wlm.Submit(doomed);
  });
  at(1.2, [&wlm] {
    (void)wlm.AbortRequestByFault(10, "injected");
    (void)wlm.AbortRequestByFault(11, "injected");
  });
  at(2.0, [&wlm] { wlm.NotifyFaultEnd("cpu_slowdown", 1.0); });
  // Overload: missed deadlines trip the BI breaker and step the brownout
  // up; arrivals while it is open are shed; healthy probes after the
  // cool-down close it again.
  for (QueryId id = 30; id < 34; ++id) {
    at(3.0, [&wlm, id] {
      QuerySpec late = BiSpec(id, /*cpu=*/0.05, /*io=*/10.0);
      late.deadline_seconds = 0.001;
      (void)wlm.Submit(late);
    });
  }
  at(4.0, [&wlm] { (void)wlm.Submit(BiSpec(40, 0.05, 10.0)); });
  for (QueryId id = 41; id < 43; ++id) {
    at(6.0, [&wlm, id] { (void)wlm.Submit(BiSpec(id, 0.05, 10.0)); });
  }
  // A burst past the MPL: the backlog outlives the CoDel target, so CoDel
  // sheds and flips the queue to LIFO, and the last arrivals find the
  // queue full. The queue flips back once it drains.
  for (QueryId id = 60; id < 84; ++id) {
    at(8.0, [&wlm, id] { (void)wlm.Submit(OltpSpec(id, /*cpu=*/0.5)); });
  }
  // A long BI query climbs the escalation ladder to the kill rung.
  at(12.0, [&wlm] { (void)wlm.Submit(BiSpec(50, /*cpu=*/8.0, /*io=*/50.0)); });
  rig.sim.RunUntil(24.0);

  ExporterOutputs outputs;
  std::ostringstream trace, events, prometheus, recorder;
  WriteChromeTrace(wlm.telemetry().tracer(), trace);
  WriteEventLogJsonl(wlm.event_log(), events);
  WritePrometheus(wlm.telemetry().metrics(), prometheus);
  wlm.telemetry().flight_recorder().WriteJsonl(recorder);
  outputs.chrome_trace = trace.str();
  outputs.events_jsonl = events.str();
  outputs.prometheus = prometheus.str();
  outputs.flight_recorder = recorder.str();
  return outputs;
}

TEST(ScenarioReplayTest, ExportersMatchGoldens) {
  const ExporterOutputs outputs = RunExporterScenario();
  CompareGolden(outputs.chrome_trace, "exporters_chrome_trace.json");
  CompareGolden(outputs.events_jsonl, "exporters_event_log.jsonl");
  CompareGolden(outputs.prometheus, "exporters_metrics.txt");
  CompareGolden(outputs.flight_recorder, "exporters_flight_recorder.jsonl");
}

TEST(ScenarioReplayTest, SeedChangesTheTranscript) {
  wlm::ScenarioOptions reseeded = FourShards();
  reseeded.seed = 20260808;
  EXPECT_NE(wlm::RunScenarioJsonl(FourShards()), wlm::RunScenarioJsonl(reseeded));
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regold") {
      g_regold = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
