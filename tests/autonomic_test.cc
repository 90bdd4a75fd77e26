#include <gtest/gtest.h>

#include <memory>

#include "autonomic/mape.h"
#include "characterization/static_classifier.h"
#include "tests/wlm_test_util.h"
#include "workloads/generators.h"

namespace wlm {
namespace {

void SetupProtectedAndBatch(TestRig* rig, double oltp_target_seconds) {
  WorkloadDefinition oltp;
  oltp.name = "oltp";
  oltp.priority = BusinessPriority::kHigh;
  oltp.slos.push_back(
      ServiceLevelObjective::AvgResponse(oltp_target_seconds));
  rig->wlm.DefineWorkload(oltp);
  WorkloadDefinition batch;
  batch.name = "batch";
  batch.priority = BusinessPriority::kLow;
  rig->wlm.DefineWorkload(batch);
  auto classifier = std::make_unique<StaticClassifier>();
  ClassificationRule oltp_rule;
  oltp_rule.workload = "oltp";
  oltp_rule.kind = QueryKind::kOltpTransaction;
  ClassificationRule batch_rule;
  batch_rule.workload = "batch";
  batch_rule.kind = QueryKind::kBiQuery;
  classifier->AddRule(oltp_rule);
  classifier->AddRule(batch_rule);
  rig->wlm.set_classifier(std::move(classifier));
}

TEST(AutonomicAnalyzeTest, ReportsSloHealth) {
  TestRig rig;
  SetupProtectedAndBatch(&rig, 1.0);
  AutonomicController controller;
  // Feed observations by hand.
  TagStats& stats = rig.monitor.tag_stats("oltp");
  for (int i = 0; i < 10; ++i) {
    stats.response_times.Add(2.0);  // all missing the 1s target
    ++stats.completed;
  }
  auto health = controller.Analyze(rig.wlm);
  ASSERT_EQ(health.size(), 1u);  // only workloads with SLOs
  EXPECT_EQ(health[0].workload, "oltp");
  EXPECT_FALSE(health[0].all_met);
  EXPECT_LT(health[0].worst_attainment, 1.0);
}

TEST(AutonomicAnalyzeTest, InsufficientDataAssumedHealthy) {
  TestRig rig;
  SetupProtectedAndBatch(&rig, 1.0);
  AutonomicController controller;
  TagStats& stats = rig.monitor.tag_stats("oltp");
  stats.response_times.Add(100.0);
  stats.completed = 1;  // below min_observations
  auto health = controller.Analyze(rig.wlm);
  ASSERT_EQ(health.size(), 1u);
  EXPECT_TRUE(health[0].all_met);
}

TEST(AutonomicControllerTest, EscalatesAgainstBatchWhenOltpMisses) {
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 1;
  cfg.io_ops_per_second = 400.0;
  TestRig rig(cfg);
  SetupProtectedAndBatch(&rig, 0.05);
  auto controller = std::make_unique<AutonomicController>();
  AutonomicController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));

  // Two heavy batch queries grinding the machine.
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 60.0, 20000.0, 256.0)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 60.0, 20000.0, 256.0)).ok());
  // OLTP stream.
  WorkloadGenerator gen(7);
  OltpWorkloadConfig oltp;
  oltp.locks_per_txn = 0;
  OpenLoopDriver driver(
      &rig.sim, &gen.rng(), 20.0, [&] { return gen.NextOltp(oltp); },
      [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
  driver.Start(30.0);
  rig.sim.RunUntil(30.0);

  EXPECT_FALSE(raw->action_log().empty());
  bool throttled = false;
  for (const AutonomicAction& action : raw->action_log()) {
    throttled |= action.type == AutonomicAction::Type::kThrottle;
  }
  EXPECT_TRUE(throttled);
  // Batch victims are running at reduced duty (or were suspended).
  bool victim_restricted = false;
  for (const ExecutionProgress& p : rig.engine.Snapshot()) {
    const Request* r = rig.Find(p.id);
    if (r != nullptr && r->workload == "batch" && p.duty < 1.0) {
      victim_restricted = true;
    }
  }
  int64_t suspended = rig.wlm.counters("batch").suspended;
  EXPECT_TRUE(victim_restricted || suspended > 0);
  // Protected work keeps flowing.
  EXPECT_GT(rig.wlm.counters("oltp").completed, 200);
}

TEST(AutonomicControllerTest, RelaxesWhenGoalsMet) {
  TestRig rig;
  SetupProtectedAndBatch(&rig, 10.0);  // loose goal, easily met
  auto controller = std::make_unique<AutonomicController>();
  AutonomicController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));

  // A long batch query and a stream of OLTP meeting their loose goal.
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 30.0, 100.0, 32.0)).ok());
  // Manually throttle the batch query as if a previous escalation did it;
  // the loop should relax it since goals are met.
  ASSERT_TRUE(rig.wlm.ThrottleRequest(1, 0.1).ok());
  for (QueryId id = 100; id < 120; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(OltpSpec(id)).ok());
  }
  rig.sim.RunUntil(20.0);
  // The controller never saw a miss, so no throttle actions; and since it
  // did not create the duty, it leaves it alone (its own ledger is empty).
  for (const AutonomicAction& action : raw->action_log()) {
    EXPECT_NE(action.type, AutonomicAction::Type::kSuspend);
    EXPECT_NE(action.type, AutonomicAction::Type::kKillResubmit);
  }
}

TEST(AutonomicControllerTest, EscalationLadderReachesSuspend) {
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 1;
  TestRig rig(cfg);
  SetupProtectedAndBatch(&rig, 0.001);  // unreachable goal: keep escalating
  AutonomicController::Config config;
  config.throttle_factor = 0.3;  // saturate the throttle quickly
  config.min_duty = 0.1;
  auto controller = std::make_unique<AutonomicController>(config);
  AutonomicController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 60.0, 1000.0, 64.0)).ok());
  // A *continuing* protected stream: escalation only runs while the
  // protected workload has active work.
  WorkloadGenerator gen(11);
  OltpWorkloadConfig oltp_shape;
  oltp_shape.locks_per_txn = 0;
  OpenLoopDriver driver(
      &rig.sim, &gen.rng(), 20.0, [&] { return gen.NextOltp(oltp_shape); },
      [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
  driver.Start(30.0);
  rig.sim.RunUntil(30.0);
  bool suspended = false;
  for (const AutonomicAction& action : raw->action_log()) {
    suspended |= action.type == AutonomicAction::Type::kSuspend;
  }
  EXPECT_TRUE(suspended);
  EXPECT_GE(rig.wlm.counters("batch").suspended, 1);
}

TEST(AutonomicControllerTest, InfoClassifies) {
  AutonomicController controller;
  TechniqueInfo info = controller.info();
  EXPECT_EQ(info.technique_class, TechniqueClass::kExecutionControl);
  EXPECT_FALSE(info.description.empty());
}

}  // namespace
}  // namespace wlm
