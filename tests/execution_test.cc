#include <gtest/gtest.h>

#include <memory>

#include "characterization/static_classifier.h"
#include "execution/fuzzy_controller.h"
#include "execution/kill.h"
#include "execution/priority_aging.h"
#include "execution/progress_control.h"
#include "execution/reallocation.h"
#include "execution/suspend_resume.h"
#include "execution/throttling.h"
#include "scheduling/queue_schedulers.h"
#include "tests/wlm_test_util.h"
#include "workloads/generators.h"

namespace wlm {
namespace {

void DefineTwoWorkloads(TestRig* rig, const std::string& high_name = "oltp",
                        const std::string& low_name = "bi") {
  WorkloadDefinition high;
  high.name = high_name;
  high.priority = BusinessPriority::kHigh;
  rig->wlm.DefineWorkload(high);
  WorkloadDefinition low;
  low.name = low_name;
  low.priority = BusinessPriority::kLow;
  rig->wlm.DefineWorkload(low);
  auto classifier = std::make_unique<StaticClassifier>();
  ClassificationRule high_rule;
  high_rule.workload = high_name;
  high_rule.kind = QueryKind::kOltpTransaction;
  ClassificationRule low_rule;
  low_rule.workload = low_name;
  low_rule.kind = QueryKind::kBiQuery;
  ClassificationRule util_rule;
  util_rule.workload = low_name;
  util_rule.kind = QueryKind::kUtility;
  classifier->AddRule(high_rule);
  classifier->AddRule(low_rule);
  classifier->AddRule(util_rule);
  rig->wlm.set_classifier(std::move(classifier));
}

// ------------------------------------------------- PriorityAgingController

TEST(PriorityAgingTest, DemotesAfterElapsedThreshold) {
  TestRig rig;
  PriorityAgingController::Config config;
  config.elapsed_threshold_seconds = 1.0;
  config.repeat_every_seconds = 1.0;
  auto aging = std::make_unique<PriorityAgingController>(config);
  PriorityAgingController* raw = aging.get();
  rig.wlm.AddExecutionController(std::move(aging));

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 20.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(0.8);
  EXPECT_EQ(rig.Find(1)->priority, BusinessPriority::kMedium);
  rig.sim.RunUntil(1.6);  // past the threshold + one monitor sample
  EXPECT_LT(rig.Find(1)->priority, BusinessPriority::kMedium);
  rig.sim.RunUntil(5.0);  // repeated violations demote to the floor
  EXPECT_EQ(rig.Find(1)->priority, BusinessPriority::kBackground);
  EXPECT_GE(raw->demotions(), 2);
}

TEST(PriorityAgingTest, RowsThresholdTriggers) {
  TestRig rig;
  PriorityAgingController::Config config;
  config.elapsed_threshold_seconds = 1e9;  // never by time
  config.rows_threshold = 100;             // tiny: trips quickly
  rig.wlm.AddExecutionController(
      std::make_unique<PriorityAgingController>(config));
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 5.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(4.0);
  EXPECT_LT(rig.Find(1)->priority, BusinessPriority::kMedium);
}

TEST(PriorityAgingTest, WorkloadFilterExempts) {
  TestRig rig;
  DefineTwoWorkloads(&rig);
  PriorityAgingController::Config config;
  config.elapsed_threshold_seconds = 0.5;
  config.workloads = {"bi"};
  rig.wlm.AddExecutionController(
      std::make_unique<PriorityAgingController>(config));
  QuerySpec txn = OltpSpec(1);
  txn.cpu_seconds = 10.0;  // long but exempt
  ASSERT_TRUE(rig.wlm.Submit(txn).ok());
  rig.sim.RunUntil(3.0);
  EXPECT_EQ(rig.Find(1)->priority, BusinessPriority::kHigh);
}

TEST(PriorityAgingTest, DemotionShrinksEngineShares) {
  TestRig rig;
  PriorityAgingController::Config config;
  config.elapsed_threshold_seconds = 0.5;
  rig.wlm.AddExecutionController(
      std::make_unique<PriorityAgingController>(config));
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 20.0, 100.0, 16.0)).ok());
  auto before = rig.engine.GetProgress(1);
  rig.sim.RunUntil(2.0);
  auto after = rig.engine.GetProgress(1);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->shares.cpu_weight, before->shares.cpu_weight);
}

TEST(PriorityAgingTest, ReusedIdIsAgedAfresh) {
  TestRig rig;
  PriorityAgingController::Config config;
  config.elapsed_threshold_seconds = 1.0;
  config.repeat_every_seconds = 0.0;  // one demotion per request
  auto aging = std::make_unique<PriorityAgingController>(config);
  PriorityAgingController* raw = aging.get();
  rig.wlm.AddExecutionController(std::move(aging));

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 2.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(10.0);
  ASSERT_EQ(rig.wlm.Find(1), nullptr) << "the first request retired";
  EXPECT_LT(rig.Find(1)->priority, BusinessPriority::kMedium);
  ASSERT_EQ(raw->demotions(), 1);

  // A new request reusing the id runs past the threshold and is demoted
  // like any fresh request.
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 2.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(11.6);
  EXPECT_LT(rig.Find(1)->priority, BusinessPriority::kMedium);
  EXPECT_EQ(raw->demotions(), 2);
}

// --------------------------------------- EconomicReallocationController

TEST(EconomicReallocationTest, WealthShiftMovesShares) {
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 1;  // CPU contention so shares are visible in progress
  TestRig rig(cfg);
  DefineTwoWorkloads(&rig, "gold", "bronze");
  // Route by user instead of kind for this test.
  auto classifier = std::make_unique<StaticClassifier>();
  ClassificationRule gold;
  gold.workload = "gold";
  gold.user = "gold-user";
  ClassificationRule bronze;
  bronze.workload = "bronze";
  bronze.user = "bronze-user";
  classifier->AddRule(gold);
  classifier->AddRule(bronze);
  rig.wlm.set_classifier(std::move(classifier));

  EconomicReallocationController::Config config;
  config.participants = {{"gold", 4.0, 0.5, 0.5}, {"bronze", 1.0, 0.5, 0.5}};
  auto controller =
      std::make_unique<EconomicReallocationController>(config);
  EconomicReallocationController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));

  QuerySpec a = BiSpec(1, 30.0, 100.0, 16.0);
  a.session.user = "gold-user";
  QuerySpec b = BiSpec(2, 30.0, 100.0, 16.0);
  b.session.user = "bronze-user";
  ASSERT_TRUE(rig.wlm.Submit(a).ok());
  ASSERT_TRUE(rig.wlm.Submit(b).ok());
  rig.sim.RunUntil(1.0);

  EXPECT_NEAR(raw->LastAllocation("gold").cpu_share, 0.8, 1e-9);
  const ResourceShares* gold_group = rig.engine.FindGroupShares("gold");
  const ResourceShares* bronze_group = rig.engine.FindGroupShares("bronze");
  ASSERT_NE(gold_group, nullptr);
  ASSERT_NE(bronze_group, nullptr);
  EXPECT_GT(gold_group->cpu_weight, bronze_group->cpu_weight);

  // The workload-level share translates into faster progress.
  auto gold_progress = rig.engine.GetProgress(1);
  auto bronze_progress = rig.engine.GetProgress(2);
  ASSERT_TRUE(gold_progress.ok());
  ASSERT_TRUE(bronze_progress.ok());
  EXPECT_GT(gold_progress->cpu_used, bronze_progress->cpu_used);

  // Flip the importance at runtime: bronze becomes the VIP.
  ASSERT_TRUE(raw->SetWealth("bronze", 16.0).ok());
  rig.sim.RunUntil(2.0);
  gold_group = rig.engine.FindGroupShares("gold");
  bronze_group = rig.engine.FindGroupShares("bronze");
  ASSERT_NE(bronze_group, nullptr);
  EXPECT_GT(bronze_group->cpu_weight, gold_group->cpu_weight);
}

TEST(EconomicReallocationTest, SetWealthValidates) {
  EconomicReallocationController controller(
      {{{"a", 1.0, 0.5, 0.5}}, 10.0});
  EXPECT_EQ(controller.SetWealth("missing", 2.0).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(controller.SetWealth("a", -1.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(controller.SetWealth("a", 2.0).ok());
}

// ------------------------------------------------- QueryKillController

TEST(QueryKillTest, KillsOverAbsoluteLimit) {
  TestRig rig;
  QueryKillController::Config config;
  config.max_elapsed_seconds = 2.0;
  auto killer = std::make_unique<QueryKillController>(config);
  QueryKillController* raw = killer.get();
  rig.wlm.AddExecutionController(std::move(killer));
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 60.0, 100.0, 16.0)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 0.2, 10.0, 8.0)).ok());
  rig.sim.RunUntil(30.0);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kKilled);
  EXPECT_EQ(rig.Find(2)->state, RequestState::kCompleted);
  EXPECT_EQ(raw->kills(), 1);
}

TEST(QueryKillTest, OverrunFactorUsesEstimate) {
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 1;
  TestRig rig(cfg);
  QueryKillController::Config config;
  config.overrun_factor = 3.0;
  rig.wlm.AddExecutionController(
      std::make_unique<QueryKillController>(config));
  // Two equal 2s-cpu queries share 1 cpu -> each takes ~4s; a third makes
  // it ~6s > 3 * 2s estimate... keep one long and saturate with others.
  for (QueryId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, 2.0, 10.0, 8.0)).ok());
  }
  rig.sim.RunUntil(60.0);
  // With 5-way sharing each runs ~10s > 3*2s: at least one got killed.
  int64_t killed = rig.wlm.counters("default").killed;
  EXPECT_GE(killed, 1);
}

TEST(QueryKillTest, PriorityExemption) {
  TestRig rig;
  DefineTwoWorkloads(&rig);
  QueryKillController::Config config;
  config.max_elapsed_seconds = 1.0;
  config.max_victim_priority = BusinessPriority::kLow;
  rig.wlm.AddExecutionController(
      std::make_unique<QueryKillController>(config));
  QuerySpec protected_txn = OltpSpec(1);
  protected_txn.cpu_seconds = 10.0;
  ASSERT_TRUE(rig.wlm.Submit(protected_txn).ok());          // high pri
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 10.0, 10.0, 8.0)).ok());  // low pri
  rig.sim.RunUntil(30.0);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kCompleted);
  EXPECT_EQ(rig.Find(2)->state, RequestState::kKilled);
}

TEST(QueryKillTest, KillAndResubmitEventuallyCompletes) {
  TestRig rig;
  DefineTwoWorkloads(&rig);
  QueryKillController::Config config;
  config.max_elapsed_seconds = 3.0;
  config.resubmit = true;
  config.workloads = {"bi"};
  rig.wlm.AddExecutionController(
      std::make_unique<QueryKillController>(config));
  // Short enough to finish within the limit after resubmission when run
  // alone; killed while competing.
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 2.0, 2000.0, 900.0)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 2.0, 2000.0, 900.0)).ok());
  rig.sim.RunUntil(120.0);
  const Request* r1 = rig.Find(1);
  const Request* r2 = rig.Find(2);
  // Memory contention spills both -> slow -> at least one was killed and
  // resubmitted; with a resubmit budget both end terminal.
  EXPECT_TRUE(r1->terminal());
  EXPECT_TRUE(r2->terminal());
  EXPECT_GE(rig.wlm.counters("bi").resubmitted, 1);
}

// ------------------------------------------------ Suspend cost modeling

TEST(SuspendCostTest, DumpStateCostGrowsWithOperatorProgress) {
  // Pure cost-model check on a hand-built single-operator plan: the state
  // to persist grows linearly with the operator's progress.
  Plan plan;
  PlanOperator op;
  op.cpu_seconds = 10.0;
  op.io_ops = 0.0;
  op.max_state_mb = 100.0;
  op.checkpoint_fraction = 0.25;
  plan.operators.push_back(op);

  ExecutionProgress early;
  early.remaining_cpu = 8.0;  // 20% done
  ExecutionProgress late;
  late.remaining_cpu = 2.0;  // 80% done

  SuspendCostEstimate early_cost = EstimateSuspendCost(
      plan, early, SuspendStrategy::kDumpState, 10.0, 1000.0);
  SuspendCostEstimate late_cost = EstimateSuspendCost(
      plan, late, SuspendStrategy::kDumpState, 10.0, 1000.0);
  EXPECT_GT(late_cost.suspend_io, early_cost.suspend_io);
  // 80% of 100MB state + 0.5MB control at 10 ops/MB.
  EXPECT_NEAR(late_cost.suspend_io, (80.0 + 0.5) * 10.0, 1e-6);
  EXPECT_DOUBLE_EQ(late_cost.redo_cpu, 0.0);
}

TEST(SuspendCostTest, GoBackRedoBoundedByCheckpointInterval) {
  TestRig rig;
  QuerySpec spec = BiSpec(1, 4.0, 2000.0, 256.0);
  Plan plan = rig.engine.optimizer().BuildPlan(spec);
  ASSERT_TRUE(rig.engine.Dispatch(spec, {}).ok());
  rig.sim.RunUntil(2.0);
  auto progress = rig.engine.GetProgress(1);
  ASSERT_TRUE(progress.ok());
  SuspendCostEstimate goback = EstimateSuspendCost(
      plan, *progress, SuspendStrategy::kGoBack, 10.0, 1000.0);
  // Redo never exceeds one checkpoint interval of the current op's work.
  double max_redo_cpu = 0.0;
  for (const PlanOperator& op : plan.operators) {
    max_redo_cpu = std::max(max_redo_cpu,
                            op.checkpoint_fraction * op.cpu_seconds);
  }
  EXPECT_LE(goback.redo_cpu, max_redo_cpu + 1e-9);
  EXPECT_LT(goback.suspend_io, 10.0);  // control state only
}

TEST(SuspendCostTest, ChooserRespectsBudget) {
  TestRig rig;
  QuerySpec spec = BiSpec(1, 4.0, 2000.0, 512.0);
  Plan plan = rig.engine.optimizer().BuildPlan(spec);
  ASSERT_TRUE(rig.engine.Dispatch(spec, {}).ok());
  rig.sim.RunUntil(2.5);  // sizable in-memory state
  auto progress = rig.engine.GetProgress(1);
  ASSERT_TRUE(progress.ok());
  // Tight suspend budget forbids dumping the big state -> GoBack.
  EXPECT_EQ(ChooseSuspendStrategy(plan, *progress, 10.0, 1000.0,
                                  /*suspend_io_budget=*/20.0),
            SuspendStrategy::kGoBack);
  // Unlimited budget: DumpState wins when its total overhead is lower
  // than redoing work (depends on state size vs redo; just check it
  // returns a valid strategy deterministically).
  SuspendStrategy unlimited = ChooseSuspendStrategy(
      plan, *progress, 10.0, 1000.0,
      std::numeric_limits<double>::infinity());
  SuspendStrategy again = ChooseSuspendStrategy(
      plan, *progress, 10.0, 1000.0,
      std::numeric_limits<double>::infinity());
  EXPECT_EQ(unlimited, again);
}

// ------------------------------------------- SuspendResumeController

TEST(SuspendResumeControllerTest, SuspendsVictimWhenHighPriorityWaits) {
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 1;
  TestRig rig(cfg);
  DefineTwoWorkloads(&rig);
  rig.wlm.set_scheduler(std::make_unique<PriorityScheduler>(1));  // MPL 1
  SuspendResumeController::Config config;
  config.min_cpu_utilization = 0.1;
  auto controller = std::make_unique<SuspendResumeController>(config);
  SuspendResumeController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 10.0, 100.0, 64.0)).ok());  // victim
  rig.sim.RunUntil(1.0);
  QuerySpec vip = OltpSpec(2);
  vip.cpu_seconds = 0.3;
  ASSERT_TRUE(rig.wlm.Submit(vip).ok());  // queued behind (MPL 1)
  rig.sim.RunUntil(30.0);
  EXPECT_GE(raw->suspensions(), 1);
  const Request* victim = rig.Find(1);
  const Request* high = rig.Find(2);
  EXPECT_EQ(high->state, RequestState::kCompleted);
  EXPECT_EQ(victim->state, RequestState::kCompleted);  // resumed later
  EXPECT_GE(victim->suspend_count, 1);
  // The high-priority request did not wait for the whole 10s victim.
  EXPECT_LT(high->ResponseTime(), 5.0);
}

// ------------------------------------------- UtilityThrottleController

TEST(UtilityThrottleTest, ThrottlesUtilitiesWhenProductionDegrades) {
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 1;
  cfg.io_ops_per_second = 500.0;
  TestRig rig(cfg);
  DefineTwoWorkloads(&rig, "production", "utilities");

  UtilityThrottleController::Config config;
  config.production_workload = "production";
  config.utility_workload = "utilities";
  config.degradation_limit = 0.8;
  auto controller = std::make_unique<UtilityThrottleController>(config);
  UtilityThrottleController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));

  // A big online utility plus a stream of production transactions.
  WorkloadGenerator gen(19);
  UtilityWorkloadConfig utility;
  utility.cpu_seconds = 60.0;
  utility.io_ops = 20000.0;
  ASSERT_TRUE(rig.wlm.Submit(gen.NextUtility(utility)).ok());
  OltpWorkloadConfig oltp;
  oltp.locks_per_txn = 0;
  OpenLoopDriver driver(
      &rig.sim, &gen.rng(), 20.0, [&] { return gen.NextOltp(oltp); },
      [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
  driver.Start(40.0);
  rig.sim.RunUntil(40.0);
  EXPECT_GT(raw->throttle_level(), 0.2);  // PI engaged
  // Production keeps decent velocity despite the utility.
  EXPECT_GT(rig.monitor.tag_stats("production").velocities.mean(), 0.5);
}

// --------------------------------------------- QueryThrottleController

TEST(QueryThrottleTest, StepControllerProtectsOltpResponse) {
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 1;
  TestRig rig(cfg);
  DefineTwoWorkloads(&rig);

  QueryThrottleController::Config config;
  config.victim_workload = "bi";
  config.protected_workload = "oltp";
  // Tight enough (barely above the engine's tick quantum) that it is only
  // approachable when the BI hog is throttled out of the way.
  config.target_response_seconds = 0.012;
  auto controller = std::make_unique<QueryThrottleController>(config);
  QueryThrottleController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 60.0, 100.0, 16.0)).ok());
  WorkloadGenerator gen(23);
  OltpWorkloadConfig oltp;
  oltp.locks_per_txn = 0;
  OpenLoopDriver driver(
      &rig.sim, &gen.rng(), 10.0, [&] { return gen.NextOltp(oltp); },
      [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
  driver.Start(40.0);
  rig.sim.RunUntil(40.0);
  EXPECT_GT(raw->throttle_level(), 0.1);
  // The BI query is running at reduced duty.
  auto progress = rig.engine.GetProgress(1);
  if (progress.ok()) {
    EXPECT_LT(progress->duty, 1.0);
  }
}

TEST(QueryThrottleTest, InterruptMethodPausesVictimOnce) {
  TestRig rig;
  DefineTwoWorkloads(&rig);
  QueryThrottleController::Config config;
  config.victim_workload = "bi";
  config.protected_workload = "oltp";
  config.target_response_seconds = 0.001;  // impossible: max throttle
  config.method = QueryThrottleController::Method::kInterrupt;
  config.interrupt_horizon_seconds = 5.0;
  rig.wlm.AddExecutionController(
      std::make_unique<QueryThrottleController>(config));

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 5.0, 100.0, 16.0)).ok());
  // Produce protected-workload completions so the controller has signal.
  for (QueryId id = 10; id < 14; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(OltpSpec(id)).ok());
  }
  // First monitor sample (t=0.5) engages the controller; the single pause
  // is throttle * horizon = 0.2 * 5s, so the victim sleeps at t=1.
  rig.sim.RunUntil(1.0);
  auto progress = rig.engine.GetProgress(1);
  ASSERT_TRUE(progress.ok());
  EXPECT_TRUE(progress->sleeping);
}

TEST(QueryThrottleTest, ReusedIdIsPausedAfresh) {
  TestRig rig;
  DefineTwoWorkloads(&rig);
  QueryThrottleController::Config config;
  config.victim_workload = "bi";
  config.protected_workload = "oltp";
  config.target_response_seconds = 0.001;  // impossible: max throttle
  config.method = QueryThrottleController::Method::kInterrupt;
  config.interrupt_horizon_seconds = 5.0;
  rig.wlm.AddExecutionController(
      std::make_unique<QueryThrottleController>(config));

  // The victim runs beside protected-workload completions, which give the
  // controller its signal.
  auto run_victim = [&rig](QueryId first_oltp, double until) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 5.0, 100.0, 16.0)).ok());
    for (QueryId id = first_oltp; id < first_oltp + 4; ++id) {
      ASSERT_TRUE(rig.wlm.Submit(OltpSpec(id)).ok());
    }
    rig.sim.RunUntil(until);
  };
  run_victim(10, 30.0);
  ASSERT_EQ(rig.wlm.Find(1), nullptr) << "the first request retired";
  ASSERT_EQ(rig.wlm.event_log().CountOf(WlmEventType::kPaused), 1);
  // A new request reusing the id is paused once, like any fresh victim.
  run_victim(20, 60.0);
  EXPECT_EQ(rig.wlm.event_log().CountOf(WlmEventType::kPaused), 2);
}

// ------------------------------------------- FuzzyExecutionController

TEST(FuzzyInferenceTest, OnEstimateContinues) {
  FuzzyExecutionController controller;
  EXPECT_EQ(controller.Decide(1.0, 0.5, false), FuzzyAction::kContinue);
  EXPECT_EQ(controller.Decide(1.0, 0.5, true), FuzzyAction::kContinue);
}

TEST(FuzzyInferenceTest, ModerateOverrunLowPriorityEarlyDemotes) {
  FuzzyExecutionController controller;
  EXPECT_EQ(controller.Decide(3.0, 0.1, false),
            FuzzyAction::kReprioritize);
}

TEST(FuzzyInferenceTest, ModerateOverrunHighPriorityTolerated) {
  FuzzyExecutionController controller;
  EXPECT_EQ(controller.Decide(3.0, 0.1, true), FuzzyAction::kContinue);
}

TEST(FuzzyInferenceTest, HugeOverrunLowPriorityEarlyKilled) {
  FuzzyExecutionController controller;
  EXPECT_EQ(controller.Decide(10.0, 0.1, false),
            FuzzyAction::kKillResubmit);
}

TEST(FuzzyInferenceTest, HugeOverrunNearlyDoneSpared) {
  FuzzyExecutionController controller;
  EXPECT_EQ(controller.Decide(10.0, 0.95, false),
            FuzzyAction::kReprioritize);
}

TEST(FuzzyInferenceTest, HugeOverrunHighPriorityDemotedNotKilled) {
  FuzzyExecutionController controller;
  EXPECT_EQ(controller.Decide(10.0, 0.2, true), FuzzyAction::kReprioritize);
}

TEST(FuzzyMembershipTest, ShapesBehave) {
  EXPECT_DOUBLE_EQ(RampUp(0.0, 1.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(RampUp(3.0, 1.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(RampUp(1.5, 1.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(RampDown(1.5, 1.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(Triangular(2.0, 1.0, 2.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(Triangular(3.0, 1.0, 2.0, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(Triangular(0.5, 1.0, 2.0, 4.0), 0.0);
}

TEST(FuzzyControllerTest, KillsHopelessQueryInLoadedSystem) {
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 1;
  cfg.optimizer.error_sigma = 0.0;
  TestRig rig(cfg);
  DefineTwoWorkloads(&rig);
  FuzzyExecutionController::Config config;
  config.workloads = {"bi"};
  auto controller = std::make_unique<FuzzyExecutionController>(config);
  FuzzyExecutionController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));

  // Saturate the machine so the BI query overruns its estimate hugely.
  for (QueryId id = 10; id < 18; ++id) {
    QuerySpec hog = OltpSpec(id);
    hog.cpu_seconds = 20.0;
    ASSERT_TRUE(rig.wlm.Submit(hog).ok());
  }
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 1.0, 100.0, 8.0)).ok());
  rig.sim.RunUntil(60.0);
  EXPECT_GE(raw->resubmit_kills() + raw->reprioritizations(), 1);
}

TEST(FuzzyControllerTest, ReusedIdIsReprioritizedAfresh) {
  TestRig rig;
  FuzzyExecutionController::Config config;
  // Any query running a second is way over its estimate, and every query
  // counts as high priority, so the rule base demotes rather than kills.
  config.overrun_ok = 0.0;
  config.overrun_long = 0.001;
  config.overrun_huge = 0.002;
  config.high_priority_cut = BusinessPriority::kBackground;
  config.max_reprioritizations = 1;
  auto controller = std::make_unique<FuzzyExecutionController>(config);
  FuzzyExecutionController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 2.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(10.0);
  ASSERT_EQ(rig.wlm.Find(1), nullptr) << "the first request retired";
  EXPECT_EQ(rig.Find(1)->priority, BusinessPriority::kLow);
  ASSERT_EQ(raw->reprioritizations(), 1);

  // A new request reusing the id gets its own reprioritization budget.
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 2.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(11.6);
  EXPECT_EQ(rig.Find(1)->priority, BusinessPriority::kLow);
  EXPECT_EQ(raw->reprioritizations(), 2);
  EXPECT_EQ(raw->kills() + raw->resubmit_kills(), 0);
}

// ------------------------------------------- ProgressAwareController

TEST(ProgressAwareTest, SparesNearlyDoneThrottlesFarFromDone) {
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 2;
  TestRig rig(cfg);
  ProgressAwareController::Config config;
  config.remaining_budget_seconds = 3.0;
  config.kill_factor = 1e9;  // never kill in this test
  config.throttle_duty = 0.2;
  auto controller = std::make_unique<ProgressAwareController>(
      cfg.io_ops_per_second, config);
  ProgressAwareController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));

  // A long query (remaining >> budget) and a short one.
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 30.0, 100.0, 16.0)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 0.8, 50.0, 8.0)).ok());
  rig.sim.RunUntil(3.0);
  auto long_q = rig.engine.GetProgress(1);
  ASSERT_TRUE(long_q.ok());
  EXPECT_LT(long_q->duty, 1.0);  // throttled by remaining-time estimate
  EXPECT_GE(raw->throttled(), 1);
  // The short query was never throttled and completed.
  EXPECT_EQ(rig.Find(2)->state, RequestState::kCompleted);
}

TEST(ProgressAwareTest, KillsRunawaysByEstimate) {
  TestRig rig;
  ProgressAwareController::Config config;
  config.remaining_budget_seconds = 1.0;
  config.kill_factor = 2.0;  // kill when remaining > 2s
  auto controller = std::make_unique<ProgressAwareController>(
      TestEngineConfig().io_ops_per_second, config);
  ProgressAwareController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 100.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(10.0);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kKilled);
  EXPECT_EQ(raw->kills(), 1);
}

TEST(ProgressAwareTest, SpareFractionProtectsAlmostDone) {
  EngineConfig cfg = TestEngineConfig();
  TestRig rig(cfg);
  ProgressAwareController::Config config;
  config.remaining_budget_seconds = 0.1;  // aggressive
  config.kill_factor = 2.0;
  config.spare_fraction = 0.5;
  auto controller = std::make_unique<ProgressAwareController>(
      cfg.io_ops_per_second, config);
  rig.wlm.AddExecutionController(std::move(controller));
  // ~0.6s standalone query: by the first control sample (t=0.5) it is past
  // the 50% spare fraction, so the aggressive budget never touches it.
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 0.6, 50.0, 8.0)).ok());
  rig.sim.RunUntil(30.0);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kCompleted);
}

// ----------------------------------------------- SuspendedResumeGate

TEST(SuspendedResumeGateTest, HoldsSuspendedWhileHighPriorityBusy) {
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 1;
  TestRig rig(cfg);
  DefineTwoWorkloads(&rig);
  SuspendedResumeGate::Config gate_config;
  gate_config.min_cpu_utilization = 0.1;
  rig.wlm.AddAdmissionController(
      std::make_unique<SuspendedResumeGate>(gate_config));

  // Victim runs, gets suspended; a long high-priority query keeps the
  // engine busy.
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 5.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(0.5);
  QuerySpec vip = OltpSpec(2);
  vip.cpu_seconds = 6.0;
  ASSERT_TRUE(rig.wlm.Submit(vip).ok());
  ASSERT_TRUE(rig.wlm.SuspendRequest(1, SuspendStrategy::kGoBack).ok());
  rig.sim.RunUntil(3.0);
  // The victim is suspended-and-held while the vip runs.
  EXPECT_EQ(rig.Find(1)->state, RequestState::kSuspended);
  EXPECT_EQ(rig.Find(2)->state, RequestState::kRunning);
  // Once the vip completes (and its last-interval activity ages out), the
  // victim resumes and finishes.
  rig.sim.RunUntil(60.0);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kCompleted);
}

TEST(SuspendedResumeGateTest, NonSuspendedRequestsUnaffected) {
  TestRig rig;
  DefineTwoWorkloads(&rig);
  rig.wlm.AddAdmissionController(std::make_unique<SuspendedResumeGate>());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 0.5, 50.0, 8.0)).ok());
  EXPECT_EQ(rig.Find(1)->state, RequestState::kRunning);
}

}  // namespace
}  // namespace wlm
