// Edge-case and integration coverage across modules: paths the per-module
// suites don't reach (custom plans, dop > 1, suspend during lock wait,
// default interface methods, error paths, formatting corners).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "admission/threshold_admission.h"
#include "characterization/static_classifier.h"
#include "common/table_printer.h"
#include "core/workload_manager.h"
#include "execution/fuzzy_controller.h"
#include "scheduling/queue_schedulers.h"
#include "tests/wlm_test_util.h"
#include "workloads/generators.h"

namespace wlm {
namespace {

// ------------------------------------------------ engine: dop / custom plan

TEST(EngineDopTest, ParallelQueryUsesMultipleCpus) {
  Simulation sim;
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 4;
  DatabaseEngine engine(&sim, cfg);
  QuerySpec serial = BiSpec(1, 4.0, 1.0, 8.0);
  QuerySpec parallel = BiSpec(2, 4.0, 1.0, 8.0);
  parallel.dop = 4;
  double serial_finish = 0.0;
  double parallel_finish = 0.0;
  ExecutionContext sctx;
  sctx.on_finish = [&](const QueryOutcome& o) { serial_finish = o.finish_time; };
  ExecutionContext pctx;
  pctx.on_finish = [&](const QueryOutcome& o) {
    parallel_finish = o.finish_time;
  };
  ASSERT_TRUE(engine.Dispatch(serial, std::move(sctx)).ok());
  ASSERT_TRUE(engine.Dispatch(parallel, std::move(pctx)).ok());
  sim.RunUntil(60.0);
  // dop 4 on a 4-cpu box with one competitor: much faster than serial.
  EXPECT_LT(parallel_finish, serial_finish * 0.5);
  EXPECT_NEAR(serial_finish, 4.0, 0.5);
}

TEST(WlmCustomPlanTest, SubmitWithPlanExecutesProvidedOperators) {
  TestRig rig;
  QuerySpec spec = BiSpec(1, 100.0, 100.0, 8.0);  // spec says 100s cpu...
  Plan plan;
  plan.query_id = 1;
  PlanOperator op;
  op.cpu_seconds = 0.5;  // ...but the provided plan is small
  op.io_ops = 10.0;
  plan.operators.push_back(op);
  rig.engine.optimizer().AttachEstimates(spec, &plan);
  ASSERT_TRUE(rig.wlm.SubmitWithPlan(spec, plan).ok());
  rig.sim.RunUntil(30.0);
  const Request* r = rig.Find(1);
  EXPECT_EQ(r->state, RequestState::kCompleted);
  EXPECT_LT(r->ResponseTime(), 2.0);  // ran the small plan, not the spec
}

TEST(EngineSuspendTest, SuspendWhileWaitingOnLocksReleasesCleanly) {
  Simulation sim;
  DatabaseEngine engine(&sim, TestEngineConfig());
  // Blocker holds the key.
  QuerySpec blocker = OltpSpec(1);
  blocker.cpu_seconds = 50.0;
  blocker.locks = {{7, true}};
  ASSERT_TRUE(engine.Dispatch(blocker, {}).ok());
  sim.RunUntil(0.1);
  // Victim blocks on the same key, then is suspended mid-wait.
  QuerySpec victim = OltpSpec(2);
  victim.cpu_seconds = 1.0;
  victim.locks = {{7, true}};
  std::vector<OutcomeKind> kinds;
  ExecutionContext ctx;
  ctx.on_finish = [&](const QueryOutcome& o) { kinds.push_back(o.kind); };
  ASSERT_TRUE(engine.Dispatch(victim, ctx).ok());
  sim.RunUntil(0.3);
  auto progress = engine.GetProgress(2);
  ASSERT_TRUE(progress.ok());
  EXPECT_TRUE(progress->blocked_on_locks);
  ASSERT_TRUE(engine.Suspend(2, SuspendStrategy::kGoBack).ok());
  sim.RunUntil(5.0);
  ASSERT_EQ(kinds.size(), 1u);
  EXPECT_EQ(kinds[0], OutcomeKind::kSuspended);
  // The victim no longer waits on the lock.
  EXPECT_FALSE(engine.lock_manager().IsBlocked(2));
  // And can be resumed after the blocker finishes.
  ASSERT_TRUE(engine.Kill(1).ok());
  auto bundle = engine.TakeSuspended(2);
  ASSERT_TRUE(bundle.ok());
  ASSERT_TRUE(engine.Resume(*bundle, ctx).ok());
  sim.RunUntil(60.0);
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[1], OutcomeKind::kCompleted);
}

TEST(EngineErrorPathTest, ActionsOnUnknownIdsFail) {
  Simulation sim;
  DatabaseEngine engine(&sim, TestEngineConfig());
  EXPECT_EQ(engine.Kill(42).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.SetDuty(42, 0.5).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Pause(42, 1.0).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.GetProgress(42).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(engine.Dispatch(BiSpec(1), {}).ok());
  EXPECT_EQ(engine.Pause(1, -1.0).code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------- interfaces: default methods

class MinimalAdmission : public AdmissionController {
 public:
  TechniqueInfo info() const override { return TechniqueInfo{}; }
};

TEST(InterfaceDefaultsTest, AdmissionDefaultsAcceptEverything) {
  TestRig rig;
  rig.wlm.AddAdmissionController(std::make_unique<MinimalAdmission>());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 0.2, 10.0, 4.0)).ok());
  rig.sim.RunUntil(30.0);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kCompleted);
}

// --------------------------------------------------- classifier corners

TEST(StaticClassifierTest, EmptyRuleMatchesEverything) {
  TestRig rig;
  WorkloadDefinition all;
  all.name = "catch-all";
  rig.wlm.DefineWorkload(all);
  StaticClassifier classifier;
  ClassificationRule rule;
  rule.workload = "catch-all";
  classifier.AddRule(rule);
  Request r;
  r.spec = OltpSpec(1);
  r.plan = rig.engine.optimizer().BuildPlan(r.spec);
  EXPECT_EQ(classifier.Classify(r, rig.wlm), "catch-all");
}

// ----------------------------------------------------- fuzzy: filtering

TEST(FuzzyControllerTest, WorkloadFilterSkipsOthers) {
  TestRig rig;
  FuzzyExecutionController::Config config;
  config.workloads = {"nonexistent"};
  config.min_elapsed_seconds = 0.0;
  auto controller = std::make_unique<FuzzyExecutionController>(config);
  FuzzyExecutionController* raw = controller.get();
  rig.wlm.AddExecutionController(std::move(controller));
  // Hugely overrunning query in "default": filtered out, never touched.
  QuerySpec slow = BiSpec(1, 50.0, 100.0, 8.0);
  ASSERT_TRUE(rig.wlm.Submit(slow).ok());
  rig.sim.RunUntil(20.0);
  EXPECT_EQ(raw->kills(), 0);
  EXPECT_EQ(raw->resubmit_kills(), 0);
  EXPECT_EQ(raw->reprioritizations(), 0);
}

// ------------------------------------------------------ formatting corners

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter t({"A", "B", "C"});
  t.AddRow({"only-one"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

TEST(SparklineTest, ConstantSeriesRendersLow) {
  std::string s = Sparkline({5.0, 5.0, 5.0}, 3);
  EXPECT_EQ(s.size(), 3u);
  // Zero span: all at level 0.
  EXPECT_EQ(s, "   ");
}

TEST(RngCornerTest, WeightedIndexAllZeros) {
  Rng rng(1);
  EXPECT_EQ(rng.WeightedIndex({0.0, 0.0, 0.0}), 0u);
}

TEST(PercentilesCornerTest, ResetClearsEverything) {
  Percentiles p;
  p.Add(1.0);
  p.Add(2.0);
  p.Reset();
  EXPECT_EQ(p.count(), 0);
  EXPECT_DOUBLE_EQ(p.Percentile(50), 0.0);
  p.Add(5.0);
  EXPECT_DOUBLE_EQ(p.Percentile(50), 5.0);
}

// ------------------------------------------- monitor: on-demand series

TEST(MonitorCornerTest, FindSeriesNullBeforeFirstSample) {
  Simulation sim;
  DatabaseEngine engine(&sim, TestEngineConfig());
  Monitor monitor(&sim, &engine, 1.0);
  EXPECT_EQ(monitor.FindSeries("cpu_util"), nullptr);
  monitor.Start();
  sim.RunUntil(1.0);
  EXPECT_NE(monitor.FindSeries("cpu_util"), nullptr);
}

// ------------------------------------ scheduler: junk-id robustness

class JunkScheduler : public Scheduler {
 public:
  std::vector<QueryId> Order(const std::vector<const Request*>& queued,
                             const WorkloadManager&) override {
    std::vector<QueryId> ids{999999};  // junk first
    for (const Request* r : queued) ids.push_back(r->spec.id);
    return ids;
  }
  TechniqueInfo info() const override { return TechniqueInfo{}; }
};

class RepeatingScheduler : public Scheduler {
 public:
  std::vector<QueryId> Order(const std::vector<const Request*>& queued,
                             const WorkloadManager&) override {
    std::vector<QueryId> ids;
    for (const Request* r : queued) {
      ids.push_back(r->spec.id);
      ids.push_back(r->spec.id);  // every id listed twice
    }
    return ids;
  }
  TechniqueInfo info() const override { return TechniqueInfo{}; }
};

/// Holds every request in the queue until `open_at`.
class OpenAtGate : public AdmissionController {
 public:
  explicit OpenAtGate(double open_at) : open_at_(open_at) {}
  bool AllowDispatch(const Request&,
                     const WorkloadManager& manager) override {
    return manager.sim()->Now() >= open_at_;
  }
  TechniqueInfo info() const override { return TechniqueInfo{}; }

 private:
  double open_at_;
};

TEST(SchedulerRobustnessTest, JunkIdsIgnored) {
  TestRig rig;
  rig.wlm.set_scheduler(std::make_unique<JunkScheduler>());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 0.2, 10.0, 4.0)).ok());
  rig.sim.RunUntil(30.0);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kCompleted);

  // Repeated ids: the gate holds three requests so one round orders them
  // all; each is still dispatched exactly once.
  TestRig repeated;
  repeated.wlm.set_scheduler(std::make_unique<RepeatingScheduler>());
  repeated.wlm.AddAdmissionController(std::make_unique<OpenAtGate>(0.5));
  for (QueryId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(repeated.wlm.Submit(BiSpec(id, 0.2, 10.0, 4.0)).ok());
  }
  EXPECT_EQ(repeated.wlm.queue_depth(), 3u);
  repeated.sim.RunUntil(30.0);
  EXPECT_EQ(repeated.engine.counters().dispatched, 3u);
  for (QueryId id = 1; id <= 3; ++id) {
    EXPECT_EQ(repeated.Find(id)->state, RequestState::kCompleted);
    int dispatches = 0;
    for (const WlmEvent& event : repeated.wlm.event_log().ForQuery(id)) {
      dispatches += event.type == WlmEventType::kDispatched;
    }
    EXPECT_EQ(dispatches, 1) << "query " << id;
  }
}

// ---------------------------------- cost admission: rejected stays logged

TEST(WlmRejectionTest, RejectedRequestRetiredAfterListeners) {
  TestRig rig;
  QueryCostAdmission::Config config;
  config.max_timerons = 0.001;
  rig.wlm.AddAdmissionController(
      std::make_unique<QueryCostAdmission>(config));
  std::vector<RequestState> seen;
  bool live_in_listener = false;
  rig.wlm.AddCompletionListener([&](const Request& r) {
    seen.push_back(r.state);
    live_in_listener = rig.wlm.Find(r.spec.id) == &r;
  });
  EXPECT_TRUE(rig.wlm.Submit(BiSpec(1)).IsRejected());
  // The listener saw the rejection while the request was still live...
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], RequestState::kRejected);
  EXPECT_TRUE(live_in_listener);
  // ...and the manager retired it before Submit returned.
  EXPECT_EQ(rig.wlm.Find(1), nullptr);
  EXPECT_TRUE(rig.wlm.AllRequests().empty());
  rig.sim.RunUntil(10.0);
  EXPECT_EQ(rig.wlm.queue_depth(), 0u);
  EXPECT_EQ(rig.wlm.running_count(), 0u);
  // A retired id is free: submitting it again is judged afresh.
  EXPECT_TRUE(rig.wlm.Submit(BiSpec(1)).IsRejected());
  EXPECT_EQ(seen.size(), 2u);
}

}  // namespace
}  // namespace wlm
