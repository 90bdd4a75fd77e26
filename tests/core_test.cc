#include <gtest/gtest.h>

#include <memory>

#include <algorithm>

#include "admission/threshold_admission.h"
#include "characterization/static_classifier.h"
#include "core/request.h"
#include "telemetry/slo.h"
#include "core/taxonomy.h"
#include "core/workload_manager.h"
#include "scheduling/queue_schedulers.h"
#include "tests/wlm_test_util.h"

namespace wlm {
namespace {

// ------------------------------------------------------------- Request

TEST(RequestTest, PriorityShares) {
  EXPECT_GT(SharesForPriority(BusinessPriority::kHigh).cpu_weight,
            SharesForPriority(BusinessPriority::kLow).cpu_weight);
  EXPECT_GT(SharesForPriority(BusinessPriority::kCritical).io_weight,
            SharesForPriority(BusinessPriority::kHigh).io_weight);
}

TEST(RequestTest, ResponseAndQueueWait) {
  Request r;
  r.arrival_time = 10.0;
  r.dispatch_time = 12.0;
  r.finish_time = 20.0;
  EXPECT_DOUBLE_EQ(r.ResponseTime(), 10.0);
  EXPECT_DOUBLE_EQ(r.QueueWait(), 2.0);
}

TEST(RequestTest, VelocityIsOneWhenUndelayed) {
  Request r;
  r.arrival_time = 0.0;
  PlanOperator op;
  op.cpu_seconds = 2.0;
  op.io_ops = 0.0;
  r.plan.operators.push_back(op);
  r.finish_time = 2.0;  // exactly the standalone time at dop 1
  EXPECT_NEAR(r.Velocity(4, 1000.0), 1.0, 1e-9);
  r.finish_time = 8.0;  // 4x delay
  EXPECT_NEAR(r.Velocity(4, 1000.0), 0.25, 1e-9);
}

TEST(RequestTest, StateNames) {
  EXPECT_STREQ(RequestStateToString(RequestState::kQueued), "queued");
  EXPECT_STREQ(BusinessPriorityToString(BusinessPriority::kHigh), "high");
}

// ----------------------------------------------------------------- SLO

TEST(SloTest, AvgResponseEvaluation) {
  TagStats stats;
  stats.response_times.Add(1.0);
  stats.response_times.Add(3.0);
  auto slo = ServiceLevelObjective::AvgResponse(2.5);
  SloEvaluation eval = EvaluateSlo(slo, stats);
  EXPECT_TRUE(eval.met);
  EXPECT_DOUBLE_EQ(eval.actual, 2.0);
  EXPECT_GT(eval.attainment, 1.0);
}

TEST(SloTest, PercentileResponseEvaluation) {
  TagStats stats;
  for (int i = 1; i <= 100; ++i) stats.response_times.Add(i);
  auto slo = ServiceLevelObjective::PercentileResponse(90, 50.0);
  SloEvaluation eval = EvaluateSlo(slo, stats);
  EXPECT_FALSE(eval.met);  // p90 ~ 90 > 50
  EXPECT_GT(eval.actual, 85.0);
}

TEST(SloTest, ThroughputEvaluation) {
  TagStats stats;
  stats.last_interval_throughput = 12.0;
  auto slo = ServiceLevelObjective::MinThroughput(10.0);
  EXPECT_TRUE(EvaluateSlo(slo, stats).met);
  stats.last_interval_throughput = 8.0;
  EXPECT_FALSE(EvaluateSlo(slo, stats).met);
}

TEST(SloTest, VelocityEvaluation) {
  TagStats stats;
  stats.velocities.Add(0.9);
  stats.velocities.Add(0.7);
  auto slo = ServiceLevelObjective::MinVelocity(0.75);
  SloEvaluation eval = EvaluateSlo(slo, stats);
  EXPECT_TRUE(eval.met);
  EXPECT_NEAR(eval.actual, 0.8, 1e-9);
}

TEST(SloTest, EmptyStatsNotMet) {
  TagStats stats;
  EXPECT_FALSE(
      EvaluateSlo(ServiceLevelObjective::AvgResponse(1.0), stats).met);
}

TEST(SloTest, ToStringDescribes) {
  EXPECT_EQ(ServiceLevelObjective::PercentileResponse(95, 2.0).ToString(),
            "p95 response <= 2s");
  EXPECT_EQ(ServiceLevelObjective::MinVelocity(0.5).ToString(),
            "velocity >= 0.50");
}

// ------------------------------------------------------------ Taxonomy

TEST(TaxonomyTest, SubclassParents) {
  EXPECT_EQ(SubclassParent(TechniqueSubclass::kThrottling),
            TechniqueClass::kExecutionControl);
  EXPECT_EQ(SubclassParent(TechniqueSubclass::kQueueManagement),
            TechniqueClass::kScheduling);
  EXPECT_EQ(SubclassParent(TechniqueSubclass::kStaticCharacterization),
            TechniqueClass::kWorkloadCharacterization);
  EXPECT_EQ(SubclassParent(TechniqueSubclass::kPredictionBasedAdmission),
            TechniqueClass::kAdmissionControl);
}

TEST(TaxonomyTest, RegisterAndQuery) {
  TaxonomyRegistry registry;
  TechniqueInfo info;
  info.name = "Test technique";
  info.technique_class = TechniqueClass::kScheduling;
  info.subclass = TechniqueSubclass::kQueryRestructuring;
  registry.Register(info);
  registry.Register(info);  // duplicate ignored
  EXPECT_EQ(registry.techniques().size(), 1u);
  EXPECT_NE(registry.Find("Test technique"), nullptr);
  EXPECT_EQ(registry.InClass(TechniqueClass::kScheduling).size(), 1u);
  EXPECT_EQ(registry.InSubclass(TechniqueSubclass::kQueryRestructuring).size(),
            1u);
  EXPECT_TRUE(registry.InClass(TechniqueClass::kAdmissionControl).empty());
}

TEST(TaxonomyTest, TreeContainsAllClassesAndLeaf) {
  TaxonomyRegistry registry;
  TechniqueInfo info;
  info.name = "Leafy";
  info.technique_class = TechniqueClass::kExecutionControl;
  info.subclass = TechniqueSubclass::kSuspendResume;
  info.source = "somewhere";
  registry.Register(info);
  std::string tree = registry.RenderTree();
  EXPECT_NE(tree.find("Workload Characterization"), std::string::npos);
  EXPECT_NE(tree.find("Admission Control"), std::string::npos);
  EXPECT_NE(tree.find("Scheduling"), std::string::npos);
  EXPECT_NE(tree.find("Execution Control"), std::string::npos);
  EXPECT_NE(tree.find("Leafy"), std::string::npos);
  EXPECT_NE(tree.find("somewhere"), std::string::npos);
}

// ----------------------------------------------------- WorkloadManager

TEST(WorkloadManagerTest, SubmitRunsToCompletion) {
  TestRig rig;
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 1.0, 100.0, 32.0)).ok());
  rig.sim.RunUntil(60.0);
  const Request* r = rig.Find(1);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->state, RequestState::kCompleted);
  EXPECT_GT(r->finish_time, 0.0);
  EXPECT_EQ(r->workload, "default");
  EXPECT_EQ(rig.wlm.counters("default").completed, 1);
  EXPECT_EQ(rig.monitor.tag_stats("default").completed, 1);
}

TEST(WorkloadManagerTest, DuplicateIdRejected) {
  TestRig rig;
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1)).ok());
  EXPECT_EQ(rig.wlm.Submit(BiSpec(1)).code(), StatusCode::kAlreadyExists);
}

TEST(WorkloadManagerTest, ClassifierAssignsWorkloadAndShares) {
  TestRig rig;
  WorkloadDefinition oltp;
  oltp.name = "oltp";
  oltp.priority = BusinessPriority::kHigh;
  rig.wlm.DefineWorkload(oltp);
  auto classifier = std::make_unique<StaticClassifier>();
  ClassificationRule rule;
  rule.workload = "oltp";
  rule.application = "pos-system";
  classifier->AddRule(rule);
  rig.wlm.set_classifier(std::move(classifier));

  ASSERT_TRUE(rig.wlm.Submit(OltpSpec(1)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2)).ok());
  const Request* txn = rig.Find(1);
  const Request* bi = rig.Find(2);
  EXPECT_EQ(txn->workload, "oltp");
  EXPECT_EQ(txn->priority, BusinessPriority::kHigh);
  EXPECT_DOUBLE_EQ(txn->shares.cpu_weight,
                   SharesForPriority(BusinessPriority::kHigh).cpu_weight);
  EXPECT_EQ(bi->workload, "default");
}

TEST(WorkloadManagerTest, UnknownWorkloadFallsBackToDefault) {
  TestRig rig;
  auto classifier = std::make_unique<StaticClassifier>();
  classifier->AddCriteriaFunction(
      [](const Request&) { return std::optional<std::string>("nonexistent"); });
  rig.wlm.set_classifier(std::move(classifier));
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1)).ok());
  EXPECT_EQ(rig.Find(1)->workload, "default");
}

TEST(WorkloadManagerTest, SchedulerMplQueuesExcess) {
  TestRig rig;
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(/*mpl=*/2));
  for (QueryId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, 0.5, 100.0, 16.0)).ok());
  }
  EXPECT_EQ(rig.wlm.running_count(), 2u);
  EXPECT_EQ(rig.wlm.queue_depth(), 3u);
  rig.sim.RunUntil(60.0);
  EXPECT_EQ(rig.wlm.counters("default").completed, 5);
  // Never more than 2 concurrently: total time >= 3 serial batches.
  const Request* last = rig.Find(5);
  EXPECT_GT(last->QueueWait(), 0.0);
}

/// FIFO order under a fixed limit of one, counting the orderings asked for.
class CountingScheduler : public Scheduler {
 public:
  std::vector<QueryId> Order(const std::vector<const Request*>& queued,
                             const WorkloadManager&) override {
    ++order_calls;
    std::vector<QueryId> ids;
    for (const Request* r : queued) ids.push_back(r->spec.id);
    return ids;
  }
  int ConcurrencyLimit(const WorkloadManager&) override { return 1; }
  TechniqueInfo info() const override { return TechniqueInfo{}; }

  int order_calls = 0;
};

TEST(WorkloadManagerTest, OrderNotCalledWhileMplFull) {
  TestRig rig;
  auto scheduler = std::make_unique<CountingScheduler>();
  CountingScheduler* counting = scheduler.get();
  rig.wlm.set_scheduler(std::move(scheduler));
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 5.0, 100.0, 16.0)).ok());
  EXPECT_EQ(counting->order_calls, 1);  // the free slot: ordered, dispatched
  // While query 1 holds the only slot, neither arrivals nor monitor
  // samples order the queue.
  for (QueryId id = 2; id <= 4; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, 0.5, 100.0, 16.0)).ok());
  }
  rig.sim.RunUntil(2.0);
  EXPECT_EQ(rig.wlm.running_count(), 1u);
  EXPECT_EQ(rig.wlm.queue_depth(), 3u);
  EXPECT_EQ(counting->order_calls, 1);
  rig.sim.RunUntil(60.0);
  EXPECT_EQ(rig.wlm.counters("default").completed, 4);
  // One ordering per slot freed while requests waited (1, 2 and 3).
  EXPECT_EQ(counting->order_calls, 4);
}

TEST(WorkloadManagerTest, KillWithResubmitRequeues) {
  TestRig rig;
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 2.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(0.5);
  ASSERT_TRUE(rig.wlm.KillRequest(1, /*resubmit=*/true).ok());
  const Request* r = rig.Find(1);
  // Requeued; with free capacity it is immediately redispatched.
  EXPECT_FALSE(r->terminal());
  EXPECT_EQ(r->resubmits, 1);
  rig.sim.RunUntil(60.0);
  // Retired by now: read the copy the recorder took when it ended.
  EXPECT_EQ(rig.Find(1)->state, RequestState::kCompleted);
  EXPECT_EQ(rig.wlm.counters("default").resubmitted, 1);
}

TEST(WorkloadManagerTest, KillWithoutResubmitTerminal) {
  TestRig rig;
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 2.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(0.5);
  ASSERT_TRUE(rig.wlm.KillRequest(1, /*resubmit=*/false).ok());
  EXPECT_EQ(rig.Find(1)->state, RequestState::kKilled);
  EXPECT_EQ(rig.wlm.counters("default").killed, 1);
}

TEST(WorkloadManagerTest, ResubmitBudgetExhausts) {
  WlmConfig config;
  config.max_resubmits = 1;
  TestRig rig(TestEngineConfig(), 0.5, config);
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 50.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(0.2);
  ASSERT_TRUE(rig.wlm.KillRequest(1, true).ok());
  rig.sim.RunUntil(0.4);
  ASSERT_TRUE(rig.wlm.KillRequest(1, true).ok());  // budget exceeded
  EXPECT_EQ(rig.Find(1)->state, RequestState::kKilled);
}

TEST(WorkloadManagerTest, SuspendRequeuesAndResumes) {
  TestRig rig;
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 2.0, 500.0, 64.0)).ok());
  rig.sim.RunUntil(1.0);
  ASSERT_TRUE(rig.wlm.SuspendRequest(1, SuspendStrategy::kDumpState).ok());
  rig.sim.RunUntil(1.5);  // flush done; requeued; immediately redispatched
  rig.sim.RunUntil(60.0);
  const Request* r = rig.Find(1);
  EXPECT_EQ(r->state, RequestState::kCompleted);
  EXPECT_EQ(r->suspend_count, 1);
  EXPECT_EQ(rig.wlm.counters("default").suspended, 1);
  EXPECT_EQ(rig.engine.counters().resumes, 1u);
}

TEST(WorkloadManagerTest, CompletionListenerFires) {
  TestRig rig;
  int completions = 0;
  rig.wlm.AddCompletionListener([&](const Request& r) {
    if (r.state == RequestState::kCompleted) ++completions;
  });
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 0.2, 10.0, 4.0)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 0.2, 10.0, 4.0)).ok());
  rig.sim.RunUntil(30.0);
  EXPECT_EQ(completions, 2);
}

TEST(WorkloadManagerTest, PriorityChangePropagatesToEngine) {
  TestRig rig;
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 5.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(0.2);
  ASSERT_TRUE(
      rig.wlm.SetRequestPriority(1, BusinessPriority::kBackground).ok());
  auto progress = rig.engine.GetProgress(1);
  ASSERT_TRUE(progress.ok());
  EXPECT_DOUBLE_EQ(
      progress->shares.cpu_weight,
      SharesForPriority(BusinessPriority::kBackground).cpu_weight);
  EXPECT_EQ(rig.Find(1)->priority, BusinessPriority::kBackground);
}

TEST(WorkloadManagerTest, UnknownPriorityRejected) {
  TestRig rig;
  rig.wlm.set_scheduler(std::make_unique<PriorityScheduler>(/*mpl=*/1));
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 5.0, 100.0, 16.0)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 5.0, 100.0, 16.0)).ok());
  // Priorities index the dispatch levels: one outside the enum is refused
  // for a waiting and for a running request alike, changing nothing.
  for (QueryId id : {QueryId{1}, QueryId{2}}) {
    const Status status =
        rig.wlm.SetRequestPriority(id, static_cast<BusinessPriority>(9));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(rig.Find(id)->priority, BusinessPriority::kMedium);
  }
  EXPECT_EQ(rig.wlm.event_log().CountOf(WlmEventType::kReprioritized), 0);
}

TEST(WorkloadManagerTest, SetWorkloadSharesAppliesToRunningAndQueued) {
  TestRig rig;
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(1));
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 3.0, 100.0, 16.0)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 3.0, 100.0, 16.0)).ok());
  rig.wlm.SetWorkloadShares("default", {7.0, 7.0});
  auto progress = rig.engine.GetProgress(1);
  ASSERT_TRUE(progress.ok());
  EXPECT_DOUBLE_EQ(progress->shares.cpu_weight, 7.0);
  EXPECT_DOUBLE_EQ(rig.Find(2)->shares.cpu_weight, 7.0);
}

TEST(WorkloadManagerTest, EmployedTechniquesReflectConfiguration) {
  TestRig rig;
  rig.wlm.set_classifier(std::make_unique<StaticClassifier>());
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>());
  auto techniques = rig.wlm.EmployedTechniques();
  ASSERT_EQ(techniques.size(), 2u);
  EXPECT_EQ(techniques[0].technique_class,
            TechniqueClass::kWorkloadCharacterization);
  EXPECT_EQ(techniques[1].technique_class, TechniqueClass::kScheduling);

  TaxonomyRegistry registry;
  rig.wlm.RegisterTechniques(&registry);
  EXPECT_EQ(registry.techniques().size(), 2u);
}

TEST(WorkloadManagerTest, QueueWaitRecorded) {
  TestRig rig;
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(1));
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 1.0, 100.0, 16.0)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 1.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(60.0);
  const WorkloadCounters& counters = rig.wlm.counters("default");
  EXPECT_EQ(counters.queue_waits.count(), 2);
  EXPECT_GT(counters.queue_waits.max(), 0.5);
}

TEST(WorkloadManagerTest, DeadlockVictimResubmittedByDefault) {
  EngineConfig cfg = TestEngineConfig();
  cfg.deadlock_check_period = 0.1;
  TestRig rig(cfg);
  QuerySpec blocker = OltpSpec(1);
  blocker.cpu_seconds = 0.3;
  blocker.locks = {{1, true}, {2, true}};
  QuerySpec a = OltpSpec(2);
  a.cpu_seconds = 3.0;
  a.locks = {{1, true}, {2, true}};
  QuerySpec b = OltpSpec(3);
  b.cpu_seconds = 3.0;
  b.locks = {{2, true}, {1, true}};
  ASSERT_TRUE(rig.wlm.Submit(blocker).ok());
  ASSERT_TRUE(rig.wlm.Submit(a).ok());
  ASSERT_TRUE(rig.wlm.Submit(b).ok());
  rig.sim.RunUntil(120.0);
  EXPECT_EQ(rig.engine.counters().deadlock_aborts, 1u);
  // The victim was resubmitted and eventually completed.
  EXPECT_EQ(rig.Find(3)->state, RequestState::kCompleted);
  EXPECT_EQ(rig.wlm.counters("default").resubmitted, 1);
}

TEST(WorkloadManagerTest, AllRequestsInSubmissionOrder) {
  TestRig rig;
  for (QueryId id : {5, 3, 9}) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, 0.1, 10.0, 4.0)).ok());
  }
  auto all = rig.wlm.AllRequests();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->spec.id, 5u);
  EXPECT_EQ(all[1]->spec.id, 3u);
  EXPECT_EQ(all[2]->spec.id, 9u);
}

// ------------------------------------------------------------ EventLog

TEST(EventLogTest, AppendQueryAndFilter) {
  EventLog log(100);
  log.Append({1.0, WlmEventType::kSubmitted, 7, "oltp", ""});
  log.Append({2.0, WlmEventType::kDispatched, 7, "oltp", ""});
  log.Append({3.0, WlmEventType::kSubmitted, 8, "bi", ""});
  log.Append({4.0, WlmEventType::kCompleted, 7, "oltp", ""});
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.CountOf(WlmEventType::kSubmitted), 2);
  auto history = log.ForQuery(7);
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].type, WlmEventType::kSubmitted);
  EXPECT_EQ(history[2].type, WlmEventType::kCompleted);
  auto window = log.InWindow(2.0, 4.0);
  EXPECT_EQ(window.size(), 2u);
}

TEST(EventLogTest, BoundedRetentionKeepsCountingTotal) {
  EventLog log(3);
  for (int i = 0; i < 10; ++i) {
    log.Append({static_cast<double>(i), WlmEventType::kSubmitted,
                static_cast<QueryId>(i), "w", ""});
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_appended(), 10);
  EXPECT_DOUBLE_EQ(log.events().front().time, 7.0);  // oldest retained
}

TEST(EventLogTest, TypeNamesStable) {
  EXPECT_STREQ(WlmEventTypeToString(WlmEventType::kSuspended), "suspended");
  EXPECT_STREQ(WlmEventTypeToString(WlmEventType::kReprioritized),
               "reprioritized");
}

TEST(WorkloadManagerTest, EventLogRecordsLifecycle) {
  TestRig rig;
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 2.0, 500.0, 64.0)).ok());
  rig.sim.RunUntil(0.5);
  ASSERT_TRUE(rig.wlm.ThrottleRequest(1, 0.5).ok());
  ASSERT_TRUE(
      rig.wlm.SetRequestPriority(1, BusinessPriority::kLow).ok());
  ASSERT_TRUE(rig.wlm.SuspendRequest(1, SuspendStrategy::kDumpState).ok());
  rig.sim.RunUntil(60.0);
  const EventLog& log = rig.wlm.event_log();
  auto history = log.ForQuery(1);
  // submitted -> dispatched -> throttled -> reprioritized -> suspended ->
  // resumed -> completed
  std::vector<WlmEventType> types;
  for (const WlmEvent& e : history) types.push_back(e.type);
  EXPECT_EQ(types.front(), WlmEventType::kSubmitted);
  EXPECT_EQ(types.back(), WlmEventType::kCompleted);
  auto contains = [&](WlmEventType t) {
    return std::count(types.begin(), types.end(), t) > 0;
  };
  EXPECT_TRUE(contains(WlmEventType::kDispatched));
  EXPECT_TRUE(contains(WlmEventType::kThrottled));
  EXPECT_TRUE(contains(WlmEventType::kReprioritized));
  EXPECT_TRUE(contains(WlmEventType::kSuspended));
  EXPECT_TRUE(contains(WlmEventType::kResumed));
}

TEST(WorkloadManagerTest, EventLogRecordsRejection) {
  TestRig rig;
  QueryCostAdmission::Config config;
  config.max_timerons = 1.0;  // reject everything
  rig.wlm.AddAdmissionController(
      std::make_unique<QueryCostAdmission>(config));
  EXPECT_TRUE(rig.wlm.Submit(BiSpec(1)).IsRejected());
  EXPECT_EQ(rig.wlm.event_log().CountOf(WlmEventType::kRejected), 1);
  auto rejected = rig.wlm.event_log().OfType(WlmEventType::kRejected);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_FALSE(rejected[0].detail.empty());
}

}  // namespace
}  // namespace wlm
