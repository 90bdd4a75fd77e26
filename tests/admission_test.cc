#include <gtest/gtest.h>

#include <memory>

#include "admission/operating_periods.h"
#include "admission/prediction_admission.h"
#include "admission/threshold_admission.h"
#include "characterization/static_classifier.h"
#include "tests/wlm_test_util.h"
#include "workloads/generators.h"

namespace wlm {
namespace {

// -------------------------------------------------- QueryCostAdmission

TEST(QueryCostAdmissionTest, RejectsOverThreshold) {
  TestRig rig;
  QueryCostAdmission::Config config;
  config.max_timerons = 2000.0;
  rig.wlm.AddAdmissionController(
      std::make_unique<QueryCostAdmission>(config));

  // Small query: cpu 0.1s ~ 100 timerons + io.
  EXPECT_TRUE(rig.wlm.Submit(BiSpec(1, 0.1, 50.0, 8.0)).ok());
  // Huge query: far over the threshold.
  Status status = rig.wlm.Submit(BiSpec(2, 100.0, 50000.0, 512.0));
  EXPECT_TRUE(status.IsRejected());
  const Request* rejected = rig.Find(2);
  EXPECT_EQ(rejected->state, RequestState::kRejected);
  EXPECT_FALSE(rejected->reject_reason.empty());
  EXPECT_EQ(rig.wlm.counters("default").rejected, 1);
}

TEST(QueryCostAdmissionTest, PerWorkloadThresholdOverrides) {
  TestRig rig;
  WorkloadDefinition bi;
  bi.name = "bi";
  rig.wlm.DefineWorkload(bi);
  auto classifier = std::make_unique<StaticClassifier>();
  ClassificationRule rule;
  rule.workload = "bi";
  rule.kind = QueryKind::kBiQuery;
  classifier->AddRule(rule);
  rig.wlm.set_classifier(std::move(classifier));

  QueryCostAdmission::Config config;
  config.max_timerons = 100.0;                    // strict default
  config.per_workload_timerons["bi"] = 1e9;       // generous for BI
  rig.wlm.AddAdmissionController(
      std::make_unique<QueryCostAdmission>(config));
  EXPECT_TRUE(rig.wlm.Submit(BiSpec(1, 10.0, 5000.0)).ok());
  EXPECT_TRUE(rig.wlm.Submit(OltpSpec(2)).ok());  // tiny, under 100
}

TEST(QueryCostAdmissionTest, QueueUntilOffPeakWindow) {
  TestRig rig;
  QueryCostAdmission::Config config;
  config.max_timerons = 2000.0;
  config.queue_instead_of_reject = true;
  config.offpeak_start = 100.0;  // "night" begins at t=100 in this test
  config.offpeak_end = 200.0;
  config.day_length = 200.0;
  rig.wlm.AddAdmissionController(
      std::make_unique<QueryCostAdmission>(config));

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 50.0, 20000.0, 256.0)).ok());
  EXPECT_EQ(rig.Find(1)->state, RequestState::kQueued);
  rig.sim.RunUntil(50.0);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kQueued);  // still peak
  rig.sim.RunUntil(101.0);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kRunning);  // off-peak
  EXPECT_GT(rig.Find(1)->QueueWait(), 99.0);
}

TEST(QueryCostAdmissionTest, EstimatedSecondsLimit) {
  TestRig rig;
  QueryCostAdmission::Config config;
  config.max_est_seconds = 5.0;  // SQL Server query governor style
  rig.wlm.AddAdmissionController(
      std::make_unique<QueryCostAdmission>(config));
  EXPECT_TRUE(rig.wlm.Submit(BiSpec(1, 1.0, 500.0)).ok());
  EXPECT_TRUE(rig.wlm.Submit(BiSpec(2, 60.0, 30000.0)).IsRejected());
}

// -------------------------------------------------------- MplAdmission

TEST(MplAdmissionTest, GlobalCapHoldsExcess) {
  TestRig rig;
  MplAdmission::Config config;
  config.max_mpl = 2;
  rig.wlm.AddAdmissionController(std::make_unique<MplAdmission>(config));
  for (QueryId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, 0.5, 100.0, 16.0)).ok());
  }
  EXPECT_EQ(rig.wlm.running_count(), 2u);
  EXPECT_EQ(rig.wlm.queue_depth(), 2u);
  rig.sim.RunUntil(60.0);
  EXPECT_EQ(rig.wlm.counters("default").completed, 4);
}

TEST(MplAdmissionTest, PerWorkloadCap) {
  TestRig rig;
  WorkloadDefinition bi;
  bi.name = "bi";
  rig.wlm.DefineWorkload(bi);
  auto classifier = std::make_unique<StaticClassifier>();
  ClassificationRule rule;
  rule.workload = "bi";
  rule.kind = QueryKind::kBiQuery;
  classifier->AddRule(rule);
  rig.wlm.set_classifier(std::move(classifier));

  MplAdmission::Config config;
  config.per_workload_mpl["bi"] = 1;
  rig.wlm.AddAdmissionController(std::make_unique<MplAdmission>(config));

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 1.0, 100.0, 16.0)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 1.0, 100.0, 16.0)).ok());
  ASSERT_TRUE(rig.wlm.Submit(OltpSpec(3)).ok());  // different workload: runs
  EXPECT_EQ(rig.wlm.RunningInWorkload("bi"), 1);
  EXPECT_EQ(rig.wlm.RunningInWorkload("default"), 1);
  EXPECT_EQ(rig.wlm.QueuedInWorkload("bi"), 1);
}

// ---------------------------------------------- ConflictRatioAdmission

TEST(ConflictRatioAdmissionTest, HoldsWhileContended) {
  TestRig rig;
  rig.wlm.AddAdmissionController(
      std::make_unique<ConflictRatioAdmission>(1.3));

  // Build heavy lock contention directly in the engine: one holder, many
  // blocked transactions each holding another lock.
  LockManager& lm = rig.engine.lock_manager();
  (void)lm.Acquire(100, 1, LockMode::kExclusive);
  for (TxnId t = 101; t <= 110; ++t) {
    (void)lm.Acquire(t, t * 10, LockMode::kExclusive);  // held lock
    (void)lm.Acquire(t, 1, LockMode::kExclusive);       // blocks
  }
  ASSERT_GT(rig.engine.ConflictRatio(), 1.3);

  ASSERT_TRUE(rig.wlm.Submit(OltpSpec(1)).ok());
  EXPECT_EQ(rig.Find(1)->state, RequestState::kQueued);

  // Contention clears -> admitted at the next pump.
  for (TxnId t = 100; t <= 110; ++t) lm.ReleaseAll(t);
  rig.sim.RunUntil(1.0);
  EXPECT_NE(rig.Find(1)->state, RequestState::kQueued);
}

// ----------------------------------------- ThroughputFeedbackAdmission

TEST(ThroughputFeedbackTest, MplAdaptsUpUnderRisingThroughput) {
  TestRig rig;
  ThroughputFeedbackAdmission::Config config;
  config.initial_mpl = 2;
  auto admission = std::make_unique<ThroughputFeedbackAdmission>(config);
  ThroughputFeedbackAdmission* raw = admission.get();
  rig.wlm.AddAdmissionController(std::move(admission));

  // Steady stream of cheap queries: throughput rises as MPL rises.
  WorkloadGenerator gen(7);
  OltpWorkloadConfig oltp;
  oltp.locks_per_txn = 0;
  OpenLoopDriver driver(
      &rig.sim, &gen.rng(), 40.0, [&] { return gen.NextOltp(oltp); },
      [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
  driver.Start(30.0);
  rig.sim.RunUntil(30.0);
  EXPECT_GT(raw->current_mpl(), 2);
  EXPECT_GT(rig.wlm.counters("default").completed, 100);
}

// ---------------------------------------------------- IndicatorAdmission

TEST(IndicatorAdmissionTest, GatesLowPriorityDuringCongestion) {
  TestRig rig;
  WorkloadDefinition low;
  low.name = "low";
  low.priority = BusinessPriority::kLow;
  rig.wlm.DefineWorkload(low);
  WorkloadDefinition high;
  high.name = "high";
  high.priority = BusinessPriority::kHigh;
  rig.wlm.DefineWorkload(high);
  auto classifier = std::make_unique<StaticClassifier>();
  ClassificationRule low_rule;
  low_rule.workload = "low";
  low_rule.kind = QueryKind::kBiQuery;
  ClassificationRule high_rule;
  high_rule.workload = "high";
  high_rule.kind = QueryKind::kOltpTransaction;
  classifier->AddRule(low_rule);
  classifier->AddRule(high_rule);
  rig.wlm.set_classifier(std::move(classifier));

  IndicatorAdmission::Config config;
  config.max_cpu_utilization = 0.8;
  config.gated_priority = BusinessPriority::kLow;
  rig.wlm.AddAdmissionController(
      std::make_unique<IndicatorAdmission>(config));

  // Saturate the CPU with big default-workload queries (not gated).
  for (QueryId id = 100; id < 104; ++id) {
    QuerySpec hog = BiSpec(id, 60.0, 10.0, 8.0);
    hog.kind = QueryKind::kUtility;  // classified into default
    ASSERT_TRUE(rig.wlm.Submit(hog).ok());
  }
  rig.sim.RunUntil(2.0);  // let the monitor observe high utilization

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 0.5, 10.0, 8.0)).ok());   // low pri
  ASSERT_TRUE(rig.wlm.Submit(OltpSpec(2)).ok());                  // high pri
  rig.sim.RunUntil(3.0);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kQueued);  // gated
  EXPECT_NE(rig.Find(2)->state, RequestState::kQueued);  // passed

  // Kill the hogs; congestion clears; the low-priority request proceeds.
  for (QueryId id = 100; id < 104; ++id) (void)rig.wlm.KillRequest(id, false);
  rig.sim.RunUntil(6.0);
  EXPECT_NE(rig.Find(1)->state, RequestState::kQueued);
}

// --------------------------------------------------------- PqrAdmission

TEST(PqrAdmissionTest, BucketBoundaries) {
  PqrAdmission pqr;
  EXPECT_EQ(pqr.BucketFor(0.5), 0);
  EXPECT_EQ(pqr.BucketFor(5.0), 1);
  EXPECT_EQ(pqr.BucketFor(50.0), 2);
  EXPECT_EQ(pqr.BucketFor(500.0), 3);
  EXPECT_EQ(pqr.num_buckets(), 4);
}

TEST(PqrAdmissionTest, FailsOpenUntilTrained) {
  TestRig rig;
  rig.wlm.AddAdmissionController(std::make_unique<PqrAdmission>());
  EXPECT_TRUE(rig.wlm.Submit(BiSpec(1, 500.0, 1e6, 64.0)).ok());
}

TEST(PqrAdmissionTest, LearnsToRejectLongRunners) {
  EngineConfig cfg = TestEngineConfig();
  cfg.optimizer.error_sigma = 0.3;  // realistic misestimation
  TestRig rig(cfg);

  PqrAdmission::Config config;
  config.bucket_bounds = {1.0, 10.0, 100.0};
  config.reject_bucket = 2;  // anything predicted >= 10s
  auto pqr = std::make_unique<PqrAdmission>(config);

  // Train on history: standalone elapsed approximates observed behaviour.
  WorkloadGenerator gen(11);
  OltpWorkloadConfig oltp;
  BiWorkloadConfig bi;
  bi.cpu_mu = 3.0;  // long analytics: median ~20s cpu
  for (int i = 0; i < 150; ++i) {
    QuerySpec fast = gen.NextOltp(oltp);
    Plan fast_plan = rig.engine.optimizer().BuildPlan(fast);
    pqr->AddExample(fast, fast_plan,
                    fast_plan.StandaloneSeconds(1, 1000.0));
    QuerySpec slow = gen.NextBi(bi);
    Plan slow_plan = rig.engine.optimizer().BuildPlan(slow);
    pqr->AddExample(slow, slow_plan,
                    slow_plan.StandaloneSeconds(1, 1000.0));
  }
  ASSERT_TRUE(pqr->Train().ok());
  PqrAdmission* raw = pqr.get();
  rig.wlm.AddAdmissionController(std::move(pqr));

  int long_rejected = 0;
  int short_rejected = 0;
  for (int i = 0; i < 25; ++i) {
    if (rig.wlm.Submit(gen.NextOltp(oltp)).IsRejected()) ++short_rejected;
    if (rig.wlm.Submit(gen.NextBi(bi)).IsRejected()) ++long_rejected;
  }
  // Most analytics queries are predicted long; the lognormal tail also
  // legitimately produces some short BI queries that pass.
  EXPECT_GE(long_rejected, 15);
  EXPECT_LE(short_rejected, 2);  // transactions pass
  EXPECT_EQ(raw->rejected_count(), long_rejected + short_rejected);
}

// -------------------------------------------------- SimilarityAdmission

TEST(SimilarityAdmissionTest, PredictsElapsedFromNeighbours) {
  TestRig rig;
  SimilarityAdmission knn;
  WorkloadGenerator gen(13);
  BiWorkloadConfig bi;
  for (int i = 0; i < 200; ++i) {
    QuerySpec spec = gen.NextBi(bi);
    Plan plan = rig.engine.optimizer().BuildPlan(spec);
    knn.AddExample(spec, plan, plan.StandaloneSeconds(1, 1000.0));
  }
  ASSERT_TRUE(knn.Train().ok());
  // Prediction should be within 2x of truth for most queries.
  int within = 0;
  for (int i = 0; i < 30; ++i) {
    QuerySpec spec = gen.NextBi(bi);
    Plan plan = rig.engine.optimizer().BuildPlan(spec);
    double truth = plan.StandaloneSeconds(1, 1000.0);
    auto predicted = knn.PredictElapsed(spec, plan);
    ASSERT_TRUE(predicted.ok());
    if (*predicted > truth / 2.0 && *predicted < truth * 2.0) ++within;
  }
  EXPECT_GE(within, 24);
}

TEST(SimilarityAdmissionTest, RejectsPredictedLongRunners) {
  TestRig rig;
  SimilarityAdmission::Config config;
  config.max_predicted_seconds = 10.0;
  auto knn = std::make_unique<SimilarityAdmission>(config);
  WorkloadGenerator gen(17);
  BiWorkloadConfig bi;
  OltpWorkloadConfig oltp;
  for (int i = 0; i < 100; ++i) {
    QuerySpec slow = gen.NextBi(bi);
    Plan slow_plan = rig.engine.optimizer().BuildPlan(slow);
    knn->AddExample(slow, slow_plan, slow_plan.StandaloneSeconds(1, 1000.0));
    QuerySpec fast = gen.NextOltp(oltp);
    Plan fast_plan = rig.engine.optimizer().BuildPlan(fast);
    knn->AddExample(fast, fast_plan, fast_plan.StandaloneSeconds(1, 1000.0));
  }
  ASSERT_TRUE(knn->Train().ok());
  rig.wlm.AddAdmissionController(std::move(knn));

  EXPECT_TRUE(rig.wlm.Submit(gen.NextOltp(oltp)).ok());
  QuerySpec monster = gen.NextBi(bi);
  monster.cpu_seconds = 200.0;
  monster.io_ops = 100000.0;
  EXPECT_TRUE(rig.wlm.Submit(monster).IsRejected());
}

// ---------------------------------------------- OperatingPeriodAdmission

OperatingPeriodAdmission::Config DayNightConfig() {
  OperatingPeriodAdmission::Config config;
  config.day_length = 200.0;
  OperatingPeriodAdmission::Period day;
  day.name = "business-day";
  day.start = 0.0;
  day.end = 100.0;
  day.max_timerons = 5000.0;
  day.max_mpl = 2;
  OperatingPeriodAdmission::Period night;
  night.name = "batch-window";
  night.start = 100.0;
  night.end = 200.0;  // unrestricted cost, generous MPL
  night.max_mpl = 16;
  config.periods = {day, night};
  return config;
}

TEST(OperatingPeriodTest, ActivePeriodByTimeOfDay) {
  OperatingPeriodAdmission admission(DayNightConfig());
  EXPECT_EQ(admission.ActivePeriod(10.0)->name, "business-day");
  EXPECT_EQ(admission.ActivePeriod(150.0)->name, "batch-window");
  // Folded into the next day.
  EXPECT_EQ(admission.ActivePeriod(210.0)->name, "business-day");
}

TEST(OperatingPeriodTest, WrappingWindowSpansMidnight) {
  OperatingPeriodAdmission::Config config;
  config.day_length = 100.0;
  OperatingPeriodAdmission::Period night;
  night.name = "night";
  night.start = 80.0;
  night.end = 20.0;  // wraps
  config.periods = {night};
  OperatingPeriodAdmission admission(config);
  EXPECT_NE(admission.ActivePeriod(90.0), nullptr);
  EXPECT_NE(admission.ActivePeriod(10.0), nullptr);
  EXPECT_EQ(admission.ActivePeriod(50.0), nullptr);
}

TEST(OperatingPeriodTest, DaytimeStrictNightOpen) {
  TestRig rig;
  rig.wlm.AddAdmissionController(
      std::make_unique<OperatingPeriodAdmission>(DayNightConfig()));
  // Daytime: the big query is rejected.
  EXPECT_TRUE(rig.wlm.Submit(BiSpec(1, 50.0, 20000.0, 64.0)).IsRejected());
  // Night (t=120): the same-shaped query is accepted.
  rig.sim.RunUntil(120.0);
  EXPECT_TRUE(rig.wlm.Submit(BiSpec(2, 50.0, 20000.0, 64.0)).ok());
}

TEST(OperatingPeriodTest, PeriodMplApplies) {
  TestRig rig;
  rig.wlm.AddAdmissionController(
      std::make_unique<OperatingPeriodAdmission>(DayNightConfig()));
  for (QueryId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, 1.0, 100.0, 8.0)).ok());
  }
  // Daytime MPL is 2.
  EXPECT_EQ(rig.wlm.running_count(), 2u);
  EXPECT_EQ(rig.wlm.queue_depth(), 2u);
}

TEST(OperatingPeriodTest, UncoveredTimeUnrestricted) {
  OperatingPeriodAdmission::Config config;
  config.day_length = 100.0;
  OperatingPeriodAdmission::Period p;
  p.start = 0.0;
  p.end = 10.0;
  p.max_timerons = 1.0;
  config.periods = {p};
  TestRig rig;
  rig.wlm.AddAdmissionController(
      std::make_unique<OperatingPeriodAdmission>(config));
  rig.sim.RunUntil(50.0);  // outside any period
  EXPECT_TRUE(rig.wlm.Submit(BiSpec(1, 50.0, 20000.0, 64.0)).ok());
}

}  // namespace
}  // namespace wlm
