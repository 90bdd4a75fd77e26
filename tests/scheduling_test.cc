#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "characterization/static_classifier.h"
#include "scheduling/batch_scheduler.h"
#include "scheduling/mpl_scheduler.h"
#include "scheduling/queue_schedulers.h"
#include "scheduling/restructuring.h"
#include "scheduling/utility_scheduler.h"
#include "tests/wlm_test_util.h"
#include "workloads/generators.h"

namespace wlm {
namespace {

void DefinePriorityWorkloads(TestRig* rig) {
  WorkloadDefinition high;
  high.name = "high";
  high.priority = BusinessPriority::kHigh;
  rig->wlm.DefineWorkload(high);
  WorkloadDefinition low;
  low.name = "low";
  low.priority = BusinessPriority::kLow;
  rig->wlm.DefineWorkload(low);
  auto classifier = std::make_unique<StaticClassifier>();
  ClassificationRule high_rule;
  high_rule.workload = "high";
  high_rule.kind = QueryKind::kOltpTransaction;
  ClassificationRule low_rule;
  low_rule.workload = "low";
  low_rule.kind = QueryKind::kBiQuery;
  classifier->AddRule(high_rule);
  classifier->AddRule(low_rule);
  rig->wlm.set_classifier(std::move(classifier));
}

// --------------------------------------------------------- FIFO/Priority

TEST(FifoSchedulerTest, DispatchesInArrivalOrder) {
  TestRig rig;
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(1));
  std::vector<QueryId> completion_order;
  rig.wlm.AddCompletionListener([&](const Request& r) {
    completion_order.push_back(r.spec.id);
  });
  for (QueryId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, 0.3, 30.0, 8.0)).ok());
  }
  rig.sim.RunUntil(60.0);
  EXPECT_EQ(completion_order, (std::vector<QueryId>{1, 2, 3}));
}

TEST(PrioritySchedulerTest, HighPriorityOvertakesQueue) {
  TestRig rig;
  DefinePriorityWorkloads(&rig);
  rig.wlm.set_scheduler(std::make_unique<PriorityScheduler>(1));
  // Fill the single slot, then queue: low, low, high.
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 0.5, 50.0, 8.0)).ok());  // running
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 0.5, 50.0, 8.0)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(3, 0.5, 50.0, 8.0)).ok());
  ASSERT_TRUE(rig.wlm.Submit(OltpSpec(4)).ok());  // high priority
  std::vector<QueryId> order;
  rig.wlm.AddCompletionListener(
      [&](const Request& r) { order.push_back(r.spec.id); });
  rig.sim.RunUntil(60.0);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1u);  // already running
  EXPECT_EQ(order[1], 4u);  // overtook 2 and 3
}

// -------------------------------------------------------- RankScheduler

TEST(RankSchedulerTest, RankBlendsImportanceAgingAndSize) {
  TestRig rig;
  RankScheduler scheduler;
  Request small;
  small.priority = BusinessPriority::kLow;
  small.arrival_time = 0.0;
  small.plan.est_elapsed_seconds = 1.0;
  Request big = small;
  big.plan.est_elapsed_seconds = 1000.0;
  // Same priority and wait: the smaller query ranks higher.
  EXPECT_GT(scheduler.RankOf(small, 10.0), scheduler.RankOf(big, 10.0));

  Request important = big;
  important.priority = BusinessPriority::kCritical;
  EXPECT_GT(scheduler.RankOf(important, 10.0), scheduler.RankOf(big, 10.0));

  // Aging: the same request ranks higher after waiting longer.
  EXPECT_GT(scheduler.RankOf(small, 100.0), scheduler.RankOf(small, 1.0));
}

TEST(RankSchedulerTest, ShortQueriesJumpLongOnes) {
  TestRig rig;
  rig.wlm.set_scheduler(std::make_unique<RankScheduler>(1, RankScheduler::Weights{}));
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 0.5, 50.0, 8.0)).ok());   // running
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 20.0, 2000.0, 64.0)).ok());  // long
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(3, 0.2, 20.0, 8.0)).ok());   // short
  std::vector<QueryId> order;
  rig.wlm.AddCompletionListener(
      [&](const Request& r) { order.push_back(r.spec.id); });
  rig.sim.RunUntil(120.0);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], 3u);  // the short query jumped the long one
}

// -------------------------------------------------- FeedbackMplScheduler

TEST(FeedbackMplTest, ResponseTargetModeShrinksMplUnderSlowness) {
  EngineConfig cfg = TestEngineConfig();
  cfg.memory_mb = 128.0;  // tight memory: high MPL causes spill slowness
  TestRig rig(cfg);
  FeedbackMplScheduler::Config config;
  config.initial_mpl = 16;
  config.target_response_seconds = 2.0;
  auto scheduler = std::make_unique<FeedbackMplScheduler>(config);
  FeedbackMplScheduler* raw = scheduler.get();
  rig.wlm.set_scheduler(std::move(scheduler));

  WorkloadGenerator gen(3);
  BiWorkloadConfig bi;
  bi.cpu_mu = -1.6;  // median ~0.2s cpu: sustainable arrival load
  OpenLoopDriver driver(
      &rig.sim, &gen.rng(), 4.0, [&] { return gen.NextBi(bi); },
      [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
  driver.Start(40.0);
  rig.sim.RunUntil(45.0);
  EXPECT_LT(raw->current_mpl(), 16);  // adapted downwards
  EXPECT_GT(rig.wlm.counters("default").completed, 50);
}

// ------------------------------------------------------ UtilityScheduler

TEST(UtilitySchedulerTest, CostLimitInfinityForUnknownClass) {
  UtilityScheduler scheduler(UtilityScheduler::Config{});
  EXPECT_TRUE(std::isinf(scheduler.CostLimit("anything")));
}

TEST(UtilitySchedulerTest, PredictResponseGrowsWhenFractionShrinks) {
  UtilityScheduler::Config config;
  config.classes.push_back({"a", 5.0, 1.0});
  config.classes.push_back({"b", 5.0, 1.0});
  UtilityScheduler scheduler(config);
  double roomy = scheduler.PredictResponse("a", 0.8);
  double tight = scheduler.PredictResponse("a", 0.1);
  EXPECT_GT(tight, roomy);
}

TEST(UtilitySchedulerTest, ReplanShiftsCapacityTowardImportantMissedClass) {
  TestRig rig;
  DefinePriorityWorkloads(&rig);
  UtilityScheduler::Config config;
  config.classes.push_back({"high", 0.03, 5.0});  // tight goal, important
  config.classes.push_back({"low", 60.0, 1.0});  // loose goal
  config.replan_every_samples = 2;
  auto scheduler = std::make_unique<UtilityScheduler>(config);
  UtilityScheduler* raw = scheduler.get();
  rig.wlm.set_scheduler(std::move(scheduler));

  WorkloadGenerator gen(5);
  OltpWorkloadConfig oltp;
  oltp.locks_per_txn = 0;
  BiWorkloadConfig bi;
  OpenLoopDriver oltp_driver(
      &rig.sim, &gen.rng(), 30.0, [&] { return gen.NextOltp(oltp); },
      [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
  OpenLoopDriver bi_driver(
      &rig.sim, &gen.rng(), 1.0, [&] { return gen.NextBi(bi); },
      [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
  oltp_driver.Start(30.0);
  bi_driver.Start(30.0);
  rig.sim.RunUntil(35.0);
  EXPECT_GT(raw->replans(), 0);
  // The important tight-goal class ends with the larger capacity share.
  EXPECT_GT(raw->Fraction("high"), raw->Fraction("low"));
  EXPECT_GT(rig.wlm.counters("high").completed, 100);
}

TEST(UtilitySchedulerTest, CostLimitHoldsClassConcurrency) {
  TestRig rig;
  DefinePriorityWorkloads(&rig);
  UtilityScheduler::Config config;
  config.classes.push_back({"low", 60.0, 1.0});
  config.system_cost_capacity = 1.0;  // absurdly tight: ~1 query at a time
  config.min_fraction = 1.0;
  auto scheduler = std::make_unique<UtilityScheduler>(config);
  rig.wlm.set_scheduler(std::move(scheduler));
  for (QueryId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, 0.5, 100.0, 8.0)).ok());
  }
  // One low query admitted (first of a class always passes), rest held.
  EXPECT_EQ(rig.wlm.RunningInWorkload("low"), 1);
  EXPECT_EQ(rig.wlm.QueuedInWorkload("low"), 3);
  rig.sim.RunUntil(120.0);
  EXPECT_EQ(rig.wlm.counters("low").completed, 4);
}

// ------------------------------------------------------- BatchScheduler

Request BatchReq(QueryId id, double est_seconds, BusinessPriority priority,
                 const std::string& digest) {
  Request r;
  r.spec.id = id;
  r.spec.sql_digest = digest;
  r.priority = priority;
  r.plan.est_elapsed_seconds = est_seconds;
  return r;
}

TEST(BatchSchedulerTest, WsptOrdersByWeightOverTime) {
  BatchScheduler::Config config;
  config.interaction_aware = false;
  BatchScheduler scheduler(config);
  Request slow_low = BatchReq(1, 100.0, BusinessPriority::kLow, "a");
  Request fast_low = BatchReq(2, 1.0, BusinessPriority::kLow, "b");
  Request slow_high = BatchReq(3, 100.0, BusinessPriority::kCritical, "c");
  std::vector<const Request*> batch = {&slow_low, &fast_low, &slow_high};
  auto order = scheduler.OrderBatch(batch);
  // fast_low has ratio 2/1; slow_high 5/100; slow_low 2/100.
  EXPECT_EQ(batch[order[0]]->spec.id, 2u);
  EXPECT_EQ(batch[order[1]]->spec.id, 3u);
  EXPECT_EQ(batch[order[2]]->spec.id, 1u);
}

TEST(BatchSchedulerTest, InteractionAwareGroupsTemplates) {
  BatchScheduler scheduler;  // interaction-aware by default
  Request a1 = BatchReq(1, 10.0, BusinessPriority::kMedium, "template_a");
  Request b = BatchReq(2, 1.0, BusinessPriority::kMedium, "template_b");
  Request a2 = BatchReq(3, 10.0, BusinessPriority::kMedium, "template_a");
  std::vector<const Request*> batch = {&a1, &b, &a2};
  auto order = scheduler.OrderBatch(batch);
  // template_b (ratio 3/1) first; then both template_a back-to-back.
  EXPECT_EQ(batch[order[0]]->spec.id, 2u);
  // a1 and a2 adjacent.
  EXPECT_EQ(batch[order[1]]->spec.sql_digest, "template_a");
  EXPECT_EQ(batch[order[2]]->spec.sql_digest, "template_a");
}

TEST(BatchSchedulerTest, WsptMinimizesWeightedCompletionInSimulation) {
  // Serial machine (MPL 1): WSPT should beat FIFO on weighted completion.
  auto run = [&](bool wspt) {
    EngineConfig cfg = TestEngineConfig();
    cfg.num_cpus = 1;
    TestRig rig(cfg);
    if (wspt) {
      BatchScheduler::Config config;
      config.interaction_aware = false;
      config.mpl = 1;
      rig.wlm.set_scheduler(std::make_unique<BatchScheduler>(config));
    } else {
      rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(1));
    }
    // A short head query occupies the single slot so the real batch is
    // fully queued when the ordering decision happens.
    (void)rig.wlm.Submit(BiSpec(100, 0.2, 5.0, 4.0));
    // Batch: one long query then several short ones (FIFO order is worst
    // case for total completion time).
    (void)rig.wlm.Submit(BiSpec(1, 10.0, 10.0, 8.0));
    for (QueryId id = 2; id <= 6; ++id) {
      (void)rig.wlm.Submit(BiSpec(id, 0.2, 5.0, 4.0));
    }
    rig.sim.RunUntil(120.0);
    double weighted_completion = 0.0;
    for (const Request* r : rig.requests.All()) {
      weighted_completion +=
          (static_cast<double>(r->priority) + 1.0) * r->finish_time;
    }
    return weighted_completion;
  };
  double fifo = run(false);
  double wspt = run(true);
  EXPECT_LT(wspt, fifo * 0.8);
}

// --------------------------------------------------------- Restructuring

TEST(SlicePlanTest, ChunksRespectBudgetAndPreserveTotals) {
  Optimizer optimizer;
  QuerySpec spec = BiSpec(1, 8.0, 4000.0, 256.0);
  Plan plan = optimizer.BuildPlan(spec);
  double io_rate = 1000.0;
  double budget = 2.0;  // work units
  std::vector<Plan> chunks = SlicePlan(plan, budget, io_rate);
  ASSERT_GT(chunks.size(), 2u);
  double total_cpu = 0.0, total_io = 0.0;
  for (const Plan& chunk : chunks) {
    EXPECT_LE(chunk.TotalWork(io_rate), budget + 1e-6);
    total_cpu += chunk.TotalCpu();
    total_io += chunk.TotalIo();
  }
  EXPECT_NEAR(total_cpu, plan.TotalCpu(), 1e-6);
  EXPECT_NEAR(total_io, plan.TotalIo(), 1e-6);
}

TEST(SlicePlanTest, SmallPlanSingleChunk) {
  Optimizer optimizer;
  Plan plan = optimizer.BuildPlan(OltpSpec(1));
  std::vector<Plan> chunks = SlicePlan(plan, 1000.0, 1000.0);
  EXPECT_EQ(chunks.size(), 1u);
}

TEST(SlicePlanTest, GiantOperatorSplitWithinOperator) {
  Plan plan;
  PlanOperator op;
  op.cpu_seconds = 10.0;
  op.io_ops = 0.0;
  op.max_state_mb = 100.0;
  plan.operators.push_back(op);
  std::vector<Plan> chunks = SlicePlan(plan, 2.5, 1000.0);
  EXPECT_EQ(chunks.size(), 4u);
  for (const Plan& chunk : chunks) {
    EXPECT_NEAR(chunk.TotalCpu(), 2.5, 1e-9);
  }
}

TEST(SlicedQuerySubmitterTest, ChainRunsToCompletion) {
  TestRig rig;
  SlicedQuerySubmitter submitter(&rig.wlm, /*max_chunk_work=*/1.0);
  SlicedQuerySubmitter::Result result;
  bool done = false;
  ASSERT_TRUE(submitter
                  .SubmitSliced(BiSpec(1, 4.0, 2000.0, 128.0),
                                [&](const SlicedQuerySubmitter::Result& r) {
                                  result = r;
                                  done = true;
                                })
                  .ok());
  rig.sim.RunUntil(120.0);
  ASSERT_TRUE(done);
  EXPECT_FALSE(result.failed);
  EXPECT_GT(result.chunks_total, 3);
  EXPECT_EQ(result.chunks_completed, result.chunks_total);
  EXPECT_GT(result.ResponseTime(), 0.0);
}

TEST(SlicedQuerySubmitterTest, ShortQueriesInterleaveBetweenChunks) {
  // One CPU, FIFO with MPL 1: an unsliced 4s query would block a short
  // query for ~4s; slicing lets the short query run between chunks.
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 1;
  TestRig rig(cfg);
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(1));
  SlicedQuerySubmitter submitter(&rig.wlm, 0.5);
  ASSERT_TRUE(submitter.SubmitSliced(BiSpec(1, 4.0, 100.0, 64.0),
                                     nullptr).ok());
  rig.sim.RunUntil(0.3);
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 0.2, 10.0, 8.0)).ok());
  rig.sim.RunUntil(120.0);
  const Request* shorty = rig.Find(2);
  ASSERT_NE(shorty, nullptr);
  EXPECT_EQ(shorty->state, RequestState::kCompleted);
  // Far sooner than the ~4s the monolith would have imposed.
  EXPECT_LT(shorty->ResponseTime(), 2.0);
}

}  // namespace
}  // namespace wlm
