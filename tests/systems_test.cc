#include <gtest/gtest.h>

#include <memory>

#include "systems/db2_wlm.h"
#include "systems/resource_governor.h"
#include "systems/technique_catalog.h"
#include "systems/teradata_asm.h"
#include "tests/wlm_test_util.h"
#include "workloads/generators.h"

namespace wlm {
namespace {

// ----------------------------------------------------------- DB2 facade

TEST(Db2FacadeTest, IdentificationRoutesBySourceAndType) {
  TestRig rig;
  Db2WorkloadManagerFacade db2(&rig.wlm);
  db2.CreateServiceClass({"SC_OLTP", 9, 9, 9, BusinessPriority::kHigh, {}});
  db2.CreateServiceClass({"SC_BATCH", 2, 2, 2, BusinessPriority::kLow, {}});
  Db2WorkloadManagerFacade::WorkloadDef by_app;
  by_app.name = "WL_POS";
  by_app.application = "pos-system";
  by_app.service_class = "SC_OLTP";
  db2.CreateWorkload(by_app);
  Db2WorkloadManagerFacade::WorkClass big;
  big.name = "WC_BIG";
  big.min_est_timerons = 1000.0;
  big.service_class = "SC_BATCH";
  db2.CreateWorkClass(big);
  ASSERT_TRUE(db2.Build().ok());

  ASSERT_TRUE(rig.wlm.Submit(OltpSpec(1)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 20.0, 10000.0)).ok());
  EXPECT_EQ(rig.Find(1)->workload, "SC_OLTP");
  EXPECT_EQ(rig.Find(1)->priority, BusinessPriority::kHigh);
  EXPECT_DOUBLE_EQ(rig.Find(1)->shares.cpu_weight, 9.0);
  EXPECT_EQ(rig.Find(2)->workload, "SC_BATCH");
}

TEST(Db2FacadeTest, WorkClassRoutesByEstimatedRows) {
  TestRig rig;
  Db2WorkloadManagerFacade db2(&rig.wlm);
  db2.CreateServiceClass({"SC_WIDE", 2, 2, 2, BusinessPriority::kLow, {}});
  Db2WorkloadManagerFacade::WorkClass wide;
  wide.name = "WC_WIDE";
  wide.min_est_rows = 100000.0;  // "queries returning many rows"
  wide.service_class = "SC_WIDE";
  db2.CreateWorkClass(wide);
  ASSERT_TRUE(db2.Build().ok());
  QuerySpec narrow = BiSpec(1);
  narrow.result_rows = 10;
  QuerySpec wide_q = BiSpec(2);
  wide_q.result_rows = 5'000'000;
  ASSERT_TRUE(rig.wlm.Submit(narrow).ok());
  ASSERT_TRUE(rig.wlm.Submit(wide_q).ok());
  EXPECT_EQ(rig.Find(1)->workload, "default");
  EXPECT_EQ(rig.Find(2)->workload, "SC_WIDE");
}

TEST(Db2FacadeTest, EstimatedCostThresholdStopsExecution) {
  TestRig rig;
  Db2WorkloadManagerFacade db2(&rig.wlm);
  db2.CreateServiceClass({"SC", 5, 5, 5, BusinessPriority::kMedium, {}});
  Db2WorkloadManagerFacade::Threshold cost;
  cost.name = "TH_COST";
  cost.metric = Db2WorkloadManagerFacade::ThresholdMetric::kEstimatedCost;
  cost.value = 2000.0;
  cost.action = Db2WorkloadManagerFacade::ThresholdAction::kStopExecution;
  db2.CreateThreshold(cost);
  ASSERT_TRUE(db2.Build().ok());

  EXPECT_TRUE(rig.wlm.Submit(OltpSpec(1)).ok());
  EXPECT_TRUE(rig.wlm.Submit(BiSpec(2, 100.0, 50000.0)).IsRejected());
  EXPECT_EQ(db2.stop_execution_count(), 1);
}

TEST(Db2FacadeTest, ElapsedTimeRemapAgesPriority) {
  TestRig rig;
  Db2WorkloadManagerFacade db2(&rig.wlm);
  db2.CreateServiceClass({"SC", 8, 8, 8, BusinessPriority::kHigh, {}});
  Db2WorkloadManagerFacade::Threshold remap;
  remap.name = "TH_AGE";
  remap.metric = Db2WorkloadManagerFacade::ThresholdMetric::kElapsedTime;
  remap.value = 1.0;
  remap.action = Db2WorkloadManagerFacade::ThresholdAction::kRemapDown;
  db2.CreateThreshold(remap);
  ASSERT_TRUE(db2.Build().ok());

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 20.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(3.0);
  EXPECT_LT(rig.Find(1)->priority, BusinessPriority::kHigh);
  EXPECT_GE(db2.remap_count(), 1);
}

TEST(Db2FacadeTest, ConcurrencyThresholdQueues) {
  TestRig rig;
  Db2WorkloadManagerFacade db2(&rig.wlm);
  db2.CreateServiceClass({"SC", 5, 5, 5, BusinessPriority::kMedium, {}});
  Db2WorkloadManagerFacade::Threshold mpl;
  mpl.name = "TH_CONC";
  mpl.metric = Db2WorkloadManagerFacade::ThresholdMetric::
      kConcurrentDatabaseActivities;
  mpl.value = 2;
  mpl.action = Db2WorkloadManagerFacade::ThresholdAction::kQueue;
  db2.CreateThreshold(mpl);
  ASSERT_TRUE(db2.Build().ok());
  for (QueryId id = 1; id <= 5; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, 0.5, 50.0, 8.0)).ok());
  }
  EXPECT_EQ(rig.wlm.running_count(), 2u);
  EXPECT_EQ(rig.wlm.queue_depth(), 3u);
}

TEST(Db2FacadeTest, BuildOnceOnly) {
  TestRig rig;
  Db2WorkloadManagerFacade db2(&rig.wlm);
  ASSERT_TRUE(db2.Build().ok());
  EXPECT_EQ(db2.Build().code(), StatusCode::kFailedPrecondition);
}

// -------------------------------------------------- Resource Governor

TEST(ResourceGovernorTest, ClassifierFunctionRoutesGroups) {
  TestRig rig;
  ResourceGovernorFacade governor(&rig.wlm);
  governor.CreatePool({"poolA", 0.6, 1.0});
  governor.CreateWorkloadGroup(
      {"groupA", "poolA", BusinessPriority::kHigh, 0, {}});
  governor.RegisterClassifierFunction(
      [](const Request& r) -> std::optional<std::string> {
        if (r.spec.session.user == "analyst") return "groupA";
        return std::nullopt;
      });
  ASSERT_TRUE(governor.Build().ok());

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1)).ok());   // analyst -> groupA
  ASSERT_TRUE(rig.wlm.Submit(OltpSpec(2)).ok());  // cashier -> default
  EXPECT_EQ(rig.Find(1)->workload, "groupA");
  EXPECT_EQ(rig.Find(2)->workload, "default");
}

TEST(ResourceGovernorTest, ValidatesPoolConfiguration) {
  {
    TestRig rig;
    ResourceGovernorFacade governor(&rig.wlm);
    governor.CreatePool({"a", 0.7, 1.0});
    governor.CreatePool({"b", 0.6, 1.0});
    EXPECT_EQ(governor.Build().code(), StatusCode::kInvalidArgument);
  }
  {
    TestRig rig;
    ResourceGovernorFacade governor(&rig.wlm);
    governor.CreatePool({"a", 0.5, 0.3});  // MAX < MIN
    EXPECT_EQ(governor.Build().code(), StatusCode::kInvalidArgument);
  }
  {
    TestRig rig;
    ResourceGovernorFacade governor(&rig.wlm);
    governor.CreateWorkloadGroup(
        {"g", "nonexistent-pool", BusinessPriority::kMedium, 0, {}});
    EXPECT_EQ(governor.Build().code(), StatusCode::kNotFound);
  }
}

TEST(ResourceGovernorTest, QueryGovernorCostLimitRejects) {
  TestRig rig;
  ResourceGovernorFacade governor(&rig.wlm);
  governor.set_query_governor_cost_limit(5.0);
  ASSERT_TRUE(governor.Build().ok());
  EXPECT_TRUE(rig.wlm.Submit(OltpSpec(1)).ok());
  EXPECT_TRUE(rig.wlm.Submit(BiSpec(2, 100.0, 50000.0)).IsRejected());
}

TEST(ResourceGovernorTest, MaxCapThrottlesGreedyPool) {
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 4;
  TestRig rig(cfg, /*monitor_interval=*/0.25);
  ResourceGovernorFacade governor(&rig.wlm);
  governor.CreatePool({"capped", 0.0, 0.25});
  governor.CreateWorkloadGroup(
      {"hogs", "capped", BusinessPriority::kMedium, 0, {}});
  governor.RegisterClassifierFunction(
      [](const Request& r) -> std::optional<std::string> {
        if (r.spec.kind == QueryKind::kBiQuery) return "hogs";
        return std::nullopt;
      });
  ASSERT_TRUE(governor.Build().ok());

  // 4 cpu-hungry queries alone would use 100% of 4 CPUs.
  for (QueryId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, 120.0, 10.0, 8.0)).ok());
  }
  rig.sim.RunUntil(20.0);
  // Enforcement converges to roughly the cap.
  EXPECT_LT(governor.PoolCpuUsage("capped"), 0.40);
  EXPECT_GT(governor.PoolCpuUsage("capped"), 0.10);
}

TEST(ResourceGovernorTest, MinReservationProtectsUnderContention) {
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 1;  // force CPU contention between the two pools
  TestRig rig(cfg);
  ResourceGovernorFacade governor(&rig.wlm);
  governor.CreatePool({"gold", 0.8, 1.0});
  governor.CreatePool({"bronze", 0.0, 1.0});
  governor.CreateWorkloadGroup(
      {"gold-group", "gold", BusinessPriority::kHigh, 0, {}});
  governor.CreateWorkloadGroup(
      {"bronze-group", "bronze", BusinessPriority::kLow, 0, {}});
  governor.RegisterClassifierFunction(
      [](const Request& r) -> std::optional<std::string> {
        if (r.spec.session.user == "analyst") return "gold-group";
        return std::optional<std::string>("bronze-group");
      });
  ASSERT_TRUE(governor.Build().ok());

  double gold_finish = 0.0;
  double bronze_finish = 0.0;
  rig.wlm.AddCompletionListener([&](const Request& r) {
    if (r.workload == "gold-group") gold_finish = r.finish_time;
    if (r.workload == "bronze-group") bronze_finish = r.finish_time;
  });
  QuerySpec gold = BiSpec(1, 4.0, 10.0, 8.0);
  QuerySpec bronze = BiSpec(2, 4.0, 10.0, 8.0);
  bronze.session.user = "warehouse";
  ASSERT_TRUE(rig.wlm.Submit(gold).ok());
  ASSERT_TRUE(rig.wlm.Submit(bronze).ok());
  rig.sim.RunUntil(60.0);
  // The reserved pool's query finishes clearly first.
  EXPECT_LT(gold_finish, bronze_finish);
}

TEST(ResourceGovernorTest, MemoryMinReservationPreventsSpill) {
  EngineConfig cfg = TestEngineConfig();
  cfg.memory_mb = 1000.0;
  TestRig rig(cfg);
  ResourceGovernorFacade governor(&rig.wlm);
  ResourceGovernorFacade::ResourcePool gold_pool;
  gold_pool.name = "gold_pool";
  gold_pool.min_cpu = 0.5;
  gold_pool.min_memory = 0.4;  // 400MB reserved
  governor.CreatePool(gold_pool);
  governor.CreateWorkloadGroup(
      {"gold", "gold_pool", BusinessPriority::kHigh, 0, {}});
  governor.RegisterClassifierFunction(
      [](const Request& r) -> std::optional<std::string> {
        if (r.spec.session.user == "analyst") return "gold";
        return std::nullopt;
      });
  ASSERT_TRUE(governor.Build().ok());

  // A default-group hog tries to take the whole pool first...
  QuerySpec hog = BiSpec(1, 5.0, 100.0, 900.0);
  hog.session.user = "warehouse";
  QueryOutcome hog_outcome, gold_outcome;
  rig.engine.set_finish_observer([&](const QueryOutcome& o) {
    if (o.id == 1) hog_outcome = o;
    if (o.id == 2) gold_outcome = o;
  });
  ASSERT_TRUE(rig.wlm.Submit(hog).ok());
  // ...but gold's 400MB reservation survives: its query gets a full grant.
  QuerySpec gold_query = BiSpec(2, 1.0, 100.0, 400.0);
  ASSERT_TRUE(rig.wlm.Submit(gold_query).ok());
  rig.sim.RunUntil(120.0);
  EXPECT_DOUBLE_EQ(gold_outcome.spill_factor, 1.0);
  EXPECT_DOUBLE_EQ(gold_outcome.memory_granted_mb, 400.0);
  // The hog was held to 600MB and spilled.
  EXPECT_NEAR(hog_outcome.memory_granted_mb, 600.0, 1e-6);
  EXPECT_GT(hog_outcome.spill_factor, 1.0);
}

// ------------------------------------------------------- Teradata ASM

TEST(TeradataAsmTest, FiltersRejectBeforeExecution) {
  TestRig rig;
  TeradataAsmFacade asm_facade(&rig.wlm);
  TeradataAsmFacade::ObjectAccessFilter block_app;
  block_app.application = "blocked-app";
  asm_facade.AddObjectAccessFilter(block_app);
  TeradataAsmFacade::QueryResourceFilter resource;
  resource.max_est_rows = 1e6;
  resource.max_est_seconds = 100.0;
  asm_facade.AddQueryResourceFilter(resource);
  ASSERT_TRUE(asm_facade.Build().ok());

  QuerySpec blocked = OltpSpec(1, 0.01, "blocked-app");
  EXPECT_TRUE(rig.wlm.Submit(blocked).IsRejected());
  EXPECT_TRUE(rig.wlm.Submit(BiSpec(2, 1000.0, 500000.0)).IsRejected());
  EXPECT_TRUE(rig.wlm.Submit(OltpSpec(3)).ok());
  EXPECT_EQ(asm_facade.filter_rejections(), 2);
}

TEST(TeradataAsmTest, WorkloadDefinitionClassifiesAndThrottles) {
  TestRig rig;
  TeradataAsmFacade asm_facade(&rig.wlm);
  TeradataAsmFacade::WorkloadDefinitionRule tactical;
  tactical.name = "tactical";
  tactical.application = "pos-system";
  tactical.priority = BusinessPriority::kHigh;
  asm_facade.AddWorkloadDefinition(tactical);
  TeradataAsmFacade::WorkloadDefinitionRule decision;
  decision.name = "dss";
  decision.kind = QueryKind::kBiQuery;
  decision.priority = BusinessPriority::kLow;
  decision.concurrency_throttle = 1;
  asm_facade.AddWorkloadDefinition(decision);
  ASSERT_TRUE(asm_facade.Build().ok());

  ASSERT_TRUE(rig.wlm.Submit(OltpSpec(1)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(2, 1.0, 100.0, 8.0)).ok());
  ASSERT_TRUE(rig.wlm.Submit(BiSpec(3, 1.0, 100.0, 8.0)).ok());
  EXPECT_EQ(rig.Find(1)->workload, "tactical");
  EXPECT_EQ(rig.Find(2)->workload, "dss");
  // The dss concurrency throttle (delay queue) holds the second query.
  EXPECT_EQ(rig.wlm.RunningInWorkload("dss"), 1);
  EXPECT_EQ(rig.wlm.QueuedInWorkload("dss"), 1);
}

TEST(TeradataAsmTest, DatabaseAndWorkloadThrottlesEachCapConcurrency) {
  TestRig rig;
  TeradataAsmFacade asm_facade(&rig.wlm);
  TeradataAsmFacade::WorkloadDefinitionRule tactical;
  tactical.name = "tactical";
  tactical.kind = QueryKind::kOltpTransaction;
  asm_facade.AddWorkloadDefinition(tactical);
  TeradataAsmFacade::WorkloadDefinitionRule dss;
  dss.name = "dss";
  dss.kind = QueryKind::kBiQuery;
  asm_facade.AddWorkloadDefinition(dss);
  // Object throttles: at most 3 queries database-wide, at most 1 of dss.
  asm_facade.AddThrottle({"", 3});
  asm_facade.AddThrottle({"dss", 1});
  ASSERT_TRUE(asm_facade.Build().ok());

  for (QueryId id = 1; id <= 3; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(BiSpec(id, 5.0, 100.0, 8.0)).ok());
  }
  // The dss throttle holds two of the three BI queries.
  EXPECT_EQ(rig.wlm.RunningInWorkload("dss"), 1);
  EXPECT_EQ(rig.wlm.QueuedInWorkload("dss"), 2);
  for (QueryId id = 4; id <= 7; ++id) {
    ASSERT_TRUE(rig.wlm.Submit(OltpSpec(id, 5.0)).ok());
  }
  // The database-wide throttle lets two tactical queries join the one dss
  // query and queues the rest.
  EXPECT_EQ(rig.wlm.RunningInWorkload("tactical"), 2);
  EXPECT_EQ(rig.wlm.QueuedInWorkload("tactical"), 2);
  EXPECT_EQ(rig.wlm.running_count(), 3u);
}

TEST(TeradataAsmTest, ExceptionAbortKillsRunaways) {
  TestRig rig;
  TeradataAsmFacade asm_facade(&rig.wlm);
  TeradataAsmFacade::WorkloadDefinitionRule dss;
  dss.name = "dss";
  dss.kind = QueryKind::kBiQuery;
  TeradataAsmFacade::ExceptionRule exception;
  exception.max_elapsed_seconds = 1.0;
  exception.action = TeradataAsmFacade::ExceptionAction::kAbort;
  dss.exception = exception;
  asm_facade.AddWorkloadDefinition(dss);
  ASSERT_TRUE(asm_facade.Build().ok());

  ASSERT_TRUE(rig.wlm.Submit(BiSpec(1, 60.0, 100.0, 16.0)).ok());
  rig.sim.RunUntil(10.0);
  EXPECT_EQ(rig.Find(1)->state, RequestState::kKilled);
  EXPECT_EQ(asm_facade.exception_aborts(), 1);
}

TEST(TeradataAsmTest, AnalyzerRecommendsWorkloadsFromLog) {
  TestRig rig;
  // Build a log: many short POS transactions + long reporting queries.
  WorkloadGenerator gen(31);
  OltpWorkloadConfig oltp;
  oltp.locks_per_txn = 0;
  BiWorkloadConfig bi;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(rig.wlm.Submit(gen.NextOltp(oltp)).ok());
  }
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(rig.wlm.Submit(gen.NextBi(bi)).ok());
  }
  rig.sim.RunUntil(600.0);

  auto recommendations =
      TeradataAsmFacade::AnalyzeQueryLog(rig.requests.All(), 10);
  ASSERT_EQ(recommendations.size(), 2u);
  const auto* pos = &recommendations[0];
  const auto* reporting = &recommendations[1];
  if (pos->definition.application != "pos-system") std::swap(pos, reporting);
  EXPECT_EQ(pos->definition.priority, BusinessPriority::kHigh);
  EXPECT_EQ(reporting->definition.priority, BusinessPriority::kLow);
  EXPECT_EQ(pos->sample_queries, 30);
  ASSERT_EQ(pos->definition.slgs.size(), 1u);
  // SLG derived from observed p90 with slack.
  EXPECT_GT(pos->definition.slgs[0].target, pos->observed_p90_response);
}

// --------------------------------------------------- Technique catalog

TEST(TechniqueCatalogTest, RegistersFullTaxonomy) {
  TaxonomyRegistry registry;
  RegisterAllTechniques(&registry);
  EXPECT_GE(registry.techniques().size(), 20u);
  // Every class and subclass of Figure 1 is populated.
  for (TechniqueClass cls :
       {TechniqueClass::kWorkloadCharacterization,
        TechniqueClass::kAdmissionControl, TechniqueClass::kScheduling,
        TechniqueClass::kExecutionControl}) {
    EXPECT_FALSE(registry.InClass(cls).empty());
  }
  for (TechniqueSubclass sub :
       {TechniqueSubclass::kStaticCharacterization,
        TechniqueSubclass::kDynamicCharacterization,
        TechniqueSubclass::kThresholdBasedAdmission,
        TechniqueSubclass::kPredictionBasedAdmission,
        TechniqueSubclass::kQueueManagement,
        TechniqueSubclass::kQueryRestructuring,
        TechniqueSubclass::kReprioritization,
        TechniqueSubclass::kCancellation, TechniqueSubclass::kThrottling,
        TechniqueSubclass::kSuspendResume}) {
    EXPECT_FALSE(registry.InSubclass(sub).empty())
        << TechniqueSubclassName(sub);
  }
  // Idempotent.
  size_t count = registry.techniques().size();
  RegisterAllTechniques(&registry);
  EXPECT_EQ(registry.techniques().size(), count);
}

TEST(TechniqueCatalogTest, FacadeClassificationMatchesTable4) {
  // DB2: static characterization + threshold admission + execution control
  // with reprioritization and cancellation — exactly the paper's Table 4
  // row, regenerated from the live configuration.
  TestRig rig;
  Db2WorkloadManagerFacade db2(&rig.wlm);
  db2.CreateServiceClass({"SC", 5, 5, 5, BusinessPriority::kMedium, {}});
  Db2WorkloadManagerFacade::Threshold cost;
  cost.metric = Db2WorkloadManagerFacade::ThresholdMetric::kEstimatedCost;
  cost.value = 1e6;
  db2.CreateThreshold(cost);
  Db2WorkloadManagerFacade::Threshold mpl;
  mpl.metric = Db2WorkloadManagerFacade::ThresholdMetric::
      kConcurrentDatabaseActivities;
  mpl.value = 10;
  db2.CreateThreshold(mpl);
  Db2WorkloadManagerFacade::Threshold remap;
  remap.metric = Db2WorkloadManagerFacade::ThresholdMetric::kElapsedTime;
  remap.value = 100;
  remap.action = Db2WorkloadManagerFacade::ThresholdAction::kRemapDown;
  db2.CreateThreshold(remap);
  Db2WorkloadManagerFacade::Threshold kill;
  kill.metric = Db2WorkloadManagerFacade::ThresholdMetric::kElapsedTime;
  kill.value = 1000;
  kill.action = Db2WorkloadManagerFacade::ThresholdAction::kStopExecution;
  db2.CreateThreshold(kill);
  ASSERT_TRUE(db2.Build().ok());

  bool has_static = false, has_threshold = false, has_reprio = false,
       has_cancel = false, has_scheduling = false;
  for (const TechniqueInfo& t : rig.wlm.EmployedTechniques()) {
    has_static |= t.subclass == TechniqueSubclass::kStaticCharacterization;
    has_threshold |=
        t.subclass == TechniqueSubclass::kThresholdBasedAdmission;
    has_reprio |= t.subclass == TechniqueSubclass::kReprioritization;
    has_cancel |= t.subclass == TechniqueSubclass::kCancellation;
    has_scheduling |= t.technique_class == TechniqueClass::kScheduling;
  }
  EXPECT_TRUE(has_static);
  EXPECT_TRUE(has_threshold);
  EXPECT_TRUE(has_reprio);
  EXPECT_TRUE(has_cancel);
  // Table 4: "none of the systems implements any scheduling technique".
  EXPECT_FALSE(has_scheduling);
}

}  // namespace
}  // namespace wlm
