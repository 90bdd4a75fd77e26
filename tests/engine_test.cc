#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/lock_manager.h"
#include "engine/memory_governor.h"
#include "engine/monitor.h"
#include "engine/optimizer.h"
#include "engine/progress.h"
#include "sim/simulation.h"

namespace wlm {
namespace {

QuerySpec MakeBiQuery(QueryId id, double cpu = 2.0, double io = 1000.0,
                      double mem = 128.0) {
  QuerySpec spec;
  spec.id = id;
  spec.kind = QueryKind::kBiQuery;
  spec.stmt = StatementType::kRead;
  spec.cpu_seconds = cpu;
  spec.io_ops = io;
  spec.memory_mb = mem;
  spec.result_rows = 1000;
  return spec;
}

QuerySpec MakeOltpTxn(QueryId id, std::vector<LockRequest> locks = {}) {
  QuerySpec spec;
  spec.id = id;
  spec.kind = QueryKind::kOltpTransaction;
  spec.stmt = StatementType::kDml;
  spec.cpu_seconds = 0.01;
  spec.io_ops = 5.0;
  spec.memory_mb = 1.0;
  spec.result_rows = 1;
  spec.locks = std::move(locks);
  return spec;
}

EngineConfig FastConfig() {
  EngineConfig cfg;
  cfg.num_cpus = 2;
  cfg.io_ops_per_second = 1000.0;
  cfg.memory_mb = 1024.0;
  cfg.tick_seconds = 0.01;
  cfg.optimizer.error_sigma = 0.0;  // oracle estimates unless a test opts in
  cfg.optimizer.rows_error_sigma = 0.0;
  return cfg;
}

// ---------------------------------------------------------------- Optimizer

TEST(OptimizerTest, PlanPreservesTrueTotals) {
  Optimizer opt;
  QuerySpec spec = MakeBiQuery(1, 3.0, 900.0);
  Plan plan = opt.BuildPlan(spec);
  EXPECT_NEAR(plan.TotalCpu(), 3.0, 1e-9);
  EXPECT_NEAR(plan.TotalIo(), 900.0, 1e-9);
  EXPECT_EQ(plan.query_id, 1u);
  EXPECT_GT(plan.operators.size(), 2u);
}

TEST(OptimizerTest, ZeroSigmaGivesExactEstimates) {
  OptimizerConfig cfg;
  cfg.error_sigma = 0.0;
  cfg.rows_error_sigma = 0.0;
  Optimizer opt(cfg);
  QuerySpec spec = MakeBiQuery(7, 2.0, 500.0);
  Plan plan = opt.BuildPlan(spec);
  EXPECT_NEAR(plan.est_cpu_seconds, 2.0, 1e-9);
  EXPECT_NEAR(plan.est_io_ops, 500.0, 1e-9);
  EXPECT_EQ(plan.est_rows, spec.result_rows);
}

TEST(OptimizerTest, EstimatesAreDeterministicPerQueryId) {
  Optimizer opt;  // default sigma > 0
  QuerySpec spec = MakeBiQuery(99);
  Plan a = opt.BuildPlan(spec);
  Plan b = opt.BuildPlan(spec);
  EXPECT_DOUBLE_EQ(a.est_cpu_seconds, b.est_cpu_seconds);
  EXPECT_DOUBLE_EQ(a.est_io_ops, b.est_io_ops);
}

TEST(OptimizerTest, ErrorVariesAcrossQueries) {
  Optimizer opt;
  int distinct = 0;
  double prev = -1.0;
  for (QueryId id = 1; id <= 20; ++id) {
    Plan p = opt.BuildPlan(MakeBiQuery(id, 1.0, 100.0));
    if (std::abs(p.est_cpu_seconds - prev) > 1e-12) ++distinct;
    prev = p.est_cpu_seconds;
  }
  EXPECT_GE(distinct, 15);
}

TEST(OptimizerTest, TimeronsCombineCpuAndIo) {
  OptimizerConfig cfg;
  cfg.error_sigma = 0.0;
  cfg.timerons_per_cpu_second = 100.0;
  cfg.timerons_per_io_op = 2.0;
  Optimizer opt(cfg);
  Plan plan = opt.BuildPlan(MakeBiQuery(1, 1.0, 50.0));
  EXPECT_NEAR(plan.est_timerons, 100.0 + 100.0, 1e-6);
}

TEST(OptimizerTest, OltpPlansAreSmall) {
  Optimizer opt;
  Plan plan = opt.BuildPlan(MakeOltpTxn(1));
  for (const PlanOperator& op : plan.operators) {
    EXPECT_NE(op.type, OperatorType::kHashJoin);
  }
}

TEST(PlanTest, StandaloneSecondsMatchesBottleneck) {
  Plan plan;
  PlanOperator op;
  op.cpu_seconds = 2.0;
  op.io_ops = 1000.0;
  plan.operators.push_back(op);
  // io at 1000 ops/s takes 1s < cpu 2s -> op takes 2s.
  EXPECT_DOUBLE_EQ(plan.StandaloneSeconds(1, 1000.0), 2.0);
  // with dop 4, cpu takes 0.5s < io 1s -> 1s.
  EXPECT_DOUBLE_EQ(plan.StandaloneSeconds(4, 1000.0), 1.0);
}

// -------------------------------------------------------------- LockManager

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, 100, LockMode::kShared));
  EXPECT_TRUE(lm.Acquire(2, 100, LockMode::kShared));
  EXPECT_EQ(lm.total_locks_held(), 2u);
  EXPECT_EQ(lm.blocked_txn_count(), 0u);
}

TEST(LockManagerTest, ExclusiveConflicts) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, 100, LockMode::kExclusive));
  EXPECT_FALSE(lm.Acquire(2, 100, LockMode::kExclusive));
  EXPECT_FALSE(lm.Acquire(3, 100, LockMode::kShared));
  EXPECT_EQ(lm.blocked_txn_count(), 2u);
}

TEST(LockManagerTest, ReleaseGrantsFifo) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.set_grant_callback([&](TxnId t, LockKey) { granted.push_back(t); });
  (void)lm.Acquire(1, 100, LockMode::kExclusive);
  (void)lm.Acquire(2, 100, LockMode::kExclusive);
  (void)lm.Acquire(3, 100, LockMode::kExclusive);
  lm.ReleaseAll(1);
  EXPECT_EQ(granted, (std::vector<TxnId>{2}));
  lm.ReleaseAll(2);
  EXPECT_EQ(granted, (std::vector<TxnId>{2, 3}));
}

TEST(LockManagerTest, SharedWaitersGrantTogether) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.set_grant_callback([&](TxnId t, LockKey) { granted.push_back(t); });
  (void)lm.Acquire(1, 5, LockMode::kExclusive);
  (void)lm.Acquire(2, 5, LockMode::kShared);
  (void)lm.Acquire(3, 5, LockMode::kShared);
  lm.ReleaseAll(1);
  EXPECT_EQ(granted.size(), 2u);
  EXPECT_EQ(lm.blocked_txn_count(), 0u);
}

TEST(LockManagerTest, WriterNotStarvedBehindReaders) {
  LockManager lm;
  (void)lm.Acquire(1, 5, LockMode::kShared);
  EXPECT_FALSE(lm.Acquire(2, 5, LockMode::kExclusive));
  // A later reader queues behind the writer instead of jumping it.
  EXPECT_FALSE(lm.Acquire(3, 5, LockMode::kShared));
  EXPECT_EQ(lm.blocked_txn_count(), 2u);
}

TEST(LockManagerTest, ReacquireHeldIsNoop) {
  LockManager lm;
  EXPECT_TRUE(lm.Acquire(1, 9, LockMode::kExclusive));
  EXPECT_TRUE(lm.Acquire(1, 9, LockMode::kExclusive));
  EXPECT_TRUE(lm.Acquire(1, 9, LockMode::kShared));
  EXPECT_EQ(lm.total_locks_held(), 1u);
}

TEST(LockManagerTest, UpgradeWaitsForOtherReaders) {
  LockManager lm;
  std::vector<TxnId> granted;
  lm.set_grant_callback([&](TxnId t, LockKey) { granted.push_back(t); });
  (void)lm.Acquire(1, 9, LockMode::kShared);
  (void)lm.Acquire(2, 9, LockMode::kShared);
  EXPECT_FALSE(lm.Acquire(1, 9, LockMode::kExclusive));  // upgrade blocks
  lm.ReleaseAll(2);
  EXPECT_EQ(granted, (std::vector<TxnId>{1}));
}

TEST(LockManagerTest, DeadlockDetected) {
  LockManager lm;
  (void)lm.Acquire(1, 100, LockMode::kExclusive);
  (void)lm.Acquire(2, 200, LockMode::kExclusive);
  EXPECT_FALSE(lm.Acquire(1, 200, LockMode::kExclusive));
  EXPECT_FALSE(lm.Acquire(2, 100, LockMode::kExclusive));
  std::vector<TxnId> victims = lm.FindDeadlockVictims();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 2u);  // youngest
}

TEST(LockManagerTest, NoFalseDeadlock) {
  LockManager lm;
  (void)lm.Acquire(1, 100, LockMode::kExclusive);
  (void)lm.Acquire(2, 100, LockMode::kExclusive);  // simple wait, no cycle
  EXPECT_TRUE(lm.FindDeadlockVictims().empty());
}

TEST(LockManagerTest, ThreeWayDeadlock) {
  LockManager lm;
  (void)lm.Acquire(1, 10, LockMode::kExclusive);
  (void)lm.Acquire(2, 20, LockMode::kExclusive);
  (void)lm.Acquire(3, 30, LockMode::kExclusive);
  (void)lm.Acquire(1, 20, LockMode::kExclusive);
  (void)lm.Acquire(2, 30, LockMode::kExclusive);
  (void)lm.Acquire(3, 10, LockMode::kExclusive);
  std::vector<TxnId> victims = lm.FindDeadlockVictims();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], 3u);
  // Aborting the victim clears the cycle.
  lm.ReleaseAll(3);
  EXPECT_TRUE(lm.FindDeadlockVictims().empty());
}

TEST(LockManagerTest, ConflictRatioRisesWithBlocking) {
  LockManager lm;
  EXPECT_DOUBLE_EQ(lm.ConflictRatio(), 1.0);
  (void)lm.Acquire(1, 1, LockMode::kExclusive);
  (void)lm.Acquire(1, 2, LockMode::kExclusive);
  EXPECT_DOUBLE_EQ(lm.ConflictRatio(), 1.0);
  // txn 2 holds a lock then blocks on key 1: its held lock counts in the
  // numerator but not the denominator.
  (void)lm.Acquire(2, 3, LockMode::kExclusive);
  (void)lm.Acquire(2, 1, LockMode::kExclusive);
  EXPECT_DOUBLE_EQ(lm.ConflictRatio(), 3.0 / 2.0);
}

TEST(LockManagerTest, ReleaseCancelsPendingWait) {
  LockManager lm;
  (void)lm.Acquire(1, 7, LockMode::kExclusive);
  (void)lm.Acquire(2, 7, LockMode::kExclusive);
  EXPECT_TRUE(lm.IsBlocked(2));
  lm.ReleaseAll(2);  // abort the waiter
  EXPECT_FALSE(lm.IsBlocked(2));
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.total_locks_held(), 0u);
}

TEST(LockManagerTest, ReleaseAllReturnsHoldSecondsFromFirstGrant) {
  LockManager lm;
  double now = 1.0;
  lm.set_time_source([&now] { return now; });
  ASSERT_TRUE(lm.Acquire(1, 10, LockMode::kShared));
  now = 2.0;
  ASSERT_TRUE(lm.Acquire(1, 20, LockMode::kExclusive));
  ASSERT_TRUE(lm.Acquire(2, 10, LockMode::kShared));
  now = 3.0;
  // The upgrade queues behind txn 2's shared lock and is granted when txn
  // 2 leaves; it keeps key 10's first grant time.
  EXPECT_FALSE(lm.Acquire(1, 10, LockMode::kExclusive));
  EXPECT_DOUBLE_EQ(lm.ReleaseAll(2), 1.0);
  EXPECT_FALSE(lm.IsBlocked(1));
  now = 5.0;
  EXPECT_DOUBLE_EQ(lm.ReleaseAll(1), (5.0 - 1.0) + (5.0 - 2.0));
  EXPECT_DOUBLE_EQ(lm.ReleaseAll(1), 0.0);  // nothing left to release

  LockManager untimed;
  ASSERT_TRUE(untimed.Acquire(1, 10, LockMode::kExclusive));
  EXPECT_DOUBLE_EQ(untimed.ReleaseAll(1), 0.0);
}

// ----------------------------------------------------------- MemoryGovernor

TEST(MemoryGovernorTest, FullGrantNoSpill) {
  MemoryGovernor mg(1000.0, 3.0);
  MemoryGrant g = mg.Grant(400.0);
  EXPECT_DOUBLE_EQ(g.granted_mb, 400.0);
  EXPECT_DOUBLE_EQ(g.spill_factor, 1.0);
  EXPECT_DOUBLE_EQ(mg.used_mb(), 400.0);
}

TEST(MemoryGovernorTest, PartialGrantSpills) {
  MemoryGovernor mg(1000.0, 3.0);
  mg.Grant(800.0);
  MemoryGrant g = mg.Grant(400.0);
  EXPECT_DOUBLE_EQ(g.granted_mb, 200.0);
  EXPECT_DOUBLE_EQ(g.spill_factor, 1.0 + 3.0 * 0.5);
}

TEST(MemoryGovernorTest, ExhaustedPoolMaxPenalty) {
  MemoryGovernor mg(100.0, 2.0);
  mg.Grant(100.0);
  MemoryGrant g = mg.Grant(50.0);
  EXPECT_DOUBLE_EQ(g.granted_mb, 0.0);
  EXPECT_DOUBLE_EQ(g.spill_factor, 3.0);
}

TEST(MemoryGovernorTest, ReleaseRestores) {
  MemoryGovernor mg(100.0, 2.0);
  MemoryGrant g = mg.Grant(60.0);
  mg.Release(g.granted_mb);
  EXPECT_DOUBLE_EQ(mg.used_mb(), 0.0);
  EXPECT_DOUBLE_EQ(mg.utilization(), 0.0);
}

TEST(MemoryGovernorTest, ZeroRequestIsFree) {
  MemoryGovernor mg(100.0, 2.0);
  MemoryGrant g = mg.Grant(0.0);
  EXPECT_DOUBLE_EQ(g.granted_mb, 0.0);
  EXPECT_DOUBLE_EQ(g.spill_factor, 1.0);
}

TEST(MemoryQuotaTest, MaxCapsGroupConsumption) {
  MemoryGovernor mg(1000.0, 2.0);
  mg.SetGroupQuota("capped", {0.0, 300.0});
  MemoryGrant first = mg.Grant("capped", 250.0);
  EXPECT_DOUBLE_EQ(first.granted_mb, 250.0);
  MemoryGrant second = mg.Grant("capped", 250.0);
  EXPECT_DOUBLE_EQ(second.granted_mb, 50.0);  // capped at 300 total
  EXPECT_GT(second.spill_factor, 1.0);
  // Another group is unaffected by the cap.
  EXPECT_DOUBLE_EQ(mg.Grant("other", 400.0).granted_mb, 400.0);
}

TEST(MemoryQuotaTest, MinReservationProtectedFromOthers) {
  MemoryGovernor mg(1000.0, 2.0);
  mg.SetGroupQuota("gold", {400.0, 1000.0});
  // An untagged request cannot take gold's idle reservation.
  MemoryGrant greedy = mg.Grant(900.0);
  EXPECT_DOUBLE_EQ(greedy.granted_mb, 600.0);
  // Gold can still get its full reserve.
  MemoryGrant gold = mg.Grant("gold", 400.0);
  EXPECT_DOUBLE_EQ(gold.granted_mb, 400.0);
  EXPECT_DOUBLE_EQ(gold.spill_factor, 1.0);
}

TEST(MemoryQuotaTest, AliasesPoolGroupsTogether) {
  MemoryGovernor mg(1000.0, 2.0);
  mg.SetGroupQuota("pool", {0.0, 500.0});
  mg.SetGroupAlias("group_a", "pool");
  mg.SetGroupAlias("group_b", "pool");
  EXPECT_DOUBLE_EQ(mg.Grant("group_a", 300.0).granted_mb, 300.0);
  // group_b shares the pool's cap.
  EXPECT_DOUBLE_EQ(mg.Grant("group_b", 300.0).granted_mb, 200.0);
  EXPECT_DOUBLE_EQ(mg.GroupUsed("pool"), 500.0);
  mg.Release("group_a", 300.0);
  EXPECT_DOUBLE_EQ(mg.GroupUsed("pool"), 200.0);
}

TEST(MemoryQuotaTest, ReleaseRestoresGroupHeadroom) {
  MemoryGovernor mg(1000.0, 2.0);
  mg.SetGroupQuota("g", {0.0, 100.0});
  mg.Grant("g", 100.0);
  EXPECT_DOUBLE_EQ(mg.Grant("g", 50.0).granted_mb, 0.0);
  mg.Release("g", 100.0);
  EXPECT_DOUBLE_EQ(mg.Grant("g", 50.0).granted_mb, 50.0);
}

// ------------------------------------------------------------ DatabaseEngine

TEST(EngineTest, SingleQueryCompletesAtExpectedTime) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  DatabaseEngine engine(&sim, cfg);
  QuerySpec spec = MakeBiQuery(1, 1.0, 500.0, 64.0);
  // Alone: per-op time = max(cpu, io/1000). Compute expected from plan.
  Plan plan = engine.optimizer().BuildPlan(spec);
  double expected = plan.StandaloneSeconds(1, cfg.io_ops_per_second);

  QueryOutcome outcome;
  bool finished = false;
  ExecutionContext ctx;
  ctx.tag = "bi";
  ctx.on_finish = [&](const QueryOutcome& o) {
    outcome = o;
    finished = true;
  };
  ASSERT_TRUE(engine.Dispatch(spec, std::move(ctx)).ok());
  sim.RunUntil(100.0);
  ASSERT_TRUE(finished);
  EXPECT_EQ(outcome.kind, OutcomeKind::kCompleted);
  EXPECT_NEAR(outcome.finish_time - outcome.dispatch_time, expected,
              5 * cfg.tick_seconds);
  EXPECT_NEAR(outcome.cpu_used, 1.0, 1e-6);
  EXPECT_NEAR(outcome.io_used, 500.0, 1e-6);
  EXPECT_EQ(engine.counters().completed, 1u);
  EXPECT_EQ(engine.running_count(), 0u);
}

TEST(EngineTest, DuplicateIdRejected) {
  Simulation sim;
  DatabaseEngine engine(&sim, FastConfig());
  ASSERT_TRUE(engine.Dispatch(MakeBiQuery(1), {}).ok());
  EXPECT_EQ(engine.Dispatch(MakeBiQuery(1), {}).code(),
            StatusCode::kAlreadyExists);
}

TEST(EngineTest, EqualWeightQueriesShareFairly) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  cfg.num_cpus = 1;
  DatabaseEngine engine(&sim, cfg);
  // Two cpu-bound queries (io negligible): each should take ~2x standalone.
  std::vector<double> finish(3, 0.0);
  for (QueryId id = 1; id <= 2; ++id) {
    QuerySpec spec = MakeBiQuery(id, 1.0, 1.0, 8.0);
    ExecutionContext ctx;
    ctx.on_finish = [&finish, id](const QueryOutcome& o) {
      finish[id] = o.finish_time;
    };
    ASSERT_TRUE(engine.Dispatch(spec, std::move(ctx)).ok());
  }
  sim.RunUntil(100.0);
  EXPECT_NEAR(finish[1], 2.0, 0.1);
  EXPECT_NEAR(finish[2], 2.0, 0.1);
}

TEST(EngineTest, HigherWeightFinishesFirst) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  cfg.num_cpus = 1;
  DatabaseEngine engine(&sim, cfg);
  std::vector<double> finish(3, 0.0);
  for (QueryId id = 1; id <= 2; ++id) {
    QuerySpec spec = MakeBiQuery(id, 1.0, 1.0, 8.0);
    ExecutionContext ctx;
    ctx.shares.cpu_weight = (id == 1) ? 3.0 : 1.0;
    ctx.on_finish = [&finish, id](const QueryOutcome& o) {
      finish[id] = o.finish_time;
    };
    ASSERT_TRUE(engine.Dispatch(spec, std::move(ctx)).ok());
  }
  sim.RunUntil(100.0);
  EXPECT_LT(finish[1], finish[2]);
  // 3:1 weights -> first finishes around t=4/3, second at t=2.
  EXPECT_NEAR(finish[1], 4.0 / 3.0, 0.1);
  EXPECT_NEAR(finish[2], 2.0, 0.1);
}

TEST(EngineTest, KillReleasesResources) {
  Simulation sim;
  DatabaseEngine engine(&sim, FastConfig());
  QueryOutcome outcome;
  ExecutionContext ctx;
  ctx.on_finish = [&](const QueryOutcome& o) { outcome = o; };
  ASSERT_TRUE(engine.Dispatch(MakeBiQuery(1, 10.0, 1e5, 512.0),
                              std::move(ctx)).ok());
  sim.RunUntil(1.0);
  EXPECT_GT(engine.memory().used_mb(), 0.0);
  ASSERT_TRUE(engine.Kill(1).ok());
  EXPECT_EQ(outcome.kind, OutcomeKind::kKilled);
  EXPECT_DOUBLE_EQ(engine.memory().used_mb(), 0.0);
  EXPECT_EQ(engine.running_count(), 0u);
  EXPECT_EQ(engine.Kill(1).code(), StatusCode::kNotFound);
}

TEST(EngineTest, SpillInflatesIo) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  cfg.memory_mb = 100.0;
  cfg.spill_penalty = 4.0;
  DatabaseEngine engine(&sim, cfg);
  QueryOutcome o1, o2;
  {
    ExecutionContext ctx;
    ctx.on_finish = [&](const QueryOutcome& o) { o1 = o; };
    ASSERT_TRUE(
        engine.Dispatch(MakeBiQuery(1, 0.1, 100.0, 100.0), std::move(ctx))
            .ok());
  }
  {
    ExecutionContext ctx;
    ctx.on_finish = [&](const QueryOutcome& o) { o2 = o; };
    ASSERT_TRUE(
        engine.Dispatch(MakeBiQuery(2, 0.1, 100.0, 100.0), std::move(ctx))
            .ok());
  }
  sim.RunUntil(100.0);
  EXPECT_DOUBLE_EQ(o1.spill_factor, 1.0);
  EXPECT_DOUBLE_EQ(o2.spill_factor, 5.0);  // granted 0 of 100
  EXPECT_NEAR(o2.io_used, 500.0, 1e-6);    // io inflated 5x
}

TEST(EngineTest, LockConflictSerializesTransactions) {
  Simulation sim;
  DatabaseEngine engine(&sim, FastConfig());
  std::vector<double> finish(3, -1.0);
  for (QueryId id = 1; id <= 2; ++id) {
    QuerySpec spec = MakeOltpTxn(id, {{42, true}});
    spec.cpu_seconds = 0.5;  // long enough to overlap
    ExecutionContext ctx;
    ctx.on_finish = [&finish, id](const QueryOutcome& o) {
      finish[id] = o.finish_time;
    };
    ASSERT_TRUE(engine.Dispatch(spec, std::move(ctx)).ok());
  }
  sim.RunUntil(100.0);
  // Txn 2 waited for txn 1's locks: strictly later, and roughly serial.
  EXPECT_GT(finish[2], finish[1]);
  EXPECT_GT(finish[2], 0.9 * 2 * 0.25);  // 0.5 cpu over 2 cpus each
}

TEST(EngineTest, DeadlockVictimAborted) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  cfg.deadlock_check_period = 0.1;
  DatabaseEngine engine(&sim, cfg);
  // Locks are acquired up-front in spec order, so a cycle needs an
  // interleaving: txn 1 briefly holds both keys; txns 2 and 3 queue on
  // opposite keys and, once txn 1 finishes, each grabs one key and waits
  // for the other -> deadlock.
  std::vector<OutcomeKind> kinds(4, OutcomeKind::kCompleted);
  QuerySpec blocker = MakeOltpTxn(1, {{1, true}, {2, true}});
  blocker.cpu_seconds = 0.3;
  QuerySpec a = MakeOltpTxn(2, {{1, true}, {2, true}});
  QuerySpec b = MakeOltpTxn(3, {{2, true}, {1, true}});
  a.cpu_seconds = b.cpu_seconds = 5.0;
  for (QuerySpec* spec : {&blocker, &a, &b}) {
    ExecutionContext ctx;
    QueryId id = spec->id;
    ctx.on_finish = [&kinds, id](const QueryOutcome& o) {
      kinds[id] = o.kind;
    };
    ASSERT_TRUE(engine.Dispatch(*spec, std::move(ctx)).ok());
  }
  sim.RunUntil(50.0);
  EXPECT_EQ(engine.counters().deadlock_aborts, 1u);
  EXPECT_EQ(kinds[3], OutcomeKind::kAbortedDeadlock);  // youngest in cycle
  EXPECT_EQ(kinds[1], OutcomeKind::kCompleted);
  EXPECT_EQ(kinds[2], OutcomeKind::kCompleted);
}

TEST(EngineTest, ConstantThrottleSlowsQuery) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  cfg.num_cpus = 4;
  DatabaseEngine engine(&sim, cfg);
  double finish = 0.0;
  ExecutionContext ctx;
  ctx.on_finish = [&](const QueryOutcome& o) { finish = o.finish_time; };
  QuerySpec spec = MakeBiQuery(1, 1.0, 1.0, 8.0);  // cpu bound, ~1s alone
  ASSERT_TRUE(engine.Dispatch(spec, std::move(ctx)).ok());
  ASSERT_TRUE(engine.SetDuty(1, 0.25).ok());
  sim.RunUntil(100.0);
  EXPECT_NEAR(finish, 4.0, 0.2);  // quarter speed
}

TEST(EngineTest, InterruptThrottlePausesOnce) {
  Simulation sim;
  DatabaseEngine engine(&sim, FastConfig());
  double finish = 0.0;
  ExecutionContext ctx;
  ctx.on_finish = [&](const QueryOutcome& o) { finish = o.finish_time; };
  QuerySpec spec = MakeBiQuery(1, 1.0, 1.0, 8.0);
  ASSERT_TRUE(engine.Dispatch(spec, std::move(ctx)).ok());
  sim.RunUntil(0.2);
  ASSERT_TRUE(engine.Pause(1, 3.0).ok());
  auto progress_during_pause = engine.GetProgress(1);
  ASSERT_TRUE(progress_during_pause.ok());
  EXPECT_TRUE(progress_during_pause->sleeping);
  sim.RunUntil(100.0);
  EXPECT_NEAR(finish, 4.0, 0.2);  // 1s of work + 3s pause
}

TEST(EngineTest, SharesCanBeChangedMidFlight) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  cfg.num_cpus = 1;
  DatabaseEngine engine(&sim, cfg);
  std::vector<double> finish(3, 0.0);
  for (QueryId id = 1; id <= 2; ++id) {
    ExecutionContext ctx;
    ctx.on_finish = [&finish, id](const QueryOutcome& o) {
      finish[id] = o.finish_time;
    };
    ASSERT_TRUE(
        engine.Dispatch(MakeBiQuery(id, 1.0, 1.0, 8.0), std::move(ctx)).ok());
  }
  // Demote query 1 drastically.
  ASSERT_TRUE(engine.SetShares(1, {0.1, 0.1}).ok());
  sim.RunUntil(100.0);
  EXPECT_GT(finish[1], finish[2]);
  EXPECT_EQ(engine.SetShares(1, {1.0, 1.0}).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.SetShares(2, {0.0, 1.0}).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, ProgressSnapshotTracksCompletion) {
  Simulation sim;
  DatabaseEngine engine(&sim, FastConfig());
  ASSERT_TRUE(engine.Dispatch(MakeBiQuery(1, 2.0, 10.0, 8.0), {}).ok());
  sim.RunUntil(0.5);
  auto p = engine.GetProgress(1);
  ASSERT_TRUE(p.ok());
  EXPECT_GT(p->fraction_done, 0.1);
  EXPECT_LT(p->fraction_done, 0.9);
  EXPECT_GT(p->remaining_cpu, 0.0);
  sim.RunUntil(100.0);
  EXPECT_EQ(engine.GetProgress(1).status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------ suspend/resume

TEST(EngineSuspendTest, DumpStateSuspendAndResumeCompletesWork) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  DatabaseEngine engine(&sim, cfg);
  QuerySpec spec = MakeBiQuery(1, 2.0, 1000.0, 256.0);
  std::vector<QueryOutcome> outcomes;
  ExecutionContext ctx;
  ctx.on_finish = [&](const QueryOutcome& o) { outcomes.push_back(o); };
  ASSERT_TRUE(engine.Dispatch(spec, ctx).ok());
  sim.RunUntil(1.0);  // mid-flight
  ASSERT_TRUE(engine.Suspend(1, SuspendStrategy::kDumpState).ok());
  sim.RunUntil(20.0);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, OutcomeKind::kSuspended);
  EXPECT_EQ(engine.running_count(), 0u);
  EXPECT_DOUBLE_EQ(engine.memory().used_mb(), 0.0);

  auto bundle = engine.TakeSuspended(1);
  ASSERT_TRUE(bundle.ok());
  EXPECT_GT(bundle->progress_at_suspend, 0.0);
  EXPECT_GT(bundle->suspend_io_cost, 0.0);
  EXPECT_DOUBLE_EQ(bundle->redo_cpu, 0.0);  // DumpState never redoes work

  ASSERT_TRUE(engine.Resume(*bundle, ctx).ok());
  sim.RunUntil(100.0);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[1].kind, OutcomeKind::kCompleted);
  // Total useful cpu across both runs covers the original demand.
  EXPECT_NEAR(outcomes[0].cpu_used + outcomes[1].cpu_used, 2.0, 0.01);
  EXPECT_EQ(engine.counters().resumes, 1u);
}

TEST(EngineSuspendTest, GoBackRedoesWorkSinceCheckpoint) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  DatabaseEngine engine(&sim, cfg);
  QuerySpec spec = MakeBiQuery(1, 2.0, 1000.0, 256.0);
  ASSERT_TRUE(engine.Dispatch(spec, {}).ok());
  sim.RunUntil(1.0);
  ASSERT_TRUE(engine.Suspend(1, SuspendStrategy::kGoBack).ok());
  sim.RunUntil(20.0);
  auto bundle = engine.TakeSuspended(1);
  ASSERT_TRUE(bundle.ok());
  // GoBack: cheap suspend (control state only), but work is redone.
  EXPECT_LT(bundle->saved_state_mb, 1.0);
  double total_remaining_cpu = 0.0;
  for (const auto& op : bundle->remaining_ops) {
    total_remaining_cpu += op.cpu_seconds;
  }
  // Remaining cpu includes the rolled-back (redo) portion.
  EXPECT_GT(total_remaining_cpu + 1e-9, 2.0 - bundle->progress_at_suspend * 2.0);
}

TEST(EngineSuspendTest, DumpStateCostExceedsGoBackCost) {
  for (SuspendStrategy strategy :
       {SuspendStrategy::kDumpState, SuspendStrategy::kGoBack}) {
    (void)strategy;
  }
  Simulation sim;
  DatabaseEngine engine(&sim, FastConfig());
  auto run_once = [&](QueryId id, SuspendStrategy strategy) {
    QuerySpec spec = MakeBiQuery(id, 2.0, 1000.0, 512.0);
    [&] { ASSERT_TRUE(engine.Dispatch(spec, {}).ok()); }();
    sim.RunFor(2.0);  // reach the stateful join phase
    [&] { ASSERT_TRUE(engine.Suspend(id, strategy).ok()); }();
    sim.RunFor(30.0);
    auto bundle = engine.TakeSuspended(id);
    [&] { ASSERT_TRUE(bundle.ok()); }();
    return *bundle;
  };
  SuspendedQuery dump = run_once(1, SuspendStrategy::kDumpState);
  SuspendedQuery goback = run_once(2, SuspendStrategy::kGoBack);
  EXPECT_GT(dump.suspend_io_cost, goback.suspend_io_cost);
  EXPECT_GT(goback.redo_cpu + goback.redo_io, 0.0);
}

TEST(EngineSuspendTest, SuspendErrorsOnUnknownOrDoubleSuspend) {
  Simulation sim;
  DatabaseEngine engine(&sim, FastConfig());
  EXPECT_EQ(engine.Suspend(9, SuspendStrategy::kGoBack).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(engine.Dispatch(MakeBiQuery(1), {}).ok());
  sim.RunUntil(0.1);
  ASSERT_TRUE(engine.Suspend(1, SuspendStrategy::kDumpState).ok());
  EXPECT_EQ(engine.Suspend(1, SuspendStrategy::kDumpState).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.TakeSuspended(1).status().code(), StatusCode::kNotFound);
}

// ----------------------------------------------------------- BufferPool

TEST(BufferPoolTest, DisabledPoolNeverHits) {
  BufferPool pool(0);
  EXPECT_FALSE(pool.enabled());
  EXPECT_DOUBLE_EQ(pool.Register(1, "a", 1000.0), 0.0);
  EXPECT_DOUBLE_EQ(pool.HitRatioFor("a", 1000.0), 0.0);
}

TEST(BufferPoolTest, HitRatioCappedAndProportional) {
  BufferPool pool(1000, /*max_hit_ratio=*/0.9);
  // Working set smaller than the pool: capped ratio.
  EXPECT_DOUBLE_EQ(pool.Register(1, "a", 100.0), 0.9);
  pool.Unregister(1);
  // Working set 10x the pool: ratio 0.1.
  EXPECT_NEAR(pool.Register(2, "a", 10000.0), 0.1, 1e-9);
}

TEST(BufferPoolTest, PriorityShiftsPagesBetweenGroups) {
  BufferPool pool(1000);
  pool.SetGroupPriority("gold", 3.0);
  pool.SetGroupPriority("bronze", 1.0);
  pool.Register(1, "gold", 2000.0);
  pool.Register(2, "bronze", 2000.0);
  double gold = pool.HitRatioFor("gold", 2000.0);
  double bronze = pool.HitRatioFor("bronze", 2000.0);
  EXPECT_NEAR(gold, 750.0 / 2000.0, 1e-9);
  EXPECT_NEAR(bronze, 250.0 / 2000.0, 1e-9);
  EXPECT_GT(gold, bronze);
}

TEST(BufferPoolTest, UnregisterReturnsPages) {
  BufferPool pool(1000);
  pool.Register(1, "a", 1000.0);
  pool.Register(2, "a", 1000.0);
  double crowded = pool.HitRatioFor("a", 1000.0);
  pool.Unregister(2);
  double roomy = pool.HitRatioFor("a", 1000.0);
  EXPECT_GT(roomy, crowded);
  EXPECT_EQ(pool.registered_count(), 1u);
}

TEST(EngineBufferPoolTest, HitsShrinkDeviceIo) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  cfg.buffer_pool_pages = 100000;  // plenty: high hit ratios
  DatabaseEngine engine(&sim, cfg);
  QueryOutcome outcome;
  ExecutionContext ctx;
  ctx.tag = "bi";
  ctx.on_finish = [&](const QueryOutcome& o) { outcome = o; };
  ASSERT_TRUE(engine.Dispatch(MakeBiQuery(1, 0.1, 1000.0, 8.0),
                              std::move(ctx)).ok());
  sim.RunUntil(60.0);
  EXPECT_GT(outcome.buffer_hit_ratio, 0.5);
  // Device I/O shrank by the hit ratio.
  EXPECT_NEAR(outcome.io_used, 1000.0 * (1.0 - outcome.buffer_hit_ratio),
              1.0);
}

TEST(EngineBufferPoolTest, HigherBufferPriorityFasterIoBoundQuery) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  cfg.num_cpus = 4;
  cfg.buffer_pool_pages = 2000;  // contended pool
  DatabaseEngine engine(&sim, cfg);
  engine.buffer_pool().SetGroupPriority("gold", 8.0);
  engine.buffer_pool().SetGroupPriority("bronze", 1.0);
  std::map<std::string, double> finish;
  for (int i = 0; i < 2; ++i) {
    QuerySpec spec = MakeBiQuery(static_cast<QueryId>(i + 1), 0.1,
                                 4000.0, 8.0);
    ExecutionContext ctx;
    ctx.tag = i == 0 ? "gold" : "bronze";
    std::string tag = ctx.tag;
    ctx.on_finish = [&finish, tag](const QueryOutcome& o) {
      finish[tag] = o.finish_time;
    };
    ASSERT_TRUE(engine.Dispatch(spec, std::move(ctx)).ok());
  }
  sim.RunUntil(120.0);
  EXPECT_LT(finish["gold"], finish["bronze"]);
}

// --------------------------------------------------------- group shares

TEST(EngineGroupShareTest, GroupOwnsItsShareRegardlessOfMemberCount) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  cfg.num_cpus = 1;
  DatabaseEngine engine(&sim, cfg);
  // Group "many": 4 queries; group "one": a single query. Equal group
  // weights -> the lone query gets as much as the four together.
  engine.SetGroupShares("many", {1.0, 1.0});
  engine.SetGroupShares("one", {1.0, 1.0});
  for (QueryId id = 1; id <= 4; ++id) {
    ExecutionContext ctx;
    ctx.tag = "many";
    ASSERT_TRUE(engine.Dispatch(MakeBiQuery(id, 10.0, 1.0, 4.0),
                                std::move(ctx)).ok());
  }
  ExecutionContext ctx;
  ctx.tag = "one";
  ASSERT_TRUE(engine.Dispatch(MakeBiQuery(9, 10.0, 1.0, 4.0),
                              std::move(ctx)).ok());
  sim.RunUntil(4.0);
  double many_cpu = 0.0;
  double one_cpu = 0.0;
  for (const ExecutionProgress& p : engine.Snapshot()) {
    if (p.tag == "many") many_cpu += p.cpu_used;
    if (p.tag == "one") one_cpu += p.cpu_used;
  }
  EXPECT_NEAR(many_cpu, one_cpu, 0.4);
  EXPECT_NEAR(one_cpu, 2.0, 0.3);  // half of 1 cpu x 4s
}

TEST(EngineGroupShareTest, UngroupedQueriesKeepPerQueryWeights) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  cfg.num_cpus = 1;
  DatabaseEngine engine(&sim, cfg);
  engine.SetGroupShares("pool", {1.0, 1.0});
  ExecutionContext grouped;
  grouped.tag = "pool";
  ASSERT_TRUE(engine.Dispatch(MakeBiQuery(1, 10.0, 1.0, 4.0),
                              std::move(grouped)).ok());
  ExecutionContext solo;
  solo.tag = "solo";
  solo.shares = {3.0, 3.0};  // singleton group with weight 3
  ASSERT_TRUE(engine.Dispatch(MakeBiQuery(2, 10.0, 1.0, 4.0),
                              std::move(solo)).ok());
  sim.RunUntil(4.0);
  auto pool_q = engine.GetProgress(1);
  auto solo_q = engine.GetProgress(2);
  ASSERT_TRUE(pool_q.ok());
  ASSERT_TRUE(solo_q.ok());
  // 1:3 weights -> solo gets ~3x the cpu.
  EXPECT_NEAR(solo_q->cpu_used / pool_q->cpu_used, 3.0, 0.5);
}

TEST(EngineGroupShareTest, ClearGroupSharesRestoresPerQuery) {
  Simulation sim;
  DatabaseEngine engine(&sim, FastConfig());
  engine.SetGroupShares("g", {5.0, 5.0});
  EXPECT_NE(engine.FindGroupShares("g"), nullptr);
  engine.ClearGroupShares("g");
  EXPECT_EQ(engine.FindGroupShares("g"), nullptr);
}

TEST(EngineSmoothingTest, SmoothedUtilizationBridgesIdleTicks) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  cfg.num_cpus = 1;
  DatabaseEngine engine(&sim, cfg);
  // Saturate for 2 seconds.
  ASSERT_TRUE(engine.Dispatch(MakeBiQuery(1, 2.0, 1.0, 4.0), {}).ok());
  sim.RunUntil(1.9);
  EXPECT_GT(engine.smoothed_cpu_utilization(), 0.8);
  // After completion the instantaneous value collapses immediately, the
  // smoothed one decays.
  sim.RunUntil(2.2);
  EXPECT_LT(engine.cpu_utilization(), 0.05);
  EXPECT_GT(engine.smoothed_cpu_utilization(), 0.3);
}

// ------------------------------------------------------- recycled executions
// A finished execution's storage serves the next dispatch (Reset in place),
// so a reused execution must behave exactly like a fresh one.

EngineConfig RecycleConfig() {
  EngineConfig cfg = FastConfig();
  cfg.deadlock_check_period = 0.1;
  cfg.buffer_pool_pages = 2000;  // non-zero hit ratios to carry over
  return cfg;
}

std::string Describe(const ExecPhaseTotals& p) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "lock=%a cpu=%a io=%a mem=%a thr=%a sus=%a",
                p.lock_wait_seconds, p.cpu_run_seconds, p.io_stall_seconds,
                p.memory_stall_seconds, p.throttled_seconds,
                p.suspend_flush_seconds);
  return buf;
}

std::string Describe(const QueryOutcome& o) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "id=%llu kind=%s dispatch=%a finish=%a cpu=%a io=%a mem=%a "
                "spill=%a hit=%a lock_wait=%a lock_hold=%a ",
                static_cast<unsigned long long>(o.id),
                OutcomeKindToString(o.kind), o.dispatch_time, o.finish_time,
                o.cpu_used, o.io_used, o.memory_granted_mb, o.spill_factor,
                o.buffer_hit_ratio, o.lock_wait_seconds, o.lock_hold_seconds);
  return buf + Describe(o.phases);
}

std::string Describe(const Result<ExecutionProgress>& r) {
  if (!r.ok()) return StatusCodeToString(r.status().code());
  const ExecutionProgress& p = *r;
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "id=%llu tag=%s kind=%s dispatch=%a elapsed=%a done=%a cpu=%a io=%a "
      "rem_cpu=%a rem_io=%a op=%d/%d locks=%d sleeping=%d suspending=%d "
      "rows=%lld duty=%a shares=%a/%a ",
      static_cast<unsigned long long>(p.id), p.tag.c_str(),
      QueryKindToString(p.kind), p.dispatch_time, p.elapsed, p.fraction_done,
      p.cpu_used, p.io_used, p.remaining_cpu, p.remaining_io, p.current_op,
      p.num_ops, p.blocked_on_locks, p.sleeping, p.suspending,
      static_cast<long long>(p.rows_emitted), p.duty, p.shares.cpu_weight,
      p.shares.io_weight);
  return buf + Describe(p.phases);
}

// Drives `engine` through every path that mutates an execution — a lock
// wait, SetDuty, Pause, SetShares, Suspend/TakeSuspended/Resume, a spilled
// grant, a deadlock victim, a kill while sleeping and one while waiting
// on a lock — and lets it go idle by `idle_at`.
void Churn(Simulation& sim, DatabaseEngine& engine, double idle_at) {
  auto dispatch = [&](const QuerySpec& spec) {
    ASSERT_TRUE(engine.Dispatch(spec, {}).ok());
  };
  QuerySpec holder = MakeOltpTxn(1, {{7, true}, {8, false}});
  holder.cpu_seconds = 0.3;
  dispatch(holder);
  dispatch(MakeOltpTxn(2, {{7, true}}));
  dispatch(MakeBiQuery(3, 1.0, 300.0, 64.0));
  ASSERT_TRUE(engine.SetDuty(3, 0.4).ok());
  dispatch(MakeBiQuery(4, 0.8, 200.0, 32.0));
  ASSERT_TRUE(engine.Pause(4, 0.5).ok());
  dispatch(MakeBiQuery(5, 0.6, 400.0, 48.0));
  ASSERT_TRUE(engine.SetShares(5, {0.3, 2.0}).ok());
  dispatch(MakeBiQuery(6, 2.0, 1000.0, 256.0));
  engine.memory().SetPressureMb(engine.memory().total_mb() - 400.0);
  dispatch(MakeBiQuery(7, 0.5, 300.0, 200.0));  // a short grant: spills
  engine.memory().SetPressureMb(0.0);
  QuerySpec blocker = MakeOltpTxn(8, {{1, true}, {2, true}});
  blocker.cpu_seconds = 0.3;
  QuerySpec a = MakeOltpTxn(9, {{1, true}, {2, true}});
  QuerySpec b = MakeOltpTxn(10, {{2, true}, {1, true}});
  a.cpu_seconds = b.cpu_seconds = 1.0;
  dispatch(blocker);
  dispatch(a);
  dispatch(b);
  dispatch(MakeBiQuery(11, 5.0, 100.0, 16.0));
  dispatch(MakeOltpTxn(12, {{7, true}}));
  sim.RunUntil(0.1);
  ASSERT_TRUE(engine.Kill(12).ok());  // still waiting behind txn 1
  sim.RunUntil(0.5);
  ASSERT_TRUE(engine.Suspend(6, SuspendStrategy::kDumpState).ok());
  ASSERT_TRUE(engine.Pause(11, 2.0).ok());
  sim.RunUntil(1.0);
  ASSERT_TRUE(engine.Kill(11).ok());  // killed mid-pause
  sim.RunUntil(3.0);
  Result<SuspendedQuery> bundle = engine.TakeSuspended(6);
  ASSERT_TRUE(bundle.ok());
  ASSERT_TRUE(engine.Resume(*bundle, {}).ok());
  sim.RunUntil(idle_at);
  EXPECT_EQ(engine.counters().deadlock_aborts, 1u);
  EXPECT_EQ(engine.counters().killed, 2u);
  EXPECT_EQ(engine.counters().resumes, 1u);
  ASSERT_EQ(engine.running_count(), 0u);
}

// Dispatches one fixed batch from the current time and records every
// outcome and, every 50 ms until the batch is done, every batch query's
// progress snapshot. First come a lock holder and eleven waiters, ten of
// them killed in their wait: together they take every execution the churn
// left, and the killed ones report the grant, spill and hit fields before
// any grant sets them. The BI queries dispatched 100 ms later run on the
// killed waiters' executions.
std::vector<std::string> RunBatch(Simulation& sim, DatabaseEngine& engine) {
  std::vector<std::string> log;
  std::vector<QueryId> ids;
  auto dispatch = [&](const QuerySpec& spec) {
    ExecutionContext ctx;
    ctx.tag = spec.id % 2 == 0 ? "even" : "odd";
    ctx.on_finish = [&log](const QueryOutcome& o) {
      log.push_back(Describe(o));
    };
    EXPECT_TRUE(engine.Dispatch(spec, std::move(ctx)).ok());
    ids.push_back(spec.id);
  };
  QuerySpec holder = MakeOltpTxn(101, {{5, true}});
  holder.cpu_seconds = 0.2;
  dispatch(holder);
  for (QueryId id = 102; id <= 112; ++id) {
    dispatch(MakeOltpTxn(id, {{6, false}, {5, true}}));
  }
  const double start = sim.Now();
  for (int step = 1; step <= 2000 && engine.running_count() > 0; ++step) {
    sim.RunUntil(start + 0.05 * step);
    for (QueryId id = 102; step == 1 && id <= 111; ++id) {
      EXPECT_TRUE(engine.Kill(id).ok());
    }
    for (QueryId id = 113; step == 2 && id <= 125; ++id) {
      const double k = static_cast<double>(id - 110);
      dispatch(MakeBiQuery(id, 0.1 * k, 40.0 * k, 20.0 * k));
    }
    for (QueryId id : ids) log.push_back(Describe(engine.GetProgress(id)));
  }
  EXPECT_EQ(engine.running_count(), 0u);
  return log;
}

TEST(RecycledExecutionTest, ReusedExecutionBehavesLikeAFreshOne) {
  constexpr double kIdleAt = 60.0;
  Simulation churned_sim;
  DatabaseEngine churned(&churned_sim, RecycleConfig());
  Churn(churned_sim, churned, kIdleAt);
  Simulation fresh_sim;
  DatabaseEngine fresh(&fresh_sim, RecycleConfig());
  fresh_sim.RunUntil(kIdleAt);

  const std::vector<std::string> reused = RunBatch(churned_sim, churned);
  const std::vector<std::string> expected = RunBatch(fresh_sim, fresh);
  ASSERT_EQ(reused.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(reused[i], expected[i]) << "record " << i;
  }
}

TEST(RecycledExecutionTest, FinishedExecutionDropsItsCallback) {
  Simulation sim;
  DatabaseEngine engine(&sim, FastConfig());
  auto token = std::make_shared<int>(0);
  for (QueryId id = 1; id <= 2; ++id) {
    ExecutionContext ctx;
    ctx.on_finish = [token](const QueryOutcome&) { ++*token; };
    ASSERT_TRUE(
        engine.Dispatch(MakeBiQuery(id, 0.5, 10.0, 8.0), std::move(ctx)).ok());
  }
  EXPECT_EQ(token.use_count(), 3);
  sim.RunUntil(0.1);
  ASSERT_TRUE(engine.Kill(2).ok());
  sim.RunUntil(10.0);
  EXPECT_EQ(*token, 2);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(RecycledExecutionTest, DispatchFromAFinishCallbackGetsAnotherExecution) {
  Simulation sim;
  DatabaseEngine engine(&sim, FastConfig());
  // Query 1's callback dispatches query 2 while it still runs: the node
  // query 1 leaves must not serve that dispatch, or the running callback
  // would be overwritten under itself.
  const std::string label(64, 'x');  // on the heap, inside the callback
  std::vector<std::string> seen;
  ExecutionContext first;
  first.on_finish = [&, label](const QueryOutcome&) {
    ExecutionContext second;
    second.on_finish = [&seen](const QueryOutcome& o) {
      seen.push_back("second " + std::to_string(o.id));
    };
    EXPECT_TRUE(
        engine.Dispatch(MakeBiQuery(2, 0.1, 10.0, 8.0), std::move(second))
            .ok());
    seen.push_back(label);
  };
  ASSERT_TRUE(
      engine.Dispatch(MakeBiQuery(1, 0.1, 10.0, 8.0), std::move(first)).ok());
  sim.RunUntil(10.0);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], label);
  EXPECT_EQ(seen[1], "second 2");
}

// ------------------------------------------------------------------ Monitor

TEST(MonitorTest, SamplesSeriesAndThroughput) {
  Simulation sim;
  DatabaseEngine engine(&sim, FastConfig());
  Monitor monitor(&sim, &engine, 1.0);
  monitor.Start();
  // Completion stream recorded by hand (core wires this automatically).
  sim.Schedule(0.5, [&] {
    monitor.RecordCompletion("oltp", 0.1, 0.9, OutcomeKind::kCompleted);
    monitor.RecordCompletion("oltp", 0.2, 0.8, OutcomeKind::kCompleted);
  });
  sim.RunUntil(2.0);
  const TimeSeries* tp = monitor.FindSeries("throughput:oltp");
  ASSERT_NE(tp, nullptr);
  EXPECT_DOUBLE_EQ(tp->points()[0].value, 2.0);  // 2 in first interval
  EXPECT_DOUBLE_EQ(tp->points()[1].value, 0.0);
  EXPECT_EQ(monitor.tag_stats("oltp").completed, 2);
  EXPECT_NEAR(monitor.tag_stats("oltp").response_times.mean(), 0.15, 1e-9);
}

TEST(MonitorTest, ListenersFireEachSample) {
  Simulation sim;
  DatabaseEngine engine(&sim, FastConfig());
  Monitor monitor(&sim, &engine, 0.5);
  int samples = 0;
  monitor.AddSampleListener([&](const SystemIndicators&) { ++samples; });
  monitor.Start();
  sim.RunUntil(2.0);
  EXPECT_EQ(samples, 4);
  monitor.Stop();
  sim.RunUntil(4.0);
  EXPECT_EQ(samples, 4);
}

TEST(MonitorTest, KilledOutcomesCountedSeparately) {
  Simulation sim;
  DatabaseEngine engine(&sim, FastConfig());
  Monitor monitor(&sim, &engine, 1.0);
  monitor.RecordCompletion("bi", 1.0, 0.5, OutcomeKind::kKilled);
  monitor.RecordCompletion("bi", 1.0, 0.5, OutcomeKind::kAbortedDeadlock);
  EXPECT_EQ(monitor.tag_stats("bi").killed, 1);
  EXPECT_EQ(monitor.tag_stats("bi").aborted, 1);
  EXPECT_EQ(monitor.tag_stats("bi").completed, 0);
  EXPECT_EQ(monitor.tag_stats("bi").response_times.count(), 0);
}

// ---------------------------------------------------------- ProgressTracker

TEST(ProgressTrackerTest, EstimatesRemainingFromObservedSpeed) {
  Simulation sim;
  EngineConfig cfg = FastConfig();
  DatabaseEngine engine(&sim, cfg);
  ProgressTracker tracker(cfg.io_ops_per_second);
  ASSERT_TRUE(engine.Dispatch(MakeBiQuery(1, 4.0, 10.0, 8.0), {}).ok());
  // Observe at regular intervals.
  for (int i = 1; i <= 10; ++i) {
    sim.RunUntil(0.1 * i);
    auto p = engine.GetProgress(1);
    if (p.ok()) tracker.Observe(*p, sim.Now());
  }
  auto p = engine.GetProgress(1);
  ASSERT_TRUE(p.ok());
  double estimate = tracker.EstimateRemainingSeconds(*p);
  // ~4s of cpu at 2 cpus... dop=1 so rate is 1 cpu: total ~4s, 1s elapsed.
  EXPECT_NEAR(estimate, 3.0, 0.5);
  tracker.Forget(1);
  EXPECT_EQ(tracker.tracked_count(), 0u);
}

TEST(ProgressTrackerTest, NoProgressYieldsHugeEstimate) {
  ProgressTracker tracker(1000.0);
  ExecutionProgress p;
  p.id = 1;
  p.remaining_cpu = 10.0;
  p.elapsed = 5.0;
  p.cpu_used = 0.0;
  p.io_used = 0.0;
  EXPECT_GT(tracker.EstimateRemainingSeconds(p), 1e12);
}

}  // namespace
}  // namespace wlm
