// Property-style tests: invariants that must hold across randomized
// parameter sweeps, checked with parameterized gtest. These complement
// the per-module unit tests with cross-cutting guarantees:
//   - engine conservation: work in == work out, capacity never exceeded
//   - lock manager safety: no conflicting grants, ever
//   - lock table vs its reference: same answers, grants and victims
//   - plan slicing: lossless decomposition for arbitrary plans
//   - queueing formulas vs the simulated engine (model cross-validation)
//   - deterministic replay: identical seeds -> identical outcomes
//   - dispatch index vs Order: the manager's index for a declared queue
//     discipline dispatches exactly as the scheduler's Order would
//   - IdIndex vs std::unordered_map, IdSet vs std::unordered_set: same
//     answers under any traffic
//   - request retirement: one terminal callback per query, then gone;
//     only in-flight requests retained, however long the run

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "admission/threshold_admission.h"
#include "common/id_index.h"
#include "execution/kill.h"
#include "execution/suspend_resume.h"
#include "execution/timeout_escalation.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "scheduling/mpl_scheduler.h"
#include "scheduling/queue_schedulers.h"
#include "scheduling/restructuring.h"
#include "tests/queueing.h"
#include "tests/reference_lock_manager.h"
#include "telemetry/exporters.h"
#include "tests/wlm_test_util.h"
#include "workloads/generators.h"

namespace wlm {
namespace {

// ------------------------------------------------- engine conservation

class EngineConservationSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineConservationSweep, WorkConservedAndCapacityRespected) {
  uint64_t seed = GetParam();
  Simulation sim;
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = 2;
  cfg.memory_mb = 256.0;  // spills occur: io inflation must be consistent
  DatabaseEngine engine(&sim, cfg);

  WorkloadGenerator gen(seed);
  BiWorkloadConfig bi;
  bi.cpu_mu = -1.0;
  std::map<QueryId, QuerySpec> specs;
  std::map<QueryId, QueryOutcome> outcomes;
  engine.set_finish_observer(
      [&](const QueryOutcome& o) { outcomes[o.id] = o; });
  for (int i = 0; i < 12; ++i) {
    QuerySpec spec = gen.NextBi(bi);
    specs[spec.id] = spec;
    ASSERT_TRUE(engine.Dispatch(spec, {}).ok());
  }
  sim.RunUntil(600.0);
  ASSERT_EQ(outcomes.size(), specs.size());

  double total_cpu = 0.0;
  for (const auto& [id, outcome] : outcomes) {
    EXPECT_EQ(outcome.kind, OutcomeKind::kCompleted);
    // Work conservation: exactly the spec'd cpu was executed; io was the
    // spec'd io inflated by the recorded spill factor.
    EXPECT_NEAR(outcome.cpu_used, specs[id].cpu_seconds, 1e-6);
    EXPECT_NEAR(outcome.io_used, specs[id].io_ops * outcome.spill_factor,
                1e-3);
    EXPECT_GE(outcome.spill_factor, 1.0);
    EXPECT_LE(outcome.spill_factor, 1.0 + cfg.spill_penalty + 1e-9);
    total_cpu += outcome.cpu_used;
    // Capacity: a query can never run faster than alone.
    double wall = outcome.finish_time - outcome.dispatch_time;
    EXPECT_GE(wall + 2 * cfg.tick_seconds,
              specs[id].cpu_seconds / std::max(1, specs[id].dop));
    // The engine's phase decomposition partitions the segment's wall
    // time exactly (conservation, engine side).
    EXPECT_NEAR(outcome.phases.Sum(), wall, 1e-6);
    EXPECT_GE(outcome.phases.memory_stall_seconds, 0.0);
  }
  // Engine-level accounting matches the sum of per-query usage.
  EXPECT_NEAR(engine.counters().cpu_used_seconds, total_cpu, 1e-3);
  // Memory fully returned.
  EXPECT_NEAR(engine.memory().used_mb(), 0.0, 1e-9);
  EXPECT_EQ(engine.lock_manager().total_locks_held(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineConservationSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------- lock-safety sweep

class LockSafetySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockSafetySweep, NoConflictingGrantsUnderRandomTraffic) {
  // Random acquire/release traffic; after every operation, validate that
  // no key has an exclusive holder alongside any other holder.
  Rng rng(GetParam());
  LockManager lm;
  std::map<TxnId, std::map<LockKey, LockMode>> held;
  std::map<TxnId, std::map<LockKey, LockMode>> wanted;
  lm.set_grant_callback([&](TxnId txn, LockKey key) {
    held[txn][key] = wanted[txn][key];
  });

  auto validate = [&] {
    std::map<LockKey, std::pair<int, int>> counts;  // key -> (shared, excl)
    for (const auto& [txn, locks] : held) {
      for (const auto& [key, mode] : locks) {
        if (mode == LockMode::kExclusive) {
          ++counts[key].second;
        } else {
          ++counts[key].first;
        }
      }
    }
    for (const auto& [key, c] : counts) {
      if (c.second > 0) {
        ASSERT_EQ(c.second, 1) << "two exclusive holders on key " << key;
        ASSERT_EQ(c.first, 0) << "shared+exclusive on key " << key;
      }
    }
  };

  for (int op = 0; op < 2000; ++op) {
    TxnId txn = static_cast<TxnId>(rng.UniformInt(1, 20));
    if (rng.Bernoulli(0.7)) {
      LockKey key = static_cast<LockKey>(rng.UniformInt(1, 15));
      LockMode mode =
          rng.Bernoulli(0.4) ? LockMode::kExclusive : LockMode::kShared;
      // Sequential acquisition discipline: a blocked txn issues nothing.
      if (lm.IsBlocked(txn)) continue;
      wanted[txn][key] = mode;
      if (lm.Acquire(txn, key, mode)) {
        held[txn][key] = mode;
      }
    } else {
      lm.ReleaseAll(txn);
      held.erase(txn);
      wanted.erase(txn);
    }
    validate();
    // Resolve any deadlock so the traffic keeps flowing.
    for (TxnId victim : lm.FindDeadlockVictims()) {
      lm.ReleaseAll(victim);
      held.erase(victim);
      wanted.erase(victim);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockSafetySweep,
                         ::testing::Values(7, 11, 23, 41, 59, 97));

// ------------------------------------- lock-table differential sweep

class LockTableDifferentialSweep
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LockTableDifferentialSweep, MatchesReferenceUnderRandomTraffic) {
  // Random acquire/upgrade/release traffic, with deadlocks resolved
  // through FindDeadlockVictims, runs through LockManager and through the
  // reference table it replaced (tests/reference_lock_manager.h). Every
  // answer, grant callback and counter must agree; hold seconds are summed
  // in another order, so they agree to a relative 1e-12.
  Rng rng(GetParam());
  double now = 0.0;
  LockManager lm;
  ReferenceLockManager ref;
  using Grants = std::vector<std::pair<TxnId, LockKey>>;
  Grants grants;
  Grants ref_grants;
  std::map<TxnId, std::map<LockKey, LockMode>> held;
  std::map<TxnId, std::map<LockKey, LockMode>> wanted;
  lm.set_grant_callback([&](TxnId txn, LockKey key) {
    grants.emplace_back(txn, key);
    held[txn][key] = wanted[txn][key];
  });
  ref.set_grant_callback(
      [&](TxnId txn, LockKey key) { ref_grants.emplace_back(txn, key); });
  lm.set_time_source([&] { return now; });
  ref.set_time_source([&] { return now; });
  constexpr TxnId kTxns = 24;
  constexpr int64_t kKeys = 12;
  int waits = 0;
  int upgrades = 0;
  int deadlocks = 0;

  auto release = [&](TxnId txn) {
    const double expected = ref.HeldSeconds(txn, now);
    ref.ReleaseAll(txn);
    const double released = lm.ReleaseAll(txn);
    EXPECT_LE(std::abs(released - expected), 1e-12 * std::abs(expected))
        << "txn " << txn << " released " << released << ", reference "
        << expected;
    held.erase(txn);
    wanted.erase(txn);
  };
  auto compare = [&](int op) {
    ASSERT_EQ(grants, ref_grants) << "grant callbacks differ at op " << op;
    grants.clear();
    ref_grants.clear();
    for (TxnId txn = 1; txn <= kTxns; ++txn) {
      ASSERT_EQ(lm.IsBlocked(txn), ref.IsBlocked(txn))
          << "txn " << txn << " at op " << op;
    }
    ASSERT_EQ(lm.blocked_txn_count(), ref.blocked_txn_count()) << op;
    ASSERT_EQ(lm.total_locks_held(), ref.total_locks_held()) << op;
    ASSERT_EQ(lm.txn_count(), ref.txn_count()) << op;
    ASSERT_EQ(lm.ConflictRatio(), ref.ConflictRatio()) << op;
  };

  for (int op = 0; op < 3000; ++op) {
    now += rng.Exponential(0.5);
    TxnId txn = static_cast<TxnId>(rng.UniformInt(1, kTxns));
    if (rng.Bernoulli(0.75)) {
      // Sequential acquisition discipline: a blocked txn issues nothing.
      if (lm.IsBlocked(txn)) continue;
      LockKey key = static_cast<LockKey>(rng.Zipf(kKeys, 0.7) + 1);
      LockMode mode =
          rng.Bernoulli(0.35) ? LockMode::kExclusive : LockMode::kShared;
      auto& mine = held[txn];
      if (!mine.empty() && rng.Bernoulli(0.3)) {
        // Upgrade (or re-acquire) one of the keys it holds.
        auto it = mine.begin();
        std::advance(it, rng.UniformInt(0, std::ssize(mine) - 1));
        key = it->first;
        mode = LockMode::kExclusive;
        if (it->second == LockMode::kShared) ++upgrades;
      }
      wanted[txn][key] = mode;
      const bool granted = lm.Acquire(txn, key, mode);
      ASSERT_EQ(granted, ref.Acquire(txn, key, mode))
          << "txn " << txn << " key " << key << " at op " << op;
      if (granted) {
        held[txn][key] = mode;
      } else {
        ++waits;
      }
    } else {
      release(txn);
    }
    ASSERT_NO_FATAL_FAILURE(compare(op));
    const std::vector<TxnId> victims = lm.FindDeadlockVictims();
    ASSERT_EQ(victims, ref.FindDeadlockVictims()) << "at op " << op;
    for (TxnId victim : victims) {
      ++deadlocks;
      release(victim);
    }
    ASSERT_NO_FATAL_FAILURE(compare(op));
  }
  // The traffic exercised what the sweep claims to compare.
  EXPECT_GT(waits, 100);
  EXPECT_GT(upgrades, 20);
  EXPECT_GT(deadlocks, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockTableDifferentialSweep,
                         ::testing::Values(4, 9, 16, 25, 36, 49, 64, 81));

// ------------------------------------------------------- IdIndex sweep

// Parameters: the key stride (0 = random 64-bit keys) and the seed.
class IdIndexSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(IdIndexSweep, AgreesWithUnorderedMap) {
  // The index behind every per-query store, against std::unordered_map
  // under seeded insert/erase/find traffic. Phases: growth from empty, a
  // mixed phase, a window of live keys sliding far past the table size
  // (the stores' evict-oldest pattern, which runs backward-shift erase on
  // clusters wrapping around the end of the table), then a full drain.
  const auto [stride, seed] = GetParam();
  Rng rng(seed);
  std::vector<uint64_t> keys(1 << 16);
  for (size_t n = 0; n < keys.size(); ++n) {
    keys[n] = stride == 0 ? rng.Next() : n * stride;
  }
  IdIndex index;
  std::unordered_map<uint64_t, uint32_t> ref;
  auto check = [&](uint64_t key) {
    auto it = ref.find(key);
    ASSERT_EQ(index.Find(key), it == ref.end() ? IdIndex::kNone : it->second)
        << "key " << key;
  };
  auto check_range = [&](size_t begin, size_t end) {
    ASSERT_EQ(index.size(), ref.size());
    for (size_t n = begin; n < end; ++n) {
      ASSERT_NO_FATAL_FAILURE(check(keys[n]));
    }
  };
  auto insert = [&](uint64_t key) {
    const auto slot = static_cast<uint32_t>(rng.UniformInt(0, 1 << 30));
    index.Insert(key, slot);
    ref[key] = slot;
  };
  auto erase = [&](uint64_t key) {
    // Erase returns the slot it unmapped, the one the reference held.
    auto it = ref.find(key);
    EXPECT_EQ(index.Erase(key), it == ref.end() ? IdIndex::kNone : it->second)
        << "key " << key;
    if (it != ref.end()) ref.erase(it);
  };

  // Growth: 4096 keys from an empty table, through nine doublings.
  for (size_t n = 0; n < 4096; ++n) {
    insert(keys[n]);
    ASSERT_NO_FATAL_FAILURE(check(keys[n]));
    if ((n & (n + 1)) == 0) {
      ASSERT_NO_FATAL_FAILURE(check_range(0, 8192));
    }
  }
  // Mixed: inserts (some overwriting), erases (some of absent keys) and
  // finds over 8192 keys.
  for (int op = 0; op < 20000; ++op) {
    const uint64_t key = keys[static_cast<size_t>(rng.UniformInt(0, 8191))];
    const double dice = rng.Uniform01();
    if (dice < 0.45) {
      insert(key);
    } else if (dice < 0.8) {
      erase(key);
    }
    ASSERT_NO_FATAL_FAILURE(check(key));
    ASSERT_EQ(index.size(), ref.size()) << "op " << op;
    if (op % 2000 == 1999) {
      ASSERT_NO_FATAL_FAILURE(check_range(0, 8192));
    }
  }
  for (size_t n = 0; n < 8192; ++n) erase(keys[n]);
  ASSERT_NO_FATAL_FAILURE(check_range(0, 8192));
  // Sliding window: 1000 live keys, 40000 times insert the newest and
  // erase the oldest.
  constexpr size_t kWindow = 1000;
  for (size_t n = 8192; n < 8192 + kWindow; ++n) insert(keys[n]);
  for (size_t n = 8192 + kWindow; n < 8192 + kWindow + 40000; ++n) {
    insert(keys[n]);
    erase(keys[n - kWindow]);
    ASSERT_NO_FATAL_FAILURE(check(keys[n]));
    ASSERT_NO_FATAL_FAILURE(check(keys[n - kWindow]));
    ASSERT_NO_FATAL_FAILURE(
        check(keys[n - static_cast<size_t>(rng.UniformInt(0, kWindow))]));
    if (n % 4096 == 0) {
      ASSERT_NO_FATAL_FAILURE(check_range(n - 2 * kWindow, n + 1));
    }
  }
  // Drain: erase everything in random order.
  std::vector<uint64_t> live;
  for (const auto& [key, slot] : ref) live.push_back(key);
  std::sort(live.begin(), live.end());
  for (size_t i = live.size(); i > 1; --i) {
    const int64_t pick = rng.UniformInt(0, static_cast<int64_t>(i) - 1);
    std::swap(live[i - 1], live[static_cast<size_t>(pick)]);
  }
  for (uint64_t key : live) {
    erase(key);
    ASSERT_NO_FATAL_FAILURE(check(key));
  }
  EXPECT_EQ(index.size(), 0u);
  ASSERT_NO_FATAL_FAILURE(check_range(0, keys.size()));
}

// The paged id set the cluster dispatcher keeps per shard, against
// std::unordered_set: rising, strided and random keys, page boundaries and
// the top of the 64-bit range.
class IdSetSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(IdSetSweep, AgreesWithUnorderedSet) {
  const auto [stride, seed] = GetParam();
  Rng rng(seed);
  IdSet set;
  std::unordered_set<uint64_t> ref;
  auto key = [&](uint64_t n) { return stride == 0 ? rng.Next() : n * stride; };
  std::vector<uint64_t> probes = {0, 4095, 4096, 4097, ~uint64_t{0},
                                  ~uint64_t{0} - 4096};
  for (uint64_t n = 0; n < 20000; ++n) {
    const uint64_t id = key(n);
    probes.push_back(id + 1);
    if (rng.Bernoulli(0.7)) {
      set.Insert(id);
      ref.insert(id);
    }
    ASSERT_EQ(set.Contains(id), ref.count(id) > 0) << "key " << id;
  }
  set.Insert(~uint64_t{0});
  ref.insert(~uint64_t{0});
  for (uint64_t id : probes) {
    ASSERT_EQ(set.Contains(id), ref.count(id) > 0) << "key " << id;
  }
  for (uint64_t id : ref) ASSERT_TRUE(set.Contains(id)) << "key " << id;
}

INSTANTIATE_TEST_SUITE_P(
    KeysAndSeeds, IdSetSweep,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{3},
                                         uint64_t{5000}, uint64_t{0}),
                       ::testing::Values(uint64_t{3})));

INSTANTIATE_TEST_SUITE_P(
    KeysAndSeeds, IdIndexSweep,
    ::testing::Combine(
        ::testing::Values(uint64_t{1}, uint64_t{4}, uint64_t{1024},
                          uint64_t{0}),
        ::testing::Values(uint64_t{3}, uint64_t{17})));

// ----------------------------------------------------- SlicePlan sweep

class SlicePlanSweep : public ::testing::TestWithParam<double> {};

TEST_P(SlicePlanSweep, LosslessForRandomPlansAtAnyBudget) {
  double budget = GetParam();
  Rng rng(static_cast<uint64_t>(budget * 1000.0) + 3);
  Optimizer optimizer;
  WorkloadGenerator gen(17);
  BiWorkloadConfig bi;
  const double io_rate = 1000.0;
  for (int trial = 0; trial < 20; ++trial) {
    QuerySpec spec = gen.NextBi(bi);
    Plan plan = optimizer.BuildPlan(spec);
    std::vector<Plan> chunks = SlicePlan(plan, budget, io_rate);
    double cpu = 0.0, io = 0.0, state = 0.0;
    for (const Plan& chunk : chunks) {
      EXPECT_LE(chunk.TotalWork(io_rate), budget + 1e-6);
      cpu += chunk.TotalCpu();
      io += chunk.TotalIo();
      for (const PlanOperator& op : chunk.operators) {
        state += op.max_state_mb;
        EXPECT_GE(op.cpu_seconds, -1e-12);
        EXPECT_GE(op.io_ops, -1e-9);
      }
    }
    EXPECT_NEAR(cpu, plan.TotalCpu(), 1e-6);
    EXPECT_NEAR(io, plan.TotalIo(), 1e-6);
    // Sliced state sums to the original (pieces hold proportional state).
    double original_state = 0.0;
    for (const PlanOperator& op : plan.operators) {
      original_state += op.max_state_mb;
    }
    EXPECT_NEAR(state, original_state, 1e-6);
    (void)rng;
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, SlicePlanSweep,
                         ::testing::Values(0.1, 0.5, 1.0, 3.0, 10.0, 100.0));

// --------------------------- queueing model vs simulated engine

struct MmcCase {
  double lambda;
  double service;  // mean service seconds
  int servers;
};

class QueueingCrossValidation : public ::testing::TestWithParam<MmcCase> {};

TEST_P(QueueingCrossValidation, AnalyticResponseMatchesSimulation) {
  // Drive the engine as an M/M/c queue: Poisson arrivals, exponential
  // CPU-only service, FIFO dispatch at MPL=c with instant handoff. The
  // measured mean response should match the Erlang-C prediction within
  // simulation noise + tick quantization.
  MmcCase c = GetParam();
  EngineConfig cfg = TestEngineConfig();
  cfg.num_cpus = c.servers;
  cfg.tick_seconds = 0.005;
  TestRig rig(cfg);
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(c.servers));

  WorkloadGenerator gen(1234);
  Rng arrivals(4321);
  OpenLoopDriver driver(
      &rig.sim, &arrivals, c.lambda,
      [&] {
        QuerySpec spec;
        spec.id = gen.next_id();
        (void)gen.NextOltp(OltpWorkloadConfig{});  // advance id stream
        spec.kind = QueryKind::kBiQuery;
        spec.cpu_seconds = gen.rng().Exponential(c.service);
        spec.io_ops = 0.0;
        spec.memory_mb = 0.0;
        spec.result_rows = 1;
        return spec;
      },
      [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
  driver.Start(400.0);
  rig.sim.RunUntil(600.0);

  double predicted =
      MmcMeanResponse(c.lambda, 1.0 / c.service, c.servers);
  double measured = rig.monitor.tag_stats("default").response_times.mean();
  // 25% relative tolerance + 3 ticks absolute: simulation noise, finite
  // run, tick rounding.
  EXPECT_NEAR(measured, predicted,
              0.25 * predicted + 3 * cfg.tick_seconds)
      << "lambda=" << c.lambda << " service=" << c.service
      << " servers=" << c.servers;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, QueueingCrossValidation,
    ::testing::Values(MmcCase{2.0, 0.2, 1},    // rho 0.4
                      MmcCase{4.0, 0.2, 1},    // rho 0.8
                      MmcCase{6.0, 0.2, 2},    // rho 0.6, 2 servers
                      MmcCase{12.0, 0.2, 4})); // rho 0.6, 4 servers

// ------------------------------------- suspend/resume work conservation

struct SuspendCase {
  double suspend_at;  // progress fraction
  SuspendStrategy strategy;
};

class SuspendConservationSweep
    : public ::testing::TestWithParam<SuspendCase> {};

TEST_P(SuspendConservationSweep, NoUsefulWorkLostOrDuplicated) {
  SuspendCase c = GetParam();
  Simulation sim;
  EngineConfig cfg = TestEngineConfig();
  DatabaseEngine engine(&sim, cfg);

  QuerySpec spec;
  spec.id = 1;
  spec.kind = QueryKind::kBiQuery;
  spec.cpu_seconds = 4.0;
  spec.io_ops = 2000.0;
  spec.memory_mb = 128.0;
  spec.result_rows = 1000;

  std::vector<QueryOutcome> outcomes;
  ExecutionContext ctx;
  ctx.on_finish = [&](const QueryOutcome& o) { outcomes.push_back(o); };
  ASSERT_TRUE(engine.Dispatch(spec, ctx).ok());
  // Advance to the requested progress point, then suspend.
  while (true) {
    sim.RunFor(0.05);
    auto progress = engine.GetProgress(1);
    ASSERT_TRUE(progress.ok());
    if (progress->fraction_done >= c.suspend_at) break;
  }
  ASSERT_TRUE(engine.Suspend(1, c.strategy).ok());
  sim.RunUntil(sim.Now() + 100.0);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0].kind, OutcomeKind::kSuspended);

  auto bundle = engine.TakeSuspended(1);
  ASSERT_TRUE(bundle.ok());
  ASSERT_TRUE(engine.Resume(*bundle, ctx).ok());
  sim.RunUntil(sim.Now() + 300.0);
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_EQ(outcomes[1].kind, OutcomeKind::kCompleted);

  // Useful CPU across both segments = original demand + redo; the flush
  // contributes only I/O.
  double total_cpu = outcomes[0].cpu_used + outcomes[1].cpu_used;
  EXPECT_NEAR(total_cpu, spec.cpu_seconds + bundle->redo_cpu, 1e-6);
  if (c.strategy == SuspendStrategy::kDumpState) {
    EXPECT_DOUBLE_EQ(bundle->redo_cpu, 0.0);
  }
  // Total I/O = original + redo + flush + reload (spill factor is 1 here:
  // ample memory).
  double total_io = outcomes[0].io_used + outcomes[1].io_used;
  EXPECT_NEAR(total_io,
              spec.io_ops + bundle->redo_io + bundle->suspend_io_cost +
                  bundle->resume_io_cost,
              1e-3);
  // All resources returned.
  EXPECT_NEAR(engine.memory().used_mb(), 0.0, 1e-9);
  EXPECT_EQ(engine.running_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Points, SuspendConservationSweep,
    ::testing::Values(SuspendCase{0.15, SuspendStrategy::kDumpState},
                      SuspendCase{0.15, SuspendStrategy::kGoBack},
                      SuspendCase{0.5, SuspendStrategy::kDumpState},
                      SuspendCase{0.5, SuspendStrategy::kGoBack},
                      SuspendCase{0.85, SuspendStrategy::kDumpState},
                      SuspendCase{0.85, SuspendStrategy::kGoBack}));

// ------------------------------------------------- deterministic replay

class DeterminismSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismSweep, IdenticalSeedsIdenticalOutcomes) {
  auto run = [&](uint64_t seed) {
    TestRig rig;
    WorkloadGenerator gen(seed);
    OltpWorkloadConfig oltp;
    BiWorkloadConfig bi;
    Rng arrivals(seed ^ 0xabcdef);
    OpenLoopDriver oltp_driver(
        &rig.sim, &arrivals, 20.0, [&] { return gen.NextOltp(oltp); },
        [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
    OpenLoopDriver bi_driver(
        &rig.sim, &arrivals, 0.5, [&] { return gen.NextBi(bi); },
        [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
    oltp_driver.Start(20.0);
    bi_driver.Start(20.0);
    rig.sim.RunUntil(120.0);
    std::vector<std::pair<QueryId, double>> result;
    for (const Request* r : rig.requests.All()) {
      result.emplace_back(r->spec.id, r->finish_time);
    }
    return result;
  };
  auto a = run(GetParam());
  auto b = run(GetParam());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_DOUBLE_EQ(a[i].second, b[i].second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSweep,
                         ::testing::Values(3, 1007, 424242));

// ------------------------------------------------- chaos invariants

// Randomized FaultPlans against a mixed workload with resilience on.
// Whatever the disturbance, the pipeline must not lose requests, the
// counters must reconcile, the memory budget must hold, and every fault
// window must recover.
class FaultChaosSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultChaosSweep, NoRequestLostAndBudgetsHoldUnderRandomFaults) {
  uint64_t seed = GetParam();
  WlmConfig config;
  config.resilience.enabled = true;
  config.resilience.max_retries = 3;
  config.resilience.retry_backoff_seconds = 0.2;
  TestRig rig(TestEngineConfig(), /*monitor_interval=*/0.25, config);
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(/*mpl=*/6));

  FaultInjector injector(&rig.sim, &rig.engine, &rig.wlm);
  FaultPlan plan = FaultPlan::Random(seed * 7919 + 13, 12.0, 6);
  ASSERT_TRUE(injector.Arm(plan).ok());

  // Memory-budget invariant, sampled throughout the run: injected
  // pressure shrinks new grants but must never push usage past the pool.
  bool memory_ok = true;
  rig.monitor.AddSampleListener([&](const SystemIndicators&) {
    if (rig.engine.memory().used_mb() >
        rig.engine.memory().total_mb() + 1e-9) {
      memory_ok = false;
    }
    if (rig.engine.io_rate_factor() < 0.0 ||
        rig.engine.io_rate_factor() > 1.0) {
      memory_ok = false;
    }
  });

  WorkloadGenerator gen(seed);
  Rng arrivals(seed ^ 0xabcdefULL);
  OltpWorkloadConfig oltp;
  BiWorkloadConfig bi;
  bi.cpu_mu = 0.0;
  double t = 0.0;
  int n = 0;
  while (true) {
    t += arrivals.Exponential(0.3);
    if (t >= 12.0) break;
    QuerySpec spec = (++n % 4 == 0) ? gen.NextBi(bi) : gen.NextOltp(oltp);
    rig.sim.ScheduleAt(t, [&rig, spec] { (void)rig.wlm.Submit(spec); });
  }
  rig.sim.RunUntil(120.0);  // drain long past the fault horizon

  EXPECT_TRUE(memory_ok);

  // No query lost: every submitted request reached a terminal state.
  int64_t terminal = 0;
  for (const Request* request : rig.requests.All()) {
    EXPECT_TRUE(request->state == RequestState::kCompleted ||
                request->state == RequestState::kKilled ||
                request->state == RequestState::kAborted ||
                request->state == RequestState::kRejected)
        << "query " << request->spec.id << " stranded in state "
        << static_cast<int>(request->state);
    ++terminal;
  }
  EXPECT_GT(terminal, 0);

  // Counters reconcile and never go negative.
  for (const auto& [name, def] : rig.wlm.workloads()) {
    const WorkloadCounters& counters = rig.wlm.counters(name);
    EXPECT_GE(counters.submitted, 0);
    EXPECT_GE(counters.resubmitted, 0);
    EXPECT_GE(counters.suspended, 0);
    EXPECT_EQ(counters.submitted, counters.completed + counters.killed +
                                      counters.aborted + counters.rejected);
  }

  // Latency decomposition conserves wall time for every terminal
  // profile, fault chaos (retries, suspends, kills, sheds) included.
  const ProfileStore& profiles = rig.wlm.telemetry().profiles();
  int64_t profiled = 0;
  for (const QueryProfile* p : profiles.Profiles()) {
    if (!p->terminal()) continue;
    ++profiled;
    EXPECT_NEAR(p->PhaseSum(), p->WallSeconds(), 1e-6)
        << "query " << p->id << " (" << p->outcome << ")";
  }
  EXPECT_EQ(profiled, terminal);

  // Every fault window recovered and the engine is healthy again.
  EXPECT_EQ(injector.active_windows(), 0);
  EXPECT_EQ(injector.stats().windows_opened, injector.stats().windows_closed);
  EXPECT_DOUBLE_EQ(rig.engine.io_rate_factor(), 1.0);
  EXPECT_EQ(rig.engine.cpus_offline(), 0);
  EXPECT_DOUBLE_EQ(rig.engine.memory().pressure_mb(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultChaosSweep,
                         ::testing::Values(1, 2, 3, 5, 8));

// ------------------------------------------------- cluster metamorphics

namespace {

/// Pre-draws one deterministic arrival schedule so the same specs hit
/// both sides of a metamorphic comparison.
std::vector<std::pair<double, QuerySpec>> ScheduleArrivals(uint64_t seed,
                                                           double horizon) {
  WorkloadGenerator gen(seed);
  Rng arrivals(seed ^ 0x77aa77aaULL);
  BiWorkloadConfig bi;
  OltpWorkloadConfig oltp;
  std::vector<std::pair<double, QuerySpec>> out;
  double t = 0.0;
  int n = 0;
  while (true) {
    t += arrivals.Exponential(/*mean=*/1.0 / 20.0);  // ~20 arrivals/s
    if (t >= horizon) break;
    out.emplace_back(t, (++n % 8 == 0) ? gen.NextBi(bi) : gen.NextOltp(oltp));
  }
  return out;
}

struct QueryFate {
  RequestState state;
  double dispatch_time;
  double finish_time;
  std::string workload;
};

std::map<QueryId, QueryFate> Fates(const RequestRecorder& requests) {
  std::map<QueryId, QueryFate> fates;
  for (const Request* request : requests.All()) {
    fates[request->spec.id] = {request->state, request->dispatch_time,
                               request->finish_time, request->workload};
  }
  return fates;
}

}  // namespace

class ClusterMetamorphicSweep : public ::testing::TestWithParam<uint64_t> {};

// (a) A 1-shard cluster is the bare WorkloadManager: the dispatcher adds
// routing, never semantics — every query meets the identical fate at the
// identical instant.
TEST_P(ClusterMetamorphicSweep, OneShardClusterEqualsBareManager) {
  const uint64_t seed = GetParam();
  const auto arrivals = ScheduleArrivals(seed, 10.0);

  ClusterOptions cluster_options = TestClusterOptions(1);
  TestRig bare(cluster_options.engine, cluster_options.monitor_interval,
               cluster_options.wlm);
  DefineTestWorkloads(bare.wlm);
  for (const auto& [when, spec] : arrivals) {
    bare.sim.ScheduleAt(when, [&bare, spec = spec] {
      (void)bare.wlm.Submit(spec);
    });
  }
  bare.sim.RunUntil(60.0);

  Simulation cluster_sim;
  std::unique_ptr<RequestRecorder> shard_requests;
  ClusterDispatcher cluster(&cluster_sim, cluster_options,
                            [&shard_requests](int, WorkloadManager& m) {
                              DefineTestWorkloads(m);
                              shard_requests =
                                  std::make_unique<RequestRecorder>(&m);
                            });
  for (const auto& [when, spec] : arrivals) {
    cluster_sim.ScheduleAt(when, [&cluster, spec = spec] {
      (void)cluster.Submit(spec);
    });
  }
  cluster_sim.RunUntil(60.0);

  const auto bare_fates = Fates(bare.requests);
  const auto cluster_fates = Fates(*shard_requests);
  ASSERT_FALSE(bare_fates.empty());
  ASSERT_EQ(bare_fates.size(), cluster_fates.size());
  for (const auto& [id, fate] : bare_fates) {
    auto it = cluster_fates.find(id);
    ASSERT_NE(it, cluster_fates.end()) << "query " << id << " not routed";
    EXPECT_EQ(it->second.state, fate.state) << "query " << id;
    EXPECT_EQ(it->second.workload, fate.workload) << "query " << id;
    EXPECT_DOUBLE_EQ(it->second.dispatch_time, fate.dispatch_time)
        << "query " << id;
    EXPECT_DOUBLE_EQ(it->second.finish_time, fate.finish_time)
        << "query " << id;
  }
}

// (b) Adding a shard never reduces goodput: the same arrival sequence
// against 1 shard and against 2 shards (the second starting idle) must
// complete at least as many queries.
TEST_P(ClusterMetamorphicSweep, AddingAnIdleShardNeverReducesGoodput) {
  const uint64_t seed = GetParam();
  const auto arrivals = ScheduleArrivals(seed, 10.0);

  auto run = [&arrivals](int num_shards) {
    Simulation sim;
    ClusterOptions options = TestClusterOptions(num_shards);
    options.placement = PlacementPolicyKind::kLeastOutstanding;
    ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
      DefineTestWorkloads(m);
    });
    for (const auto& [when, spec] : arrivals) {
      sim.ScheduleAt(when, [&cluster, spec = spec] {
        (void)cluster.Submit(spec);
      });
    }
    sim.RunUntil(60.0);
    int64_t completed = 0;
    for (int s = 0; s < cluster.num_shards(); ++s) {
      completed +=
          cluster.shard(s).wlm().event_log().CountOf(WlmEventType::kCompleted);
    }
    return completed;
  };

  const int64_t one_shard = run(1);
  const int64_t two_shards = run(2);
  EXPECT_GE(two_shards, one_shard)
      << "an added shard must only absorb load, never destroy goodput";
  EXPECT_GT(one_shard, 0);
}

// (c) Phase-sum conservation survives cross-shard re-dispatch: every
// terminal profile on every shard — including the second-life profiles
// of re-dispatched queries — decomposes its wall time exactly.
TEST_P(ClusterMetamorphicSweep, PhaseSumConservesForRedispatchedQueries) {
  const uint64_t seed = GetParam();
  Simulation sim;
  ClusterOptions options = TestClusterOptions(2);
  options.redispatch = true;
  options.wlm.overload.codel.queue_capacity = 4;
  ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
    DefineTestWorkloads(m);
  });
  WorkloadGenerator gen(seed);
  Rng arrivals(seed ^ 0x5a5a5a5aULL);
  OpenLoopDriver bi(
      &sim, &arrivals, 4.0,
      [&gen] { return gen.NextBi(BiWorkloadConfig()); },
      [&cluster](QuerySpec spec) { (void)cluster.Submit(std::move(spec)); });
  bi.Start(20.0);
  sim.RunUntil(60.0);

  ASSERT_GT(cluster.redispatched_total(), 0)
      << "surge too mild to exercise re-dispatch";
  std::set<QueryId> redispatched;
  for (const ClusterDispatcher::RouteDecision& d : cluster.route_log()) {
    if (d.redispatch) redispatched.insert(d.query);
  }
  int64_t checked = 0;
  std::map<QueryId, int64_t> terminal_profiles;
  for (int s = 0; s < cluster.num_shards(); ++s) {
    for (const QueryProfile* p :
         cluster.shard(s).wlm().telemetry().profiles().Profiles()) {
      if (!p->terminal()) continue;
      ++checked;
      ++terminal_profiles[p->id];
      EXPECT_NEAR(p->PhaseSum(), p->WallSeconds(), 1e-6)
          << "shard " << s << " query " << p->id << " (" << p->outcome << ")";
    }
  }
  EXPECT_GT(checked, 0);
  // Every *landed* re-dispatch leaves terminal profiles on at least two
  // shards (the shed first life and its second life elsewhere). The route
  // log also records attempts that never landed, so count landings.
  int64_t second_lives = 0;
  for (QueryId id : redispatched) {
    if (terminal_profiles[id] >= 2) ++second_lives;
  }
  EXPECT_GE(second_lives, cluster.redispatched_total());
}

// (d) Phase-sum conservation survives crash drain: when a shard dies
// unannounced (or drains for an announced restart), its queued and
// running work is retired and granted second lives elsewhere — every
// terminal profile left behind, on the dead shard and on the rescuing
// ones, still decomposes its wall time exactly.
TEST_P(ClusterMetamorphicSweep, PhaseSumConservesForCrashDrainedQueries) {
  const uint64_t seed = GetParam();
  Simulation sim;
  ClusterOptions options = TestClusterOptions(4);
  options.placement = PlacementPolicyKind::kLeastOutstanding;
  options.redispatch = true;
  options.health.enabled = true;
  ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
    DefineTestWorkloads(m);
  });
  FaultPlan plan;
  FaultEvent crash;  // unannounced: detector latency, black holes
  crash.kind = FaultKind::kShardCrash;
  crash.shard = 1;
  crash.start = 3.0;
  crash.duration = 3.0;
  plan.Add(crash);
  FaultEvent restart;  // announced: live drain, no detection latency
  restart.kind = FaultKind::kShardRestart;
  restart.shard = 2;
  restart.start = 8.0;
  restart.duration = 2.0;
  plan.Add(restart);
  ASSERT_TRUE(cluster.ArmFaultPlan(plan).ok());

  WorkloadGenerator gen(seed);
  Rng arrivals(seed ^ 0x5a5a5a5aULL);
  OpenLoopDriver oltp(
      &sim, &arrivals, 25.0,
      [&gen] { return gen.NextOltp(OltpWorkloadConfig()); },
      [&cluster](QuerySpec spec) { (void)cluster.Submit(std::move(spec)); });
  OpenLoopDriver bi(
      &sim, &arrivals, 2.0,
      [&gen] { return gen.NextBi(BiWorkloadConfig()); },
      [&cluster](QuerySpec spec) { (void)cluster.Submit(std::move(spec)); });
  oltp.Start(14.0);
  bi.Start(14.0);
  sim.RunUntil(40.0);

  int64_t crash_drained = 0;
  for (const ClusterDispatcher::RouteDecision& d : cluster.route_log()) {
    if (d.cause == RouteCause::kCrashDrain) ++crash_drained;
  }
  ASSERT_GT(crash_drained, 0) << "faults too mild to exercise crash drain";
  int64_t checked = 0;
  for (int s = 0; s < cluster.num_shards(); ++s) {
    for (const QueryProfile* p :
         cluster.shard(s).wlm().telemetry().profiles().Profiles()) {
      if (!p->terminal()) continue;
      ++checked;
      EXPECT_NEAR(p->PhaseSum(), p->WallSeconds(), 1e-6)
          << "shard " << s << " query " << p->id << " (" << p->outcome << ")";
    }
  }
  EXPECT_GT(checked, 0);
}

// (e) Journey structural invariants under the full failure stack: after
// stitching, every journey's lives form an acyclic DAG (parents strictly
// precede children), no life is left open once the run drains, and each
// stitched life's phase decomposition sums to that life's profiled wall
// time — the cluster-level restatement of phase-sum conservation.
TEST_P(ClusterMetamorphicSweep, JourneyDagIsAcyclicAndPhasesConserve) {
  const uint64_t seed = GetParam();
  Simulation sim;
  ClusterOptions options = TestClusterOptions(4);
  options.placement = PlacementPolicyKind::kLeastOutstanding;
  options.redispatch = true;
  options.health.enabled = true;
  ClusterDispatcher cluster(&sim, options, [](int, WorkloadManager& m) {
    DefineTestWorkloads(m);
  });
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kShardCrash;
  crash.shard = 1;
  crash.start = 3.0;
  crash.duration = 3.0;
  plan.Add(crash);
  FaultEvent restart;
  restart.kind = FaultKind::kShardRestart;
  restart.shard = 2;
  restart.start = 8.0;
  restart.duration = 2.0;
  plan.Add(restart);
  ASSERT_TRUE(cluster.ArmFaultPlan(plan).ok());

  WorkloadGenerator gen(seed);
  Rng arrivals(seed ^ 0x7e7e7e7eULL);
  OpenLoopDriver oltp(
      &sim, &arrivals, 25.0,
      [&gen] {
        QuerySpec spec = gen.NextOltp(OltpWorkloadConfig());
        spec.deadline_seconds = 5.0;  // arm hedged dispatch
        return spec;
      },
      [&cluster](QuerySpec spec) { (void)cluster.Submit(std::move(spec)); });
  OpenLoopDriver bi(
      &sim, &arrivals, 2.0,
      [&gen] { return gen.NextBi(BiWorkloadConfig()); },
      [&cluster](QuerySpec spec) { (void)cluster.Submit(std::move(spec)); });
  oltp.Start(14.0);
  bi.Start(14.0);
  // Arrivals stop at t=14; run far past the heaviest BI tail (hundreds
  // of sim-seconds) so every admitted query drains and no journey is
  // legitimately still open.
  sim.RunUntil(600.0);

  cluster.StitchJourneys();
  int64_t lives_checked = 0;
  int64_t stitched = 0;
  int64_t multi_life = 0;
  for (const Journey& journey : cluster.journeys().journeys()) {
    EXPECT_EQ(journey.OpenLives(), 0)
        << "journey " << journey.id << " left a life open after the drain";
    if (journey.lives.size() > 1) ++multi_life;
    for (const JourneyLife& life : journey.lives) {
      ++lives_checked;
      // Acyclicity: every edge points strictly backwards in life order.
      EXPECT_GE(life.parent, -1);
      if (life.parent >= 0) {
        EXPECT_LT(life.parent, life.index)
            << "journey " << journey.id << " life " << life.index;
      }
      if (life.profile_wall_seconds >= 0.0) {
        ++stitched;
        EXPECT_NEAR(life.PhaseSum(), life.profile_wall_seconds, 1e-6)
            << "journey " << journey.id << " life " << life.index << " ("
            << life.outcome << ")";
      }
    }
  }
  EXPECT_GT(lives_checked, 0);
  EXPECT_GT(stitched, 0) << "stitching matched no profiles";
  EXPECT_GT(multi_life, 0)
      << "faults too mild: no journey ever needed a second life";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterMetamorphicSweep,
                         ::testing::Values(11, 23, 42));

// ------------------------------------------------- dispatch index vs Order

// A pass-through wrapper like an instrumenting harness installs: it
// forwards Order, ConcurrencyLimit, OnSample and info only, so the manager
// asks it for an Order every round even when the wrapped scheduler
// declares a discipline the manager would otherwise serve from its index.
class OrderPathScheduler final : public Scheduler {
 public:
  explicit OrderPathScheduler(std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {}

  std::vector<QueryId> Order(const std::vector<const Request*>& queued,
                             const WorkloadManager& manager) override {
    return inner_->Order(queued, manager);
  }
  int ConcurrencyLimit(const WorkloadManager& manager) override {
    return inner_->ConcurrencyLimit(manager);
  }
  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override {
    inner_->OnSample(indicators, manager);
  }
  TechniqueInfo info() const override { return inner_->info(); }

 private:
  std::unique_ptr<Scheduler> inner_;
};

enum class IndexedScheduler { kFifo, kPriority, kFeedbackMpl };

std::unique_ptr<Scheduler> MakeIndexedScheduler(IndexedScheduler kind) {
  switch (kind) {
    case IndexedScheduler::kFifo:
      return std::make_unique<FifoScheduler>(/*mpl=*/4);
    case IndexedScheduler::kPriority:
      return std::make_unique<PriorityScheduler>(/*mpl=*/4);
    case IndexedScheduler::kFeedbackMpl: {
      FeedbackMplScheduler::Config config;
      config.initial_mpl = 4;
      config.min_mpl = 2;
      config.max_mpl = 8;
      return std::make_unique<FeedbackMplScheduler>(config);
    }
  }
  return nullptr;
}

/// What one run of the dispatch scenario leaves behind, as text.
struct DispatchTranscript {
  std::string events;    // event-log JSONL
  std::string metrics;   // Prometheus exposition
  std::string counters;  // per-workload counters, then every request's fate
  bool lifo_seen = false;
  /// Monitor samples at which the per-workload counts were compared with
  /// a scan, and the first sample where they disagreed (empty if none).
  int count_samples = 0;
  std::string count_mismatch;
};

std::string Hex(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

/// One seeded run over five priority levels: a per-workload MPL cap,
/// reprioritized, killed (with and without resubmit) and suspended
/// requests, lock-order deadlocks with resubmits, a fault window with
/// fault retries, an arrival burst that makes CoDel shed and flip the
/// queue LIFO, deadline shedding, and a crash drain.
DispatchTranscript RunDispatchScenario(uint64_t seed, IndexedScheduler kind,
                                       bool order_path) {
  EngineConfig engine = TestEngineConfig();
  engine.deadlock_check_period = 0.1;
  WlmConfig config;
  config.resilience.enabled = true;
  config.resilience.retry_backoff_seconds = 0.1;
  config.overload.enabled = true;
  config.overload.codel.target_seconds = 0.3;
  config.overload.codel.interval_seconds = 0.5;
  config.overload.codel.lifo_after_sheds = 2;
  config.overload.deadline_slack = 0.0;  // explicit deadlines only
  config.overload.breaker = false;
  config.overload.brownout = false;
  TestRig rig(engine, /*monitor_interval=*/0.25, config);
  WorkloadManager& wlm = rig.wlm;

  const std::vector<std::pair<std::string, BusinessPriority>> levels = {
      {"critical", BusinessPriority::kCritical},
      {"high", BusinessPriority::kHigh},
      {"medium", BusinessPriority::kMedium},
      {"low", BusinessPriority::kLow},
      {"background", BusinessPriority::kBackground}};
  auto classifier = std::make_unique<StaticClassifier>();
  for (const auto& [name, priority] : levels) {
    WorkloadDefinition def;
    def.name = name;
    def.priority = priority;
    wlm.DefineWorkload(def);
    ClassificationRule rule;
    rule.workload = name;
    rule.application = name;
    classifier->AddRule(rule);
  }
  wlm.set_classifier(std::move(classifier));
  MplAdmission::Config cap;
  cap.per_workload_mpl = {{"low", 1}};
  wlm.AddAdmissionController(std::make_unique<MplAdmission>(cap));
  std::unique_ptr<Scheduler> scheduler = MakeIndexedScheduler(kind);
  if (order_path) {
    scheduler = std::make_unique<OrderPathScheduler>(std::move(scheduler));
  }
  wlm.set_scheduler(std::move(scheduler));

  // Arrivals: steady, a burst at 10-12 s that a crash cuts into, and a
  // steady tail.
  Rng arrivals(seed);
  QueryId next_id = 1;
  auto arrive = [&](double from, double to, double rate) {
    for (double t = from + arrivals.Exponential(1.0 / rate); t < to;
         t += arrivals.Exponential(1.0 / rate)) {
      QuerySpec spec = OltpSpec(next_id++, arrivals.Exponential(0.15));
      spec.session.application =
          levels[static_cast<size_t>(arrivals.UniformInt(0, 4))].first;
      if (arrivals.Bernoulli(0.4)) {  // two keys in either order: deadlocks
        spec.locks = {{1, true}, {2, true}};
        if (arrivals.Bernoulli(0.5)) std::swap(spec.locks[0], spec.locks[1]);
      }
      if (arrivals.Bernoulli(0.3)) {
        spec.deadline_seconds = arrivals.Uniform(0.5, 3.0);
      }
      rig.sim.ScheduleAt(t, [&wlm, spec] { (void)wlm.Submit(spec); });
    }
  };
  arrive(0.0, 10.0, 12.0);
  arrive(10.0, 12.0, 60.0);
  arrive(16.0, 20.0, 12.0);

  DispatchTranscript transcript;
  // At every monitor sample, the incremental per-workload counts equal a
  // scan of Running() and Queued(), read by name and by id.
  rig.monitor.AddSampleListener([&](const SystemIndicators&) {
    ++transcript.count_samples;
    const std::vector<const Request*> running = wlm.Running();
    const std::vector<const Request*> queued = wlm.Queued();
    auto scan = [](const std::vector<const Request*>& requests, auto match) {
      return static_cast<int>(std::ranges::count_if(requests, match));
    };
    auto check = [&](const std::string& what, int running_count,
                     int queued_count, auto match) {
      const int running_scan = scan(running, match);
      const int queued_scan = scan(queued, match);
      if (transcript.count_mismatch.empty() &&
          (running_count != running_scan || queued_count != queued_scan)) {
        transcript.count_mismatch =
            what + " at t=" + std::to_string(rig.sim.Now()) + ": running " +
            std::to_string(running_count) + " vs " +
            std::to_string(running_scan) + ", queued " +
            std::to_string(queued_count) + " vs " + std::to_string(queued_scan);
      }
    };
    for (const auto& [name, def] : wlm.workloads()) {
      check(name, wlm.RunningInWorkload(name), wlm.QueuedInWorkload(name),
            [&name](const Request* r) { return r->workload == name; });
    }
    // Ids are dense; one past the last reads zero like an unknown name.
    for (WorkloadId id = 0; id <= wlm.workloads().size(); ++id) {
      check("id " + std::to_string(id), wlm.RunningInWorkload(id),
            wlm.QueuedInWorkload(id),
            [id](const Request* r) { return r->workload_id == id; });
    }
  });

  // Execution control every 50 ms on waiting and running requests.
  Rng actions(seed ^ 0x3c3c3c3cULL);
  for (double t = 0.05; t < 20.0; t += 0.05) {
    rig.sim.ScheduleAt(t, [&] {
      transcript.lifo_seen |= wlm.queue_lifo();
      const std::vector<const Request*> queued = wlm.Queued();
      const std::vector<const Request*> running = wlm.Running();
      auto pick = [&actions](const std::vector<const Request*>& from) {
        return from[static_cast<size_t>(actions.UniformInt(
                        0, static_cast<int64_t>(from.size()) - 1))]
            ->spec.id;
      };
      const double roll = actions.Uniform01();
      if (!queued.empty() && roll < 0.3) {
        const auto priority =
            static_cast<BusinessPriority>(actions.UniformInt(0, 4));
        (void)wlm.SetRequestPriority(pick(queued), priority);
      } else if (!queued.empty() && roll < 0.4) {
        (void)wlm.KillRequest(pick(queued), actions.Bernoulli(0.5));
      } else if (!running.empty() && roll < 0.5) {
        (void)wlm.SuspendRequest(pick(running),
                                 actions.Bernoulli(0.5)
                                     ? SuspendStrategy::kDumpState
                                     : SuspendStrategy::kGoBack);
      }
    });
  }
  // A fault window with fault aborts of running requests (retried).
  rig.sim.ScheduleAt(6.0, [&wlm] {
    wlm.NotifyFaultBegin("cpu_slowdown", "factor=2");
  });
  for (double t = 6.2; t < 8.0; t += 0.4) {
    rig.sim.ScheduleAt(t, [&wlm] {
      const std::vector<const Request*> running = wlm.Running();
      if (!running.empty()) {
        (void)wlm.AbortRequestByFault(running.front()->spec.id, "injected");
      }
    });
  }
  rig.sim.ScheduleAt(8.0, [&wlm] { wlm.NotifyFaultEnd("cpu_slowdown", 6.0); });
  rig.sim.ScheduleAt(11.5, [&wlm] { (void)wlm.CrashDrain("crash"); });
  rig.sim.RunUntil(60.0);

  // Unknown names read zero and create nothing.
  const size_t defined = wlm.workloads().size();
  EXPECT_EQ(wlm.RunningInWorkload("never_defined"), 0);
  EXPECT_EQ(wlm.QueuedInWorkload("never_defined"), 0);
  const WorkloadCounters& none = wlm.counters("never_defined");
  EXPECT_EQ(none.submitted + none.rejected + none.completed + none.killed +
                none.aborted + none.resubmitted + none.suspended + none.shed +
                none.retries_denied + none.queue_waits.count(),
            0);
  EXPECT_EQ(wlm.workloads().size(), defined);

  std::ostringstream events;
  WriteEventLogJsonl(wlm.event_log(), events);
  transcript.events = events.str();
  std::ostringstream metrics;
  WritePrometheus(wlm.telemetry().metrics(), metrics);
  transcript.metrics = metrics.str();
  std::ostringstream counters;
  for (const auto& [name, def] : wlm.workloads()) {
    const WorkloadCounters& c = wlm.counters(name);
    counters << name << ' ' << c.submitted << ' ' << c.rejected << ' '
             << c.completed << ' ' << c.killed << ' ' << c.aborted << ' '
             << c.resubmitted << ' ' << c.suspended << ' ' << c.shed << ' '
             << c.retries_denied << ' ' << c.queue_waits.count() << ' '
             << Hex(c.queue_waits.mean()) << '\n';
  }
  for (const Request* r : rig.requests.All()) {
    counters << r->spec.id << ' ' << RequestStateToString(r->state) << ' '
             << BusinessPriorityToString(r->priority) << ' '
             << Hex(r->dispatch_time) << ' ' << Hex(r->finish_time) << ' '
             << r->resubmits << ' ' << r->suspend_count << '\n';
  }
  transcript.counters = counters.str();
  return transcript;
}

/// The first line where two transcripts differ, for a readable failure.
std::string FirstDifference(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(sa, la));
    const bool more_b = static_cast<bool>(std::getline(sb, lb));
    if (!more_a && !more_b) return "identical";
    if (!more_a || !more_b || la != lb) {
      return "line " + std::to_string(line) + ":\n  index: " +
             (more_a ? la : "<end>") + "\n  Order: " +
             (more_b ? lb : "<end>");
    }
  }
}

class DispatchIndexSweep
    : public ::testing::TestWithParam<std::tuple<IndexedScheduler, uint64_t>> {
};

// The manager's index must dispatch exactly as the scheduler's Order:
// the same gate calls, dispatches, sheds and outcomes, byte for byte.
TEST_P(DispatchIndexSweep, IndexDispatchesExactlyAsOrder) {
  const auto [kind, seed] = GetParam();
  const DispatchTranscript index = RunDispatchScenario(seed, kind, false);
  const DispatchTranscript order = RunDispatchScenario(seed, kind, true);
  EXPECT_TRUE(index.events == order.events)
      << FirstDifference(index.events, order.events);
  EXPECT_TRUE(index.metrics == order.metrics)
      << FirstDifference(index.metrics, order.metrics);
  EXPECT_TRUE(index.counters == order.counters)
      << FirstDifference(index.counters, order.counters);
  // RunningInWorkload / QueuedInWorkload match a scan at every sample.
  EXPECT_GT(index.count_samples, 200);
  EXPECT_EQ(index.count_mismatch, "");
  EXPECT_EQ(order.count_mismatch, "");

  // The scenario reaches every queue-changing site it is meant to.
  auto has = [&index](const std::string& needle) {
    return index.events.find(needle) != std::string::npos;
  };
  EXPECT_TRUE(has("\"type\":\"reprioritized\""));
  EXPECT_TRUE(has("\"detail\":\"after kill\""));
  EXPECT_TRUE(has("\"type\":\"killed\""));
  EXPECT_TRUE(has("\"type\":\"resumed\""));
  EXPECT_TRUE(has("\"detail\":\"after deadlock\""));
  EXPECT_TRUE(has("\"detail\":\"fault retry"));
  EXPECT_TRUE(has("\"detail\":\"codel\""));
  EXPECT_TRUE(has("\"detail\":\"deadline\""));
  EXPECT_TRUE(has("\"detail\":\"crash\""));
  EXPECT_TRUE(index.lifo_seen) << "CoDel never flipped the queue LIFO";
  EXPECT_NE(index.metrics.find("wlm_dispatch_gated_total"), std::string::npos);
}

std::string DispatchIndexCaseName(
    const ::testing::TestParamInfo<DispatchIndexSweep::ParamType>& info) {
  static const char* const kNames[] = {"fifo", "priority", "feedback_mpl"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) +
         "_" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DispatchIndexSweep,
    ::testing::Combine(::testing::Values(IndexedScheduler::kFifo,
                                         IndexedScheduler::kPriority,
                                         IndexedScheduler::kFeedbackMpl),
                       ::testing::Values(1, 2, 3, 4, 5, 6)),
    DispatchIndexCaseName);

// ------------------------------------------------- request retirement

// A request leaves the manager once its completion listeners return. Under
// seeded configs, random fault plans, an execution controller that kills,
// suspends or escalates, and overload protection on or off: every
// submitted id gets exactly one terminal callback and is gone from Find
// after it; the manager lists only non-terminal requests, exactly as many
// as are still owed a callback; and a seed replays to a byte-equal event
// log.
enum class RetirementControl { kKill, kSuspend, kEscalate };

struct RetirementRun {
  std::string events;
  int64_t submitted = 0;
  int64_t checks = 0;  // monitor samples the invariants were checked at
};

RetirementRun RunRetirementCase(uint64_t seed, RetirementControl control,
                                bool overload) {
  Rng draw(seed * 0x2545F4914F6CDD1DULL + 17);
  WlmConfig config;
  config.resilience.enabled = true;
  config.resilience.max_retries = static_cast<int>(draw.UniformInt(0, 3));
  config.resilience.retry_backoff_seconds = 0.1;
  config.overload.enabled = overload;
  config.overload.codel.queue_capacity =
      static_cast<int>(draw.UniformInt(4, 12));
  TestRig rig(TestEngineConfig(), /*monitor_interval=*/0.25, config);
  WorkloadManager& wlm = rig.wlm;
  DefineTestWorkloads(wlm);
  wlm.set_scheduler(std::make_unique<PriorityScheduler>(
      static_cast<int>(draw.UniformInt(2, 6))));
  switch (control) {
    case RetirementControl::kKill: {
      QueryKillController::Config kill;
      kill.max_elapsed_seconds = draw.Uniform(0.5, 3.0);
      kill.resubmit = draw.Bernoulli(0.5);
      wlm.AddExecutionController(std::make_unique<QueryKillController>(kill));
      break;
    }
    case RetirementControl::kSuspend: {
      SuspendResumeController::Config suspend;
      suspend.min_cpu_utilization = 0.0;
      suspend.strategy = draw.Bernoulli(0.5) ? SuspendStrategy::kDumpState
                                             : SuspendStrategy::kGoBack;
      wlm.AddExecutionController(
          std::make_unique<SuspendResumeController>(suspend));
      break;
    }
    case RetirementControl::kEscalate: {
      TimeoutEscalationController::Config ladder;
      ladder.default_policy.throttle_after_seconds = 0.3;
      ladder.default_policy.suspend_after_seconds = draw.Uniform(0.6, 1.5);
      ladder.default_policy.kill_after_seconds = draw.Uniform(1.6, 3.0);
      ladder.default_policy.resubmit_on_kill = draw.Bernoulli(0.5);
      ladder.default_policy.kill_past_deadline = true;
      wlm.AddExecutionController(
          std::make_unique<TimeoutEscalationController>(ladder));
      break;
    }
  }
  FaultInjector injector(&rig.sim, &rig.engine, &wlm);
  EXPECT_TRUE(injector.Arm(FaultPlan::Random(seed * 7919 + 5, 15.0, 6)).ok());

  RetirementRun run;
  std::map<QueryId, int> callbacks;
  std::vector<QueryId> ended_since_check;
  int64_t ended = 0;
  wlm.AddCompletionListener([&](const Request& request) {
    EXPECT_TRUE(request.terminal()) << "query " << request.spec.id;
    EXPECT_EQ(wlm.Find(request.spec.id), &request) << "retired too early";
    ++callbacks[request.spec.id];
    ended_since_check.push_back(request.spec.id);
    ++ended;
  });
  auto check = [&] {
    ++run.checks;
    for (QueryId id : ended_since_check) {
      EXPECT_EQ(wlm.Find(id), nullptr) << "query " << id << " not retired";
    }
    ended_since_check.clear();
    const std::vector<const Request*> live = wlm.AllRequests();
    for (const Request* request : live) {
      EXPECT_FALSE(request->terminal()) << "query " << request->spec.id;
    }
    EXPECT_EQ(static_cast<int64_t>(live.size()), run.submitted - ended);
  };
  rig.monitor.AddSampleListener([&](const SystemIndicators&) { check(); });

  WorkloadGenerator gen(seed);
  OltpWorkloadConfig oltp;
  BiWorkloadConfig bi;
  bi.cpu_mu = -0.5;
  const double oltp_deadline = draw.Bernoulli(0.5) ? 1.0 : 0.0;
  double t = 0.0;
  for (int n = 1;; ++n) {
    t += draw.Exponential(0.12);
    if (t >= 15.0) break;
    QuerySpec spec = n % 5 == 0 ? gen.NextBi(bi) : gen.NextOltp(oltp);
    if (spec.kind == QueryKind::kOltpTransaction) {
      spec.deadline_seconds = oltp_deadline;
    }
    rig.sim.ScheduleAt(t, [&, spec = std::move(spec)] {
      const Status status = wlm.Submit(spec);
      EXPECT_NE(status.code(), StatusCode::kAlreadyExists);
      ++run.submitted;
      // A rejection or shed at arrival ended it before Submit returned.
      if (!status.ok()) {
        EXPECT_EQ(wlm.Find(spec.id), nullptr);
      }
    });
  }
  rig.sim.RunUntil(200.0);  // far past the arrivals and the fault horizon
  check();

  EXPECT_GT(run.submitted, 50);
  EXPECT_EQ(static_cast<int64_t>(callbacks.size()), run.submitted);
  for (const auto& [id, count] : callbacks) {
    EXPECT_EQ(count, 1) << "query " << id;
  }
  EXPECT_TRUE(wlm.AllRequests().empty());
  std::ostringstream events;
  WriteEventLogJsonl(wlm.event_log(), events);
  run.events = events.str();
  return run;
}

class RequestRetirementSweep
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, RetirementControl, bool>> {};

TEST_P(RequestRetirementSweep, OneCallbackThenGoneAndReplayable) {
  const auto [seed, control, overload] = GetParam();
  const RetirementRun first = RunRetirementCase(seed, control, overload);
  const RetirementRun second = RunRetirementCase(seed, control, overload);
  EXPECT_GT(first.checks, 100);
  EXPECT_EQ(first.submitted, second.submitted);
  EXPECT_TRUE(first.events == second.events)
      << "event logs differ: " << first.events.size() << " vs "
      << second.events.size() << " bytes";
}

std::string RetirementCaseName(
    const ::testing::TestParamInfo<RequestRetirementSweep::ParamType>& info) {
  static const char* const kControls[] = {"kill", "suspend", "escalate"};
  return std::string(kControls[static_cast<int>(std::get<1>(info.param))]) +
         (std::get<2>(info.param) ? "_overload_" : "_") +
         std::to_string(std::get<0>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RequestRetirementSweep,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(RetirementControl::kKill,
                                         RetirementControl::kSuspend,
                                         RetirementControl::kEscalate),
                       ::testing::Bool()),
    RetirementCaseName);

// Two simulated hours of OLTP at 30/s plus BI at 0.05/s. The manager holds
// only the requests in flight at every hour, and the heap hardly grows
// over the second hour: what remains per query is the raw samples that
// Percentiles keeps (up to 2^20 per series). Before requests were retired
// the heap grew about 780 B per query.
TEST(RequestRetirementSweep, LongHorizonHeapStaysFlat) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "mallinfo2 does not see the sanitizer's heap";
#else
  // A bare stack: TestRig's recorder keeps a copy of every ended request.
  Simulation sim;
  DatabaseEngine engine(&sim, TestEngineConfig());
  Monitor monitor(&sim, &engine, /*interval=*/1.0);
  monitor.Start();
  WorkloadManager wlm(&sim, &engine, &monitor);
  DefineTestWorkloads(wlm);
  wlm.set_scheduler(std::make_unique<PriorityScheduler>(/*mpl=*/16));
  WorkloadGenerator gen(2024);
  Rng arrivals(2024);
  OltpWorkloadConfig oltp;
  BiWorkloadConfig bi;
  bi.cpu_mu = -1.0;
  int64_t submitted = 0;
  OpenLoopDriver oltp_driver(
      &sim, &arrivals, 30.0, [&] { return gen.NextOltp(oltp); },
      [&](QuerySpec spec) {
        (void)wlm.Submit(spec);
        ++submitted;
      });
  OpenLoopDriver bi_driver(
      &sim, &arrivals, 0.05, [&] { return gen.NextBi(bi); },
      [&](QuerySpec spec) {
        (void)wlm.Submit(spec);
        ++submitted;
      });
  constexpr double kHour = 3600.0;
  oltp_driver.Start(2 * kHour);
  bi_driver.Start(2 * kHour);
  size_t heap_after_first_hour = 0;
  int64_t submitted_after_first_hour = 0;
  for (int hour = 1; hour <= 2; ++hour) {
    sim.RunUntil(hour * kHour);
    EXPECT_EQ(wlm.AllRequests().size(),
              wlm.queue_depth() + wlm.running_count())
        << "hour " << hour;
    if (hour == 1) {
      heap_after_first_hour = mallinfo2().uordblks;
      submitted_after_first_hour = submitted;
    }
  }
  const double growth =
      static_cast<double>(mallinfo2().uordblks) -
      static_cast<double>(heap_after_first_hour);
  const int64_t queries = submitted - submitted_after_first_hour;
  ASSERT_GT(queries, 100000);
  const double per_query = growth / static_cast<double>(queries);
  std::printf("heap growth over the second hour: %.1f B per query (%lld "
              "queries)\n",
              per_query, static_cast<long long>(queries));
  EXPECT_LT(per_query, 200.0);
#endif
}

}  // namespace
}  // namespace wlm
