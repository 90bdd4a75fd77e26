// S6 — google-benchmark microbenchmarks of the substrate hot paths: the
// simulation event queue, the lock manager, the optimizer, the engine's
// tick and its dispatch path, the ML predictors, the monitor statistics,
// dispatch from a deep wait queue, and an end-to-end simulated
// queries-per-wall-second figure for the whole workload-management
// pipeline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <memory>

#include "bench/bench_util.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "scheduling/queue_schedulers.h"

namespace {

using namespace wlm;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule((i * 37) % 100, [] {});
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_LockManagerAcquireRelease(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    LockManager lm;
    for (TxnId txn = 1; txn <= 100; ++txn) {
      for (int k = 0; k < 5; ++k) {
        (void)lm.Acquire(txn, static_cast<LockKey>(rng.Zipf(1000, 0.8)),
                   rng.Bernoulli(0.5) ? LockMode::kExclusive
                                      : LockMode::kShared);
      }
    }
    for (TxnId txn = 1; txn <= 100; ++txn) lm.ReleaseAll(txn);
    benchmark::DoNotOptimize(lm.txn_count());
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_LockManagerAcquireRelease);

/// One transaction through a lock table that stays warm across iterations,
/// in the engine's OLTP shape (OltpWorkloadConfig's defaults): 3 distinct
/// Zipf keys out of 2000 locked in ascending order, 70% exclusive, and 16
/// transactions live at once. Each iteration releases the oldest and
/// starts the next; a request that waits resumes from the grant callback.
void BM_LockManagerWarm(benchmark::State& state) {
  constexpr TxnId kLive = 16;
  struct Txn {
    TxnId id = 0;
    std::array<LockRequest, 3> locks{};
    size_t cursor = 0;
  };
  std::array<Txn, kLive> live;
  LockManager lm;
  auto advance = [&lm](Txn& txn) {
    while (txn.cursor < txn.locks.size()) {
      const LockRequest& req = txn.locks[txn.cursor];
      if (!lm.Acquire(txn.id, req.key,
                      req.exclusive ? LockMode::kExclusive
                                    : LockMode::kShared)) {
        return;
      }
      ++txn.cursor;
    }
  };
  lm.set_grant_callback([&](TxnId id, LockKey) {
    Txn& txn = live[id % kLive];
    ++txn.cursor;
    advance(txn);
  });
  Rng rng(1);
  TxnId next = 1;
  auto step = [&] {
    Txn& txn = live[next % kLive];
    if (txn.id != 0) benchmark::DoNotOptimize(lm.ReleaseAll(txn.id));
    txn.id = next++;
    txn.cursor = 0;
    for (size_t i = 0; i < txn.locks.size(); ++i) {
      LockKey key = 0;
      auto taken = [&](LockKey k) {
        return std::any_of(txn.locks.begin(), txn.locks.begin() + i,
                           [k](const LockRequest& r) { return r.key == k; });
      };
      do {
        key = static_cast<LockKey>(rng.Zipf(2000, 0.8));
      } while (taken(key));
      txn.locks[i] = LockRequest{key, rng.Bernoulli(0.7)};
    }
    std::sort(txn.locks.begin(), txn.locks.end(),
              [](const LockRequest& a, const LockRequest& b) {
                return a.key < b.key;
              });
    advance(txn);
  };
  for (TxnId i = 0; i < 64 * kLive; ++i) step();  // warm the table
  for (auto _ : state) step();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockManagerWarm);

void BM_DeadlockDetection(benchmark::State& state) {
  // A contended lock table with long wait chains.
  LockManager lm;
  for (TxnId txn = 1; txn <= 200; ++txn) {
    (void)lm.Acquire(txn, txn, LockMode::kExclusive);
    (void)lm.Acquire(txn, (txn % 200) + 1, LockMode::kExclusive);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lm.FindDeadlockVictims());
  }
}
BENCHMARK(BM_DeadlockDetection);

void BM_OptimizerBuildPlan(benchmark::State& state) {
  Optimizer optimizer;
  WorkloadGenerator gen(2);
  BiWorkloadConfig shape;
  QuerySpec spec = gen.NextBi(shape);
  for (auto _ : state) {
    spec.id++;
    benchmark::DoNotOptimize(optimizer.BuildPlan(spec));
  }
}
BENCHMARK(BM_OptimizerBuildPlan);

/// Host time of one engine tick with exactly range(0) active queries.
/// `grouped` tags them alternately with two tags pooled under
/// SetGroupShares, so every tick runs the two-level water-fill.
void RunEngineTicks(benchmark::State& state, bool grouped) {
  const size_t n = static_cast<size_t>(state.range(0));
  Simulation sim;
  EngineConfig config;
  config.tick_seconds = 0.05;
  DatabaseEngine engine(&sim, config);
  if (grouped) {
    engine.SetGroupShares("etl", {3.0, 3.0});
    engine.SetGroupShares("reports", {1.0, 1.0});
  }
  WorkloadGenerator gen(3);
  BiWorkloadConfig shape;
  size_t dispatched = 0;
  // Every timed tick must see exactly n active queries. Demands stretched
  // a millionfold keep each query's resource mix but outlast any
  // iteration count; one that still finishes is replaced off the clock.
  auto top_up = [&] {
    while (engine.running_count() < n) {
      QuerySpec spec = gen.NextBi(shape);
      spec.cpu_seconds *= 1e6;
      spec.io_ops *= 1e6;
      ExecutionContext ctx;
      if (grouped) ctx.tag = dispatched % 2 == 0 ? "etl" : "reports";
      ++dispatched;
      (void)engine.Dispatch(spec, std::move(ctx));
    }
  };
  top_up();
  for (auto _ : state) {
    sim.RunFor(0.05);  // one tick
    if (engine.running_count() < n) {
      state.PauseTiming();
      top_up();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_EngineTickWithQueries(benchmark::State& state) {
  RunEngineTicks(state, /*grouped=*/false);
}
BENCHMARK(BM_EngineTickWithQueries)->Arg(8)->Arg(64)->Arg(256);

void BM_EngineTickGrouped(benchmark::State& state) {
  RunEngineTicks(state, /*grouped=*/true);
}
BENCHMARK(BM_EngineTickGrouped)->Arg(8)->Arg(64)->Arg(256);

/// Host time of one dispatch and kill with range(0) long-running BI
/// queries active. The probe is a lock-free OLTP transaction whose id sorts
/// below every active id, so an active-query store whose insert or erase
/// moves the entries after the probe's would pay for all n of them. The
/// clock never advances: no tick runs.
void BM_EngineDispatchFinish(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Simulation sim;
  DatabaseEngine engine(&sim, EngineConfig());
  WorkloadGenerator gen(3);
  BiWorkloadConfig shape;
  for (size_t i = 0; i < n; ++i) {
    QuerySpec spec = gen.NextBi(shape);
    spec.id = static_cast<QueryId>(i + 2);
    spec.cpu_seconds *= 1e6;  // as in RunEngineTicks
    spec.io_ops *= 1e6;
    (void)engine.Dispatch(spec, {});
  }
  QuerySpec probe = gen.NextOltp(OltpWorkloadConfig());
  probe.id = 1;
  probe.locks.clear();
  for (auto _ : state) {
    (void)engine.Dispatch(probe, {});
    (void)engine.Kill(probe.id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineDispatchFinish)->Arg(16)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DecisionTreePredict(benchmark::State& state) {
  Dataset data({"a", "b", "c"});
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    double a = rng.Uniform(0, 10), b = rng.Uniform(0, 10),
           c = rng.Uniform(0, 10);
    data.Add({a, b, c}, a + b > c ? 1.0 : 0.0);
  }
  DecisionTree tree;
  tree.Fit(data);
  std::vector<double> x = {3.0, 4.0, 5.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Predict(x));
  }
}
BENCHMARK(BM_DecisionTreePredict);

void BM_KnnPredict(benchmark::State& state) {
  Dataset data({"a", "b", "c"});
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    data.Add({rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)},
             rng.Uniform(0, 100));
  }
  KnnRegressor knn(5);
  knn.Fit(data);
  std::vector<double> x = {0.5, 0.5, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.Predict(x));
  }
}
BENCHMARK(BM_KnnPredict);

void BM_PercentilesAddQuery(benchmark::State& state) {
  Percentiles p;
  Rng rng(6);
  int64_t i = 0;
  for (auto _ : state) {
    p.Add(rng.Uniform(0, 100));
    if (++i % 64 == 0) benchmark::DoNotOptimize(p.Percentile(95));
  }
}
BENCHMARK(BM_PercentilesAddQuery);

// Dispatch from a deep wait queue: host ns per dispatched query with the
// queue held at depth n behind one busy slot (MPL 1). Each iteration kills
// the running query, which dispatches one waiting request, and submits one
// more to restore the depth. FIFO and priority declare a queue discipline,
// so the manager dispatches from its index; RankScheduler has no fixed
// preference, so the manager calls its Order, a sort, every round. The
// overload case runs FIFO under overload protection with CoDel turned LIFO
// before the clock starts, so each round serves the newest request, and
// deadline shedding on: every request has a deadline far beyond the run,
// so none is shed, but each is watched. Breakers and brownout are off.
std::unique_ptr<Scheduler> MakeFifo() {
  return std::make_unique<FifoScheduler>(/*mpl=*/1);
}
std::unique_ptr<Scheduler> MakePriority() {
  return std::make_unique<PriorityScheduler>(/*mpl=*/1);
}
std::unique_ptr<Scheduler> MakeRank() {
  return std::make_unique<RankScheduler>(/*mpl=*/1, RankScheduler::Weights());
}

struct DispatchRig {
  Simulation sim;
  DatabaseEngine engine;
  Monitor monitor;
  WorkloadManager wlm;
  WorkloadGenerator gen{8};

  bool overload;

  static WlmConfig Config(bool overload) {
    WlmConfig config;
    config.telemetry.enabled = false;
    if (overload) {
      config.overload.enabled = true;
      config.overload.codel.queue_capacity = 8192;
      config.overload.codel.target_seconds = 0.01;
      config.overload.codel.interval_seconds = 0.01;
      config.overload.codel.lifo_after_sheds = 1;
      config.overload.breaker = false;
      config.overload.brownout = false;
    }
    return config;
  }

  DispatchRig(std::unique_ptr<Scheduler> scheduler, int depth, bool overload)
      : engine(&sim, wlm_bench::DefaultEngine()),
        monitor(&sim, &engine, 1.0),
        wlm(&sim, &engine, &monitor, Config(overload)),
        overload(overload) {
    wlm.set_scheduler(std::move(scheduler));
    for (int i = 0; i <= depth; ++i) Submit();  // one runs, `depth` wait
    if (overload) {
      // Two looks at a queue older than CoDel's target, an interval apart:
      // the second sheds the head and turns the queue LIFO. The clock then
      // stands still, so no later look sheds. Top the depth back up.
      sim.RunUntil(0.02);
      wlm.TryDispatch();
      sim.RunUntil(0.04);
      wlm.TryDispatch();
      while (static_cast<int>(wlm.queue_depth()) < depth) Submit();
    }
  }

  void Submit() {
    QuerySpec spec = gen.NextOltp(OltpWorkloadConfig());
    if (overload) spec.deadline_seconds = 1e9;
    (void)wlm.Submit(spec);
  }
};

void BM_DispatchDeepQueue(benchmark::State& state,
                          std::unique_ptr<Scheduler> (*make)(),
                          bool overload) {
  const int depth = static_cast<int>(state.range(0));
  // The manager keeps every request it was given, so a fresh rig is built
  // off the clock every kCyclesPerRig dispatches to bound memory.
  constexpr int kCyclesPerRig = 4096;
  std::unique_ptr<DispatchRig> rig;
  int cycles = kCyclesPerRig;
  for (auto _ : state) {
    if (cycles == kCyclesPerRig) {
      state.PauseTiming();
      rig.reset();
      rig = std::make_unique<DispatchRig>(make(), depth, overload);
      if (overload && !rig->wlm.queue_lifo()) {
        state.SkipWithError("CoDel did not turn the queue LIFO");
        break;
      }
      cycles = 0;
      state.ResumeTiming();
    }
    (void)rig->wlm.KillRequest(rig->wlm.Running().front()->spec.id,
                               /*resubmit=*/false);
    rig->Submit();
    benchmark::DoNotOptimize(rig->wlm.queue_depth());
    ++cycles;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_DispatchDeepQueue, fifo, MakeFifo, false)
    ->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK_CAPTURE(BM_DispatchDeepQueue, priority, MakePriority, false)
    ->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK_CAPTURE(BM_DispatchDeepQueue, rank, MakeRank, false)
    ->Arg(256)->Arg(1024)->Arg(4096);
BENCHMARK_CAPTURE(BM_DispatchDeepQueue, overload, MakeFifo, true)
    ->Arg(256)->Arg(4096);

// One query's telemetry: host ns for the five hooks a healthy query fires
// (submit, admit, dispatch, run segment, terminal) on one warm facade. The
// warm-up fills the tracer and profile store to their bound of 8192 and
// the event log to its bound, so every measured query evicts the oldest
// finished record from each. Sim time stays at 0.
void BM_TelemetryQueryLifecycle(benchmark::State& state) {
  Simulation sim;
  DatabaseEngine engine(&sim, wlm_bench::DefaultEngine());
  Monitor monitor(&sim, &engine, 1.0);
  Telemetry telemetry(&sim, &monitor);
  QueryOutcome outcome;
  outcome.kind = OutcomeKind::kCompleted;
  outcome.cpu_used = 0.0125;
  outcome.io_used = 40.0;
  outcome.spill_factor = 1.0;
  outcome.buffer_hit_ratio = 0.85;
  outcome.phases.lock_wait_seconds = 0.001;
  outcome.phases.cpu_run_seconds = 0.0125;
  outcome.phases.io_stall_seconds = 0.004;
  const std::string workload = "oltp";
  QueryId id = 0;
  auto query = [&] {
    outcome.id = ++id;
    telemetry.OnSubmit(id, 0, workload, QueryKind::kOltpTransaction);
    telemetry.OnAdmitted(id);
    telemetry.OnDispatch(id, 0, workload, nullptr);
    telemetry.OnRunSegment(id, outcome);
    telemetry.OnTerminal(id, 0, workload, WlmEventType::kCompleted, 0.02,
                         0.001, outcome);
  };
  for (int i = 0; i < 25000; ++i) query();
  for (auto _ : state) query();
  benchmark::DoNotOptimize(telemetry.tracer().size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryQueryLifecycle);

// End-to-end: how many simulated OLTP transactions per wall-second the
// whole pipeline processes (submit -> classify -> schedule -> engine ->
// complete).
void BM_PipelineSimulatedOltp(benchmark::State& state) {
  int64_t completed = 0;
  for (auto _ : state) {
    wlm_bench::BenchRig rig;
    wlm_bench::DefineStandardWorkloads(&rig.wlm);
    rig.wlm.set_scheduler(std::make_unique<PriorityScheduler>(32));
    WorkloadGenerator gen(7);
    OltpWorkloadConfig shape;
    Rng arrivals(7);
    OpenLoopDriver driver(
        &rig.sim, &arrivals, 100.0, [&] { return gen.NextOltp(shape); },
        [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
    driver.Start(10.0);
    rig.sim.RunUntil(20.0);
    const int64_t txns = rig.monitor.tag_stats("oltp").completed;
    completed += txns;
    state.counters["sim_txns"] = static_cast<double>(txns);
    benchmark::DoNotOptimize(rig.engine.counters().completed);
  }
  state.SetItemsProcessed(completed);
}
BENCHMARK(BM_PipelineSimulatedOltp)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
