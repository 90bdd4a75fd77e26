// S5 — query restructuring (Section 3.3): decomposing one monster query
// into individually scheduled sub-plans so short queries are never stuck
// behind it, "executing the work with a lesser impact on the performance
// of the other requests". Single-slot engine (MPL 1) makes the
// head-of-line blocking maximal; the sweep shows the short-query latency
// vs the monster's total-completion penalty as the chunk size shrinks.

#include <algorithm>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "scheduling/queue_schedulers.h"
#include "scheduling/restructuring.h"

namespace {

using namespace wlm;
using wlm_bench::BenchRig;

struct Row {
  int chunks = 1;
  double short_mean = 0.0;
  double short_p95 = 0.0;
  double monster_response = 0.0;
};

Row Run(double chunk_work) {  // <= 0: monolithic
  EngineConfig config = wlm_bench::DefaultEngine();
  config.num_cpus = 1;
  BenchRig rig(config);
  wlm_bench::DefineStandardWorkloads(&rig.wlm);
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(1));

  Row row;
  // The monster: 30s of work.
  QuerySpec monster;
  monster.id = 1;
  monster.kind = QueryKind::kBiQuery;
  monster.cpu_seconds = 20.0;
  monster.io_ops = 10000.0;
  monster.memory_mb = 512.0;
  monster.result_rows = 1000000;

  double monster_finish = -1.0;
  // Lives until the end of the run so the chunk chain can complete.
  std::unique_ptr<SlicedQuerySubmitter> submitter;
  if (chunk_work <= 0.0) {
    (void)rig.wlm.Submit(monster);
    rig.wlm.AddCompletionListener([&](const Request& r) {
      if (r.spec.id == 1) monster_finish = r.finish_time;
    });
    row.chunks = 1;
  } else {
    submitter = std::make_unique<SlicedQuerySubmitter>(&rig.wlm, chunk_work);
    submitter->SubmitSliced(
        monster, [&](const SlicedQuerySubmitter::Result& result) {
          monster_finish = result.last_finish;
          row.chunks = result.chunks_total;
        });
  }

  // Completed short queries, kept as they end (the manager retires them).
  std::vector<std::pair<uint64_t, double>> shorts_done;  // sequence, response
  rig.wlm.AddCompletionListener([&shorts_done](const Request& r) {
    if (r.spec.id >= 100 && r.state == RequestState::kCompleted) {
      shorts_done.emplace_back(r.sequence, r.ResponseTime());
    }
  });

  // Stream of short interactive queries behind it.
  WorkloadGenerator gen(5150, /*first_id=*/100);
  BiWorkloadConfig short_shape;
  short_shape.cpu_mu = -2.0;  // ~0.14s median
  short_shape.cpu_sigma = 0.4;
  short_shape.io_per_cpu = 300.0;
  Rng arrivals(5150);
  OpenLoopDriver driver(
      &rig.sim, &arrivals, 1.0, [&] { return gen.NextBi(short_shape); },
      [&](QuerySpec spec) { (void)rig.wlm.Submit(std::move(spec)); });
  driver.Start(60.0);
  rig.sim.RunUntil(600.0);

  // In submission order.
  std::ranges::sort(shorts_done);
  Percentiles shorts;
  for (const auto& [sequence, response] : shorts_done) shorts.Add(response);
  row.short_mean = shorts.mean();
  row.short_p95 = shorts.Percentile(95);
  row.monster_response = monster_finish;
  return row;
}

}  // namespace

int main() {
  using namespace wlm;
  PrintBanner(std::cout,
              "S5 — slicing a 30s-work query on a single-slot engine "
              "(FIFO, MPL 1) with a 1 q/s short-query stream");
  TablePrinter table({"Chunk budget (work units)", "sub-plans",
                      "short mean (s)", "short p95 (s)",
                      "monster completion (s)"});
  struct Case {
    const char* label;
    double chunk_work;
  };
  const Case cases[] = {
      {"monolithic", 0.0}, {"8.0", 8.0}, {"4.0", 4.0},
      {"2.0", 2.0},        {"1.0", 1.0}, {"0.5", 0.5},
  };
  for (const Case& c : cases) {
    Row row = Run(c.chunk_work);
    table.AddRow({c.label, TablePrinter::Int(row.chunks),
                  TablePrinter::Num(row.short_mean, 2),
                  TablePrinter::Num(row.short_p95, 2),
                  TablePrinter::Num(row.monster_response, 1)});
  }
  table.Print(std::cout);
  std::cout << "\nShape check: finer slicing collapses the short queries' "
               "head-of-line blocking\n(p95 drops by an order of "
               "magnitude) while the restructured query pays a\nmodest "
               "completion penalty — the paper's restructuring trade-off.\n";
  return 0;
}
