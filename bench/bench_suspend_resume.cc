// S4 — suspend-strategy trade-off (Section 4.2.3, Chandramouli et al.):
// DumpState persists the current operator state (expensive suspend, cheap
// resume); GoBack persists only control state and redoes work from the
// last asynchronous checkpoint (cheap suspend, possible redo at resume).
// A BI query is suspended at progress points 10%..90% under each strategy;
// measured suspend I/O, resume I/O, redone work and total overhead are
// reported, plus the budget-constrained strategy chooser's picks.

#include <iostream>

#include "bench/bench_util.h"
#include "execution/suspend_resume.h"

namespace {

using namespace wlm;
using wlm_bench::BenchRig;

struct Measurement {
  double progress = 0.0;
  double suspend_io = 0.0;
  double resume_io = 0.0;
  double redo_cpu = 0.0;
  double redo_io = 0.0;
  double total_overhead_work = 0.0;  // cpu + io/io_rate
};

QuerySpec Victim(QueryId id) {
  QuerySpec spec;
  spec.id = id;
  spec.kind = QueryKind::kBiQuery;
  spec.cpu_seconds = 10.0;
  spec.io_ops = 6000.0;
  spec.memory_mb = 512.0;
  spec.result_rows = 100000;
  return spec;
}

Measurement SuspendAt(double target_fraction, SuspendStrategy strategy) {
  EngineConfig config = wlm_bench::DefaultEngine();
  BenchRig rig(config);
  QuerySpec spec = Victim(1);

  bool done = false;
  ExecutionContext ctx;
  ctx.on_finish = [&](const QueryOutcome&) { done = true; };
  (void)rig.engine.Dispatch(spec, ctx);
  // Advance until the target progress fraction.
  while (!done) {
    rig.sim.RunFor(0.1);
    auto progress = rig.engine.GetProgress(1);
    if (progress.ok() && progress->fraction_done >= target_fraction) break;
  }
  Measurement m;
  auto progress = rig.engine.GetProgress(1);
  if (!progress.ok()) return m;
  m.progress = progress->fraction_done;
  (void)rig.engine.Suspend(1, strategy);
  rig.sim.RunUntil(rig.sim.Now() + 200.0);
  auto bundle = rig.engine.TakeSuspended(1);
  if (!bundle.ok()) return m;
  m.suspend_io = bundle->suspend_io_cost;
  m.resume_io = bundle->resume_io_cost;
  m.redo_cpu = bundle->redo_cpu;
  m.redo_io = bundle->redo_io;
  m.total_overhead_work =
      m.redo_cpu + (m.suspend_io + m.resume_io + m.redo_io) /
                       config.io_ops_per_second;
  return m;
}

}  // namespace

int main() {
  using namespace wlm;

  PrintBanner(std::cout,
              "S4 — DumpState vs GoBack suspension of a 512MB-state BI "
              "query across progress points");
  TablePrinter table({"Progress", "Strategy", "suspend I/O (ops)",
                      "resume I/O (ops)", "redo cpu (s)",
                      "total overhead (work units)"});
  const double kPoints[] = {0.1, 0.3, 0.5, 0.7, 0.9};
  double dump_total = 0.0;
  double goback_total = 0.0;
  for (double point : kPoints) {
    for (SuspendStrategy strategy :
         {SuspendStrategy::kDumpState, SuspendStrategy::kGoBack}) {
      Measurement m = SuspendAt(point, strategy);
      table.AddRow({TablePrinter::Pct(m.progress, 0),
                    SuspendStrategyToString(strategy),
                    TablePrinter::Num(m.suspend_io, 0),
                    TablePrinter::Num(m.resume_io, 0),
                    TablePrinter::Num(m.redo_cpu, 2),
                    TablePrinter::Num(m.total_overhead_work, 2)});
      if (strategy == SuspendStrategy::kDumpState) {
        dump_total += m.suspend_io;
      } else {
        goback_total += m.suspend_io;
      }
    }
  }
  table.Print(std::cout);
  std::cout << "\nShape check: GoBack's suspend cost is flat and tiny "
               "(control state only,\nmean "
            << TablePrinter::Num(goback_total / 5.0, 0)
            << " ops vs DumpState's "
            << TablePrinter::Num(dump_total / 5.0, 0)
            << " ops), but it pays redone work at resume — the paper's "
               "stated trade-off.\n";

  // Budget-constrained chooser (the MIP objective: minimize total
  // overhead subject to a suspend-cost constraint).
  PrintBanner(std::cout,
              "Suspend-plan optimization: strategy chosen per suspend-I/O "
              "budget at 50% progress");
  TablePrinter chooser({"suspend I/O budget (ops)", "chosen strategy"});
  {
    EngineConfig config = wlm_bench::DefaultEngine();
    BenchRig rig(config);
    QuerySpec spec = Victim(1);
    Plan plan = rig.engine.optimizer().BuildPlan(spec);
    (void)rig.engine.Dispatch(spec, {});
    while (true) {
      rig.sim.RunFor(0.1);
      auto progress = rig.engine.GetProgress(1);
      if (!progress.ok() || progress->fraction_done >= 0.5) break;
    }
    auto progress = rig.engine.GetProgress(1);
    if (progress.ok()) {
      for (double budget : {50.0, 500.0, 5000.0, 1e12}) {
        SuspendStrategy choice = ChooseSuspendStrategy(
            plan, *progress, kIoOpsPerMb, config.io_ops_per_second, budget);
        chooser.AddRow({budget >= 1e12 ? "unlimited"
                                       : TablePrinter::Num(budget, 0),
                        SuspendStrategyToString(choice)});
      }
    }
  }
  chooser.Print(std::cout);
  return 0;
}
