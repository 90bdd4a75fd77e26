// Teradata-style workload analysis: run a server with *no* workload
// definitions, mine the query log (the DBQL stand-in) with the workload
// analyzer, print the recommended workload definitions with their derived
// service-level goals, then apply them and re-run the traffic under
// management.
//
// Build & run:  ./build/examples/workload_analyzer

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/table_printer.h"
#include "core/workload_manager.h"
#include "systems/teradata_asm.h"
#include "workloads/generators.h"

namespace {

using namespace wlm;

void DriveTraffic(Simulation* sim, WorkloadManager* manager,
                  WorkloadGenerator* generator, Rng* arrivals,
                  double duration) {
  OltpWorkloadConfig oltp_shape;
  BiWorkloadConfig bi_shape;
  OpenLoopDriver oltp_driver(
      sim, arrivals, 20.0, [=] { return generator->NextOltp(oltp_shape); },
      [=](QuerySpec spec) { (void)manager->Submit(std::move(spec)); });
  OpenLoopDriver bi_driver(
      sim, arrivals, 0.5, [=] { return generator->NextBi(bi_shape); },
      [=](QuerySpec spec) { (void)manager->Submit(std::move(spec)); });
  oltp_driver.Start(sim->Now() + duration);
  bi_driver.Start(sim->Now() + duration);
  sim->RunUntil(sim->Now() + duration + 300.0);
}

}  // namespace

int main() {
  using namespace wlm;

  // Phase 1: unmanaged server collecting the query log.
  Simulation sim;
  EngineConfig config;
  config.num_cpus = 4;
  DatabaseEngine engine(&sim, config);
  Monitor monitor(&sim, &engine, 1.0);
  monitor.Start();
  WorkloadManager unmanaged(&sim, &engine, &monitor);
  // The query log: each request as it ended (the manager retires it then).
  std::vector<Request> ended;
  unmanaged.AddCompletionListener(
      [&ended](const Request& r) { ended.push_back(r); });
  WorkloadGenerator generator(321);
  Rng arrivals(321);
  DriveTraffic(&sim, &unmanaged, &generator, &arrivals, 60.0);

  // Phase 2: the analyzer mines the log, in submission order, into
  // candidate workloads.
  std::ranges::sort(ended, {}, &Request::sequence);
  std::vector<const Request*> query_log;
  for (const Request& r : ended) query_log.push_back(&r);
  auto recommendations = TeradataAsmFacade::AnalyzeQueryLog(query_log);
  PrintBanner(std::cout, "Workload analyzer recommendations (from DBQL)");
  TablePrinter table({"Candidate workload", "Queries", "Priority",
                      "Observed p90 (s)", "Recommended SLG"});
  for (const auto& rec : recommendations) {
    table.AddRow({rec.definition.name,
                  TablePrinter::Int(rec.sample_queries),
                  BusinessPriorityToString(rec.definition.priority),
                  TablePrinter::Num(rec.observed_p90_response, 3),
                  rec.definition.slgs.empty()
                      ? "-"
                      : rec.definition.slgs[0].ToString()});
  }
  table.Print(std::cout);

  // Phase 3: apply the recommendations on a fresh server and re-run.
  Simulation sim2;
  DatabaseEngine engine2(&sim2, config);
  Monitor monitor2(&sim2, &engine2, 1.0);
  monitor2.Start();
  WorkloadManager managed(&sim2, &engine2, &monitor2);
  TeradataAsmFacade asm_facade(&managed);
  for (auto& rec : recommendations) {
    // Throttle analytical candidates so they cannot starve tactical work.
    if (rec.definition.priority == BusinessPriority::kLow) {
      rec.definition.concurrency_throttle = 4;
    }
    asm_facade.AddWorkloadDefinition(rec.definition);
  }
  if (!asm_facade.Build().ok()) {
    std::cerr << "facade build failed\n";
    return 1;
  }
  WorkloadGenerator generator2(321);
  Rng arrivals2(321);
  DriveTraffic(&sim2, &managed, &generator2, &arrivals2, 60.0);

  PrintBanner(std::cout, "Re-run under the recommended definitions");
  TablePrinter result({"Workload", "Completed", "p90 resp (s)",
                       "SLG", "Met?"});
  for (const auto& [name, def] : managed.workloads()) {
    const TagStats& stats = monitor2.tag_stats(name);
    if (stats.completed == 0) continue;
    std::string slg = "-";
    std::string met = "-";
    if (!def.slos.empty()) {
      SloEvaluation eval = EvaluateSlo(def.slos[0], stats);
      slg = def.slos[0].ToString();
      met = eval.met ? "yes" : "NO";
    }
    result.AddRow({name, TablePrinter::Int(stats.completed),
                   TablePrinter::Num(stats.response_times.Percentile(90), 3),
                   slg, met});
  }
  result.Print(std::cout);
  return 0;
}
