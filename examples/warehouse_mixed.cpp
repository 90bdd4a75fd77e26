// Mixed tactical + decision-support load on one warehouse (the Teradata
// ASM setting): a TPC-C-flavoured transaction stream and TPC-H-flavoured
// analytical queries — generated *logically* against catalog statistics,
// so demands follow data sizes — run under an ASM-style configuration:
// resource filters, a DSS concurrency throttle and an exception rule.
//
// Build & run:  ./build/examples/warehouse_mixed

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "core/workload_manager.h"
#include "engine/catalog.h"
#include "systems/teradata_asm.h"
#include "workloads/generators.h"
#include "workloads/logical_workloads.h"

int main() {
  using namespace wlm;

  Simulation sim;
  EngineConfig config;
  config.num_cpus = 8;
  config.io_ops_per_second = 6000.0;
  config.memory_mb = 8192.0;
  DatabaseEngine engine(&sim, config);
  Monitor monitor(&sim, &engine, 1.0);
  monitor.Start();
  WorkloadManager manager(&sim, &engine, &monitor);

  // ASM-style rules.
  TeradataAsmFacade asm_facade(&manager);
  TeradataAsmFacade::QueryResourceFilter resource_filter;
  resource_filter.max_est_seconds = 600.0;  // reject pathological queries
  asm_facade.AddQueryResourceFilter(resource_filter);
  TeradataAsmFacade::WorkloadDefinitionRule tactical;
  tactical.name = "tactical";
  tactical.kind = QueryKind::kOltpTransaction;
  tactical.priority = BusinessPriority::kHigh;
  tactical.slgs.push_back(ServiceLevelObjective::PercentileResponse(95, 0.2));
  asm_facade.AddWorkloadDefinition(tactical);
  TeradataAsmFacade::WorkloadDefinitionRule dss;
  dss.name = "dss";
  dss.kind = QueryKind::kBiQuery;
  dss.priority = BusinessPriority::kLow;
  dss.concurrency_throttle = 3;
  TeradataAsmFacade::ExceptionRule exception;
  exception.max_elapsed_seconds = 240.0;
  exception.action = TeradataAsmFacade::ExceptionAction::kDemote;
  dss.exception = exception;
  asm_facade.AddWorkloadDefinition(dss);
  if (!asm_facade.Build().ok()) return 1;

  // Logical workloads against catalog statistics.
  Catalog tpcc = Catalog::TpccLike(/*warehouses=*/20);
  Catalog tpch = Catalog::TpchLike(/*scale_factor=*/0.25);
  TransactionalWorkload txn_gen(&tpcc, 20, /*seed=*/41,
                                /*first_id=*/1);
  AnalyticalWorkload olap_gen(&tpch, CostModel{}, /*seed=*/43,
                              /*first_id=*/10'000'000);

  // The manager retires each request as it ends: keep what the
  // per-transaction-type breakdown below reads.
  struct Finished {
    uint64_t sequence;
    std::string type;
    double response;
  };
  std::vector<Finished> tactical_done;
  manager.AddCompletionListener([&](const Request& r) {
    if (r.workload == "tactical" && r.state == RequestState::kCompleted) {
      tactical_done.push_back({r.sequence, r.spec.sql_digest, r.ResponseTime()});
    }
  });

  Rng arrivals(99);
  OpenLoopDriver txn_driver(
      &sim, &arrivals, /*rate=*/60.0, [&] { return txn_gen.Next(); },
      [&](QuerySpec spec) { (void)manager.Submit(std::move(spec)); });
  OpenLoopDriver olap_driver(
      &sim, &arrivals, /*rate=*/0.25, [&] { return olap_gen.Next(); },
      [&](QuerySpec spec) { (void)manager.Submit(std::move(spec)); });
  txn_driver.Start(180.0);
  olap_driver.Start(180.0);
  sim.RunUntil(900.0);

  PrintBanner(std::cout,
              "Warehouse under ASM rules: tactical TPC-C mix + TPC-H-style "
              "DSS queries");
  TablePrinter table({"Workload", "Completed", "p95 resp (s)",
                      "mean velocity", "SLG", "Met?"});
  for (const char* name : {"tactical", "dss"}) {
    const TagStats& stats = monitor.tag_stats(name);
    const WorkloadDefinition* def = manager.workload(name);
    std::string slg = "-";
    std::string met = "-";
    if (def != nullptr && !def->slos.empty()) {
      SloEvaluation eval = EvaluateSlo(def->slos[0], stats);
      slg = def->slos[0].ToString();
      met = eval.met ? "yes" : "NO";
    }
    table.AddRow({name, TablePrinter::Int(stats.completed),
                  TablePrinter::Num(stats.response_times.Percentile(95), 3),
                  TablePrinter::Num(stats.velocities.mean(), 2), slg, met});
  }
  table.Print(std::cout);

  // Per-transaction-type breakdown from the request log, in submission
  // order.
  PrintBanner(std::cout, "Tactical mix breakdown");
  std::ranges::sort(tactical_done, {}, &Finished::sequence);
  std::map<std::string, Percentiles> by_type;
  for (const Finished& done : tactical_done) {
    by_type[done.type].Add(done.response);
  }
  TablePrinter mix({"Txn type", "count", "mean resp (s)", "p95 resp (s)"});
  for (auto& [type, responses] : by_type) {
    mix.AddRow({type, TablePrinter::Int(responses.count()),
                TablePrinter::Num(responses.mean(), 3),
                TablePrinter::Num(responses.Percentile(95), 3)});
  }
  mix.Print(std::cout);

  std::printf(
      "\nfilters rejected %ld, exception demotions %ld, deadlock aborts "
      "%lu\n",
      static_cast<long>(asm_facade.filter_rejections()),
      static_cast<long>(asm_facade.exception_demotions()),
      static_cast<unsigned long>(engine.counters().deadlock_aborts));
  return 0;
}
