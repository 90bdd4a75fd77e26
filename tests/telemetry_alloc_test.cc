// A warm telemetry facade allocates nothing per query: once the tracer
// holds its bound of records (a trace and a profile each) and the event
// log has wrapped, a healthy query's five hooks (submit, admit, dispatch,
// run segment, terminal) reuse the slots, rings and metric handles earlier
// queries left behind. This binary replaces the global operator new
// (tests/counting_new.h) to count heap allocations inside a window of
// query lifecycles.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "engine/engine.h"
#include "engine/monitor.h"
#include "sim/simulation.h"
#include "telemetry/telemetry.h"
#include "tests/counting_new.h"

namespace wlm {
namespace {

TEST(WarmTelemetry, QueryLifecycleAllocatesNothing) {
  Simulation sim;
  DatabaseEngine engine(&sim, EngineConfig());
  Monitor monitor(&sim, &engine, 1.0);
  Telemetry telemetry(&sim, &monitor);
  ASSERT_TRUE(telemetry.profiling());

  QueryOutcome outcome;
  outcome.kind = OutcomeKind::kCompleted;
  outcome.cpu_used = 0.0125;
  outcome.io_used = 40.0;
  outcome.spill_factor = 1.25;
  outcome.buffer_hit_ratio = 0.85;
  outcome.lock_wait_seconds = 0.001;
  outcome.phases.lock_wait_seconds = 0.001;
  outcome.phases.cpu_run_seconds = 0.0125;
  outcome.phases.io_stall_seconds = 0.004;
  const std::string workloads[] = {"oltp", "bi"};
  QueryId id = 0;
  auto query = [&] {
    ++id;
    const WorkloadId workload_id = id % 2;
    const std::string& workload = workloads[workload_id];
    outcome.id = id;
    telemetry.OnSubmit(id, workload_id, workload, QueryKind::kOltpTransaction);
    telemetry.OnAdmitted(id);
    telemetry.OnDispatch(id, workload_id, workload, nullptr);
    telemetry.OnRunSegment(id, outcome);
    telemetry.OnTerminal(id, workload_id, workload, WlmEventType::kCompleted,
                         0.02, 0.001, outcome);
  };
  // Past every bound: 8192 records (a trace and a profile each), and
  // 65,536 events at three a query.
  for (int i = 0; i < 22000; ++i) query();
  ASSERT_EQ(telemetry.tracer().size(), 8192u);
  ASSERT_EQ(telemetry.profiles().size(), 8192u);
  ASSERT_EQ(telemetry.event_log().size(), size_t{1} << 16);
  const int64_t evicted = telemetry.tracer().evicted();

  constexpr int kQueries = 2000;
  g_allocations = 0;
  g_counting = true;
  for (int i = 0; i < kQueries; ++i) query();
  g_counting = false;

  EXPECT_EQ(g_allocations, 0) << "over " << kQueries << " queries";
  // The counted window evicted and reused a record per query.
  EXPECT_EQ(telemetry.tracer().evicted() - evicted, kQueries);
  const QueryTrace* trace = telemetry.tracer().Find(id);
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->finished);
}

}  // namespace
}  // namespace wlm
