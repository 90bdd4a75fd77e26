// Heap allocations per query on the path a warm manager and engine take
// through a mix_steady-shaped stream, the perfbench workload of that name:
// OLTP with locks at 90/s plus BI at 0.3/s for 600 simulated seconds,
// PriorityScheduler at MPL 16 and MplAdmission capping `bi` at 4. As in
// perfbench, every arrival's spec is generated before the clock starts and
// one scheduled event per source feeds them, so what is counted inside
// RunUntil is the program's own work. A third case routes the same streams
// over a four-shard ClusterDispatcher, a fourth leaves that cluster idle,
// and a fifth overloads one manager until its wait queue runs LIFO. This
// binary replaces the global operator new to count
// (tests/counting_new.h).
//
// The bounds sit just above the counts this code measures (see the tests
// below). A change that removes allocations lowers them; one that adds an
// allocation per query fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <tuple>
#include <vector>

#include "admission/threshold_admission.h"
#include "characterization/static_classifier.h"
#include "cluster/cluster.h"
#include "core/workload_manager.h"
#include "engine/engine.h"
#include "engine/monitor.h"
#include "scheduling/queue_schedulers.h"
#include "sim/simulation.h"
#include "tests/counting_new.h"
#include "workloads/generators.h"

namespace wlm {
namespace {

struct Arrival {
  double time = 0.0;
  QuerySpec spec;
};

/// Two Poisson sources drawn up to `until`, OLTP at `oltp_rate` and BI at
/// 0.3/s, then specs built in merged arrival order from one generator, so
/// ids rise with arrival time.
std::vector<std::vector<Arrival>> MixSteadyArrivals(double until,
                                                    uint64_t seed,
                                                    double oltp_rate = 90.0) {
  const double rates[] = {oltp_rate, 0.3};  // OLTP, BI
  struct Slot {
    double time;
    size_t source;
  };
  std::vector<Slot> slots;
  for (size_t s = 0; s < 2; ++s) {
    Rng gaps(seed * 0x9E3779B97F4A7C15ULL + 7919 * (s + 1));
    for (double now = gaps.Exponential(1.0 / rates[s]); now <= until;
         now += gaps.Exponential(1.0 / rates[s])) {
      slots.push_back({now, s});
    }
  }
  std::stable_sort(
      slots.begin(), slots.end(),
      [](const Slot& a, const Slot& b) { return a.time < b.time; });
  WorkloadGenerator generator(seed ^ 0x5851F42D4C957F2DULL);
  OltpWorkloadConfig oltp;
  BiWorkloadConfig bi;
  bi.cpu_sigma = 0.5;
  std::vector<std::vector<Arrival>> streams(2);
  for (const Slot& slot : slots) {
    streams[slot.source].push_back(
        {slot.time,
         slot.source == 0 ? generator.NextOltp(oltp) : generator.NextBi(bi)});
  }
  return streams;
}

/// Keeps one pending arrival event per stream in the kernel. `Target` is
/// a WorkloadManager or a ClusterDispatcher.
template <typename Target>
class Feeder {
 public:
  Feeder(Simulation* sim, Target* target, const std::vector<Arrival>* stream)
      : sim_(sim), target_(target), stream_(stream) {}

  void Start() { ScheduleNext(); }

 private:
  void ScheduleNext() {
    if (next_ >= stream_->size()) return;
    sim_->ScheduleAt((*stream_)[next_].time, [this] {
      (void)target_->Submit((*stream_)[next_++].spec);
      ScheduleNext();
    });
  }

  Simulation* sim_;
  Target* target_;
  const std::vector<Arrival>* stream_;
  size_t next_ = 0;
};

/// mix_steady's workloads, classifier, `bi` MPL cap and scheduler.
void ConfigureMixSteady(WorkloadManager& manager) {
  auto classifier = std::make_unique<StaticClassifier>();
  for (const auto& [name, priority, kind] :
       {std::tuple{"oltp", BusinessPriority::kHigh,
                   QueryKind::kOltpTransaction},
        std::tuple{"bi", BusinessPriority::kLow, QueryKind::kBiQuery},
        std::tuple{"utilities", BusinessPriority::kBackground,
                   QueryKind::kUtility}}) {
    WorkloadDefinition def;
    def.name = name;
    def.priority = priority;
    manager.DefineWorkload(def);
    ClassificationRule rule;
    rule.workload = name;
    rule.kind = kind;
    classifier->AddRule(rule);
  }
  manager.set_classifier(std::move(classifier));
  MplAdmission::Config mpl;
  mpl.per_workload_mpl = {{"bi", 4}};
  manager.AddAdmissionController(std::make_unique<MplAdmission>(mpl));
  manager.set_scheduler(std::make_unique<PriorityScheduler>(/*mpl=*/16));
}

/// Arrivals after `warm`, the queries a count over the rest of the run
/// divides by.
int64_t QueriesAfter(const std::vector<std::vector<Arrival>>& streams,
                     double warm) {
  int64_t queries = 0;
  for (const auto& stream : streams) {
    queries += std::ranges::count_if(
        stream, [warm](const Arrival& a) { return a.time > warm; });
  }
  return queries;
}

struct Counts {
  int64_t setup = 0;       // building the stack and arming the arrivals
  double per_query = 0.0;  // inside RunUntil, once warm
};

Counts CountMixSteady(bool telemetry) {
  constexpr double kTraffic = 600.0;
  // Past every telemetry bound: 8192 traces and profiles, and the event
  // log's 65,536 records at about three per query.
  constexpr double kWarm = 300.0;
  const std::vector<std::vector<Arrival>> streams =
      MixSteadyArrivals(kTraffic, /*seed=*/12345);
  const int64_t counted_queries = QueriesAfter(streams, kWarm);

  Counts counts;
  g_allocations = 0;
  g_counting = true;
  Simulation sim;
  EngineConfig engine_config;
  engine_config.num_cpus = 4;
  engine_config.io_ops_per_second = 1500.0;
  engine_config.memory_mb = 2048.0;
  engine_config.tick_seconds = 0.02;
  DatabaseEngine engine(&sim, engine_config);
  Monitor monitor(&sim, &engine, 0.5);
  monitor.Start();
  WlmConfig config;
  config.telemetry.enabled = telemetry;
  WorkloadManager manager(&sim, &engine, &monitor, config);
  ConfigureMixSteady(manager);
  std::vector<std::unique_ptr<Feeder<WorkloadManager>>> feeders;
  for (const auto& stream : streams) {
    feeders.push_back(
        std::make_unique<Feeder<WorkloadManager>>(&sim, &manager, &stream));
    feeders.back()->Start();
  }
  g_counting = false;
  counts.setup = g_allocations;

  sim.RunUntil(kWarm);
  g_allocations = 0;
  g_counting = true;
  sim.RunUntil(kTraffic + 20.0);  // the rest of the traffic, then a drain
  g_counting = false;
  counts.per_query = static_cast<double>(g_allocations) /
                     static_cast<double>(counted_queries);
  std::printf("telemetry %s: %lld set-up allocations, %.3f per query over "
              "%lld queries\n",
              telemetry ? "on" : "off", static_cast<long long>(counts.setup),
              counts.per_query, static_cast<long long>(counted_queries));
  EXPECT_EQ(manager.AllRequests().size(), 0u) << "the run did not drain";
  return counts;
}

// Measured with g++ 12 / libstdc++ 12: 1.716 per query with telemetry on
// or off, and 194 (on) and 36 (off) at set-up. A warm dispatch, finish and
// telemetry hook allocate nothing: executions, running-set entries and
// request slots are recycled. What remains is nearly all the event
// kernel's: every event scheduled (an arrival, an engine tick, a monitor
// sample, a deadlock check) takes a node in Simulation's callback map, and
// 1.55 events run per query. The deadlock detector's hash tables add about
// 0.02. The bounds sit 0.014 above the measurements: one new allocation on
// every fiftieth query fails them.
TEST(WarmRequestPath, AllocationsPerQueryTelemetryOn) {
  const Counts counts = CountMixSteady(/*telemetry=*/true);
  EXPECT_LE(counts.per_query, 1.73);
  EXPECT_LE(counts.setup, 194);
}

TEST(WarmRequestPath, AllocationsPerQueryTelemetryOff) {
  const Counts counts = CountMixSteady(/*telemetry=*/false);
  EXPECT_LE(counts.per_query, 1.73);
  EXPECT_LE(counts.setup, 36);
}

/// Four shards of a quarter of the capacity each, with re-dispatch and
/// the failure model on, each shard configured as mix_steady.
ClusterOptions FourShards() {
  ClusterOptions options;
  options.num_shards = 4;
  options.engine.num_cpus = 1;
  options.engine.io_ops_per_second = 400.0;
  options.engine.memory_mb = 512.0;
  options.engine.tick_seconds = 0.02;
  options.redispatch = true;
  options.health.enabled = true;
  return options;
}

void ConfigureShard(int, WorkloadManager& manager) {
  ConfigureMixSteady(manager);
}

// The same streams routed over four shards (no shard fails): what routing,
// health, journeys and federation add per query on top of each shard's own
// path.
double CountRoutedMixSteady() {
  constexpr double kTraffic = 300.0;
  constexpr double kWarm = 150.0;
  const std::vector<std::vector<Arrival>> streams =
      MixSteadyArrivals(kTraffic, /*seed=*/12345);
  const int64_t counted_queries = QueriesAfter(streams, kWarm);

  Simulation sim;
  ClusterDispatcher cluster(&sim, FourShards(), ConfigureShard);
  std::vector<std::unique_ptr<Feeder<ClusterDispatcher>>> feeders;
  for (const auto& stream : streams) {
    feeders.push_back(
        std::make_unique<Feeder<ClusterDispatcher>>(&sim, &cluster, &stream));
    feeders.back()->Start();
  }

  sim.RunUntil(kWarm);
  g_allocations = 0;
  g_counting = true;
  sim.RunUntil(kTraffic + 20.0);
  g_counting = false;
  // A shard has a quarter of the capacity, so long BI queries are still
  // running at the end (a few dozen of the ~13,500 counted); the count
  // stops there rather than paying for a long idle tail.
  const double per_query = static_cast<double>(g_allocations) /
                           static_cast<double>(counted_queries);
  std::printf("4 shards: %.3f allocations per routed query over %lld "
              "queries\n",
              per_query, static_cast<long long>(counted_queries));
  return per_query;
}

// Measured with g++ 12 / libstdc++ 12: 10.992 per routed query. Routing
// state kept per query in node containers shows here: a std::map entry
// holding a std::set of the shards each query tried once added 2. The
// bound sits 0.008 above the measurement.
TEST(WarmRequestPath, AllocationsPerRoutedQuery) {
  EXPECT_LE(CountRoutedMixSteady(), 11.00);
}

// One manager configured as mix_steady, with overload protection on but
// breakers and brownout off, offered OLTP at 360/s, about twice what the
// engine's 1,500 I/O operations per second serve. Every arrival carries a
// 5 s deadline. The wait queue stays at CoDel's capacity of 256, CoDel
// keeps it LIFO, and deadline shedding watches every waiting request, so
// each completion runs a LIFO round over a deep queue.
double CountOverloaded() {
  constexpr double kTraffic = 120.0;
  constexpr double kWarm = 60.0;
  std::vector<std::vector<Arrival>> streams =
      MixSteadyArrivals(kTraffic, /*seed=*/12345, /*oltp_rate=*/360.0);
  for (auto& stream : streams) {
    for (Arrival& arrival : stream) arrival.spec.deadline_seconds = 5.0;
  }
  const int64_t counted_queries = QueriesAfter(streams, kWarm);

  Simulation sim;
  EngineConfig engine_config;
  engine_config.num_cpus = 4;
  engine_config.io_ops_per_second = 1500.0;
  engine_config.memory_mb = 2048.0;
  engine_config.tick_seconds = 0.02;
  DatabaseEngine engine(&sim, engine_config);
  Monitor monitor(&sim, &engine, 0.5);
  monitor.Start();
  WlmConfig config;
  config.telemetry.enabled = false;
  config.overload.enabled = true;
  config.overload.breaker = false;
  config.overload.brownout = false;
  WorkloadManager manager(&sim, &engine, &monitor, config);
  ConfigureMixSteady(manager);
  std::vector<std::unique_ptr<Feeder<WorkloadManager>>> feeders;
  for (const auto& stream : streams) {
    feeders.push_back(
        std::make_unique<Feeder<WorkloadManager>>(&sim, &manager, &stream));
    feeders.back()->Start();
  }

  sim.RunUntil(kWarm);
  EXPECT_TRUE(manager.queue_lifo()) << "the queue never turned LIFO";
  EXPECT_GE(manager.queue_depth(), 200u);
  g_allocations = 0;
  g_counting = true;
  sim.RunUntil(kTraffic);
  g_counting = false;
  EXPECT_TRUE(manager.queue_lifo());
  const double per_query = static_cast<double>(g_allocations) /
                           static_cast<double>(counted_queries);
  std::printf("overloaded, LIFO: %.3f allocations per query over %lld "
              "queries, %lld shed\n",
              per_query, static_cast<long long>(counted_queries),
              static_cast<long long>(manager.overload()->shed_total()));
  return per_query;
}

// Measured with g++ 12 / libstdc++ 12: 1.550 per query. A LIFO round walks
// the wait queue in place, and deadline shedding keeps one running bound.
// A round that copies the queue to sort it and lists the sorted ids
// allocates twice per completed query: 2.486 per query here. The bound
// sits 0.01 above the measurement.
TEST(WarmRequestPath, AllocationsPerQueryOverloaded) {
  EXPECT_LE(CountOverloaded(), 1.56);
}

// The same cluster with no traffic at all, from 100 to 200 simulated
// seconds: what its periodic work (each shard's monitor samples, the
// health loop, the 1 s federation samples) allocates per simulated second.
double CountIdleCluster(bool federation) {
  Simulation sim;
  ClusterOptions options = FourShards();
  options.observability.federation = federation;
  ClusterDispatcher cluster(&sim, options, ConfigureShard);
  sim.RunUntil(100.0);
  g_allocations = 0;
  g_counting = true;
  sim.RunUntil(200.0);
  g_counting = false;
  const double per_second = static_cast<double>(g_allocations) / 100.0;
  std::printf("idle 4 shards, federation %s: %.2f allocations per simulated "
              "second\n",
              federation ? "on" : "off", per_second);
  return per_second;
}

// Measured with g++ 12 / libstdc++ 12: 13.48 per simulated second with
// federation on, 12.48 with it off. The cluster runs 13 and 12 events per
// second, and each takes a node in the event kernel's callback map; the
// rest, 0.48, is not attributed. Samples resolve their metric handles and
// series once, so a sample that built a name or label string per read
// would add several per second.
TEST(WarmRequestPath, IdleClusterAllocationsPerSecond) {
  EXPECT_LE(CountIdleCluster(/*federation=*/true), 13.5);
  EXPECT_LE(CountIdleCluster(/*federation=*/false), 12.5);
}

}  // namespace
}  // namespace wlm
