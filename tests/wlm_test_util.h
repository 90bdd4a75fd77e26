#ifndef WLM_TESTS_WLM_TEST_UTIL_H_
#define WLM_TESTS_WLM_TEST_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "characterization/static_classifier.h"
#include "cluster/cluster.h"
#include "core/workload_manager.h"
#include "engine/engine.h"
#include "engine/monitor.h"
#include "faults/fault_plan.h"
#include "scheduling/queue_schedulers.h"
#include "sim/simulation.h"
#include "workloads/generators.h"

namespace wlm {

inline EngineConfig TestEngineConfig() {
  EngineConfig cfg;
  cfg.num_cpus = 2;
  cfg.io_ops_per_second = 1000.0;
  cfg.memory_mb = 1024.0;
  cfg.tick_seconds = 0.01;
  cfg.optimizer.error_sigma = 0.0;
  cfg.optimizer.rows_error_sigma = 0.0;
  return cfg;
}

/// Keeps a copy of each request its manager ends. The manager retires a
/// request once its completion listeners return, so a test reads a
/// finished request here. Attach it before the requests it should see
/// are submitted, and keep it in place: its listener points at it.
class RequestRecorder {
 public:
  explicit RequestRecorder(WorkloadManager* manager) : manager_(manager) {
    manager->AddCompletionListener(
        [this](const Request& request) { ended_[request.spec.id] = request; });
  }
  RequestRecorder(const RequestRecorder&) = delete;
  RequestRecorder& operator=(const RequestRecorder&) = delete;

  /// The live request `id`, else the copy taken when it ended; nullptr
  /// when the manager has not seen it.
  const Request* Find(QueryId id) const {
    if (const Request* live = manager_->Find(id)) return live;
    auto it = ended_.find(id);
    return it == ended_.end() ? nullptr : &it->second;
  }
  /// Every request the manager has seen, live or ended, in submission
  /// order: what AllRequests() listed before requests were retired.
  std::vector<const Request*> All() const {
    std::vector<const Request*> all = manager_->AllRequests();
    for (const auto& [id, request] : ended_) {
      if (manager_->Find(id) == nullptr) all.push_back(&request);
    }
    std::ranges::sort(all, {}, &Request::sequence);
    return all;
  }

 private:
  WorkloadManager* manager_;
  std::map<QueryId, Request> ended_;
};

/// One-stop simulation + engine + monitor + workload manager fixture.
struct TestRig {
  Simulation sim;
  DatabaseEngine engine;
  Monitor monitor;
  WorkloadManager wlm;
  /// Finished requests stay readable here after the manager retires them.
  RequestRecorder requests{&wlm};

  explicit TestRig(EngineConfig cfg = TestEngineConfig(),
                   double monitor_interval = 0.5,
                   WlmConfig wlm_config = WlmConfig())
      : engine(&sim, cfg),
        monitor(&sim, &engine, monitor_interval),
        wlm(&sim, &engine, &monitor, wlm_config) {
    monitor.Start();
  }

  /// The live request `id`, or the copy taken when it ended.
  const Request* Find(QueryId id) const { return requests.Find(id); }
};

inline QuerySpec BiSpec(QueryId id, double cpu = 2.0, double io = 1000.0,
                        double mem = 128.0,
                        const std::string& application = "reporting") {
  QuerySpec spec;
  spec.id = id;
  spec.kind = QueryKind::kBiQuery;
  spec.stmt = StatementType::kRead;
  spec.cpu_seconds = cpu;
  spec.io_ops = io;
  spec.memory_mb = mem;
  spec.result_rows = 10000;
  spec.session.application = application;
  spec.session.user = "analyst";
  return spec;
}

inline QuerySpec OltpSpec(QueryId id, double cpu = 0.01,
                          const std::string& application = "pos-system") {
  QuerySpec spec;
  spec.id = id;
  spec.kind = QueryKind::kOltpTransaction;
  spec.stmt = StatementType::kDml;
  spec.cpu_seconds = cpu;
  spec.io_ops = 5.0;
  spec.memory_mb = 2.0;
  spec.result_rows = 1;
  spec.session.application = application;
  spec.session.user = "cashier";
  return spec;
}

/// Refuses utility-class requests at arrival.
class RejectUtilities : public AdmissionController {
 public:
  Status OnArrival(const Request& request,
                   const WorkloadManager& manager) override {
    (void)manager;
    if (request.spec.kind != QueryKind::kUtility) return Status::OK();
    return Status::Rejected("utilities refused");
  }
  TechniqueInfo info() const override {
    TechniqueInfo info;
    info.name = "reject_utilities";
    return info;
  }
};

// ---------------------------------------------------------------------------
// Cluster helpers.
// ---------------------------------------------------------------------------

/// The canonical three-tenant setup (oltp high / bi low / utilities
/// background, classified by query kind) on one shard's manager —
/// the per-shard analogue of the bench harness's standard workloads.
inline void DefineTestWorkloads(WorkloadManager& manager) {
  WorkloadDefinition oltp;
  oltp.name = "oltp";
  oltp.priority = BusinessPriority::kHigh;
  manager.DefineWorkload(oltp);
  WorkloadDefinition bi;
  bi.name = "bi";
  bi.priority = BusinessPriority::kLow;
  manager.DefineWorkload(bi);
  WorkloadDefinition utilities;
  utilities.name = "utilities";
  utilities.priority = BusinessPriority::kBackground;
  manager.DefineWorkload(utilities);

  auto classifier = std::make_unique<StaticClassifier>();
  ClassificationRule oltp_rule;
  oltp_rule.workload = "oltp";
  oltp_rule.kind = QueryKind::kOltpTransaction;
  classifier->AddRule(oltp_rule);
  ClassificationRule bi_rule;
  bi_rule.workload = "bi";
  bi_rule.kind = QueryKind::kBiQuery;
  classifier->AddRule(bi_rule);
  ClassificationRule utility_rule;
  utility_rule.workload = "utilities";
  utility_rule.kind = QueryKind::kUtility;
  classifier->AddRule(utility_rule);
  manager.set_classifier(std::move(classifier));
  // A concurrency cap makes wait queues real: without one every arrival
  // dispatches immediately and queue-driven overload control never engages.
  manager.set_scheduler(std::make_unique<FifoScheduler>(/*mpl=*/4));
}

/// Cluster built from TestEngineConfig shards with overload protection on.
inline ClusterOptions TestClusterOptions(int num_shards) {
  ClusterOptions options;
  options.num_shards = num_shards;
  options.engine = TestEngineConfig();
  options.monitor_interval = 0.5;
  options.wlm.overload.enabled = true;
  options.wlm.overload.codel.queue_capacity = 16;
  return options;
}

// ---------------------------------------------------------------------------
// Scenario replay: a seeded end-to-end cluster run serialized as canonical
// JSONL (merged per-shard control-plane events, then routing decisions,
// then per-shard and cluster summaries). The byte-identical golden surface
// for the replay regression tests; regenerate with
// `scenario_replay_test --regold` (see README).
// ---------------------------------------------------------------------------

struct ScenarioOptions {
  int num_shards = 1;
  uint64_t seed = 42;
  /// Arrivals stop at `duration`; the sim drains until duration + drain.
  double duration = 12.0;
  double drain = 8.0;
  double oltp_rate = 25.0;
  double bi_rate = 1.5;
  PlacementPolicyKind placement = PlacementPolicyKind::kLeastOutstanding;
  bool redispatch = true;
  int queue_capacity = 16;
  /// Shard-level fault plan (kShardCrash / kShardRestart windows) armed
  /// on the dispatcher. Empty = no faults.
  FaultPlan shard_faults;
  /// Enables the failure detector / crash drain / hedging stack.
  bool health = false;
  /// Relative deadline attached to every generated OLTP spec (0 = none).
  /// Hedged dispatch only fires for deadline-carrying queries, so crash
  /// scenarios set this to exercise the hedge path.
  double oltp_deadline_seconds = 0.0;
};

namespace scenario_internal {

inline std::string F6(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace scenario_internal

/// Runs the scenario and returns its canonical JSONL transcript. When
/// non-null, `federated_prom` receives the federated cluster Prometheus
/// snapshot and `journeys_jsonl` the stitched journey JSONL — both
/// byte-stable for same-seed runs. `inspect` (if set) runs against the
/// finished cluster before it is torn down, for structural assertions.
inline std::string RunScenarioJsonl(
    const ScenarioOptions& options, std::string* federated_prom = nullptr,
    std::string* journeys_jsonl = nullptr,
    const std::function<void(ClusterDispatcher&)>& inspect = nullptr) {
  using scenario_internal::F6;
  using scenario_internal::JsonEscape;

  Simulation sim;
  ClusterOptions cluster_options = TestClusterOptions(options.num_shards);
  cluster_options.wlm.overload.codel.queue_capacity = options.queue_capacity;
  cluster_options.placement = options.placement;
  cluster_options.redispatch = options.redispatch;
  cluster_options.health.enabled = options.health;
  ClusterDispatcher cluster(
      &sim, cluster_options,
      [](int shard, WorkloadManager& manager) {
        (void)shard;
        DefineTestWorkloads(manager);
      });
  if (!options.shard_faults.events.empty()) {
    const Status armed = cluster.ArmFaultPlan(options.shard_faults);
    if (!armed.ok()) return "arm failed: " + armed.message() + "\n";
  }

  WorkloadGenerator generator(options.seed);
  Rng arrivals(options.seed ^ 0x5a5a5a5aULL);
  OpenLoopDriver oltp(
      &sim, &arrivals, options.oltp_rate,
      [&generator, &options] {
        QuerySpec spec = generator.NextOltp(OltpWorkloadConfig());
        spec.deadline_seconds = options.oltp_deadline_seconds;
        return spec;
      },
      [&cluster](QuerySpec spec) { (void)cluster.Submit(std::move(spec)); });
  OpenLoopDriver bi(
      &sim, &arrivals, options.bi_rate,
      [&generator] { return generator.NextBi(BiWorkloadConfig()); },
      [&cluster](QuerySpec spec) { (void)cluster.Submit(std::move(spec)); });
  if (options.oltp_rate > 0.0) oltp.Start(options.duration);
  if (options.bi_rate > 0.0) bi.Start(options.duration);
  sim.RunUntil(options.duration + options.drain);

  // Merge the shards' control-plane logs: (time, shard, per-shard index)
  // is a total order because each log is already time-ordered. The
  // dispatcher's own log (shard_down / shard_recovered / hedged) merges
  // in as shard -1.
  std::vector<std::tuple<double, int, int64_t, std::string>> entries;
  {
    int64_t index = 0;
    for (const WlmEvent& event : cluster.event_log().events()) {
      std::string line = "{\"t\":" + F6(event.time) +
                         ",\"shard\":-1,\"type\":\"" +
                         WlmEventTypeToString(event.type) +
                         "\",\"query\":" + std::to_string(event.query) +
                         ",\"workload\":\"" + JsonEscape(event.workload) +
                         "\",\"detail\":\"" + JsonEscape(event.detail) + "\"}";
      entries.emplace_back(event.time, -1, index++, std::move(line));
    }
  }
  for (int s = 0; s < cluster.num_shards(); ++s) {
    int64_t index = 0;
    for (const WlmEvent& event : cluster.shard(s).wlm().event_log().events()) {
      std::string line = "{\"t\":" + F6(event.time) +
                         ",\"shard\":" + std::to_string(s) + ",\"type\":\"" +
                         WlmEventTypeToString(event.type) +
                         "\",\"query\":" + std::to_string(event.query) +
                         ",\"workload\":\"" + JsonEscape(event.workload) +
                         "\",\"detail\":\"" + JsonEscape(event.detail) + "\"}";
      entries.emplace_back(event.time, s, index++, std::move(line));
    }
  }
  std::sort(entries.begin(), entries.end());

  std::string out;
  for (const auto& entry : entries) {
    out += std::get<3>(entry);
    out += '\n';
  }
  for (const ClusterDispatcher::RouteDecision& d : cluster.route_log()) {
    out += "{\"t\":" + F6(d.time) + ",\"type\":\"route\",\"query\":" +
           std::to_string(d.query) + ",\"shard\":" + std::to_string(d.shard) +
           ",\"attempt\":" + std::to_string(d.attempt) +
           ",\"redispatch\":" + (d.redispatch ? "1" : "0") + ",\"cause\":\"" +
           RouteCauseToString(d.cause) + "\"}\n";
  }
  for (int s = 0; s < cluster.num_shards(); ++s) {
    const ClusterShard& shard = cluster.shard(s);
    const EventLog& log = shard.wlm().event_log();
    out += "{\"type\":\"summary\",\"shard\":" + std::to_string(s) +
           ",\"routed\":" + std::to_string(shard.routed()) +
           ",\"refused\":" + std::to_string(shard.refused()) +
           ",\"redispatched_in\":" + std::to_string(shard.redispatched_in()) +
           ",\"completed\":" +
           std::to_string(log.CountOf(WlmEventType::kCompleted)) +
           ",\"shed\":" + std::to_string(log.CountOf(WlmEventType::kShed)) +
           ",\"blackholed\":" + std::to_string(shard.blackholed()) +
           ",\"down\":" + std::to_string(shard.down_transitions()) + "}\n";
  }
  out += "{\"type\":\"cluster\",\"rejected\":" +
         std::to_string(cluster.rejected_total()) + ",\"redispatched\":" +
         std::to_string(cluster.redispatched_total()) + ",\"hedged\":" +
         std::to_string(cluster.hedges_started()) + ",\"orphans_lost\":" +
         std::to_string(cluster.orphans_lost()) + ",\"imbalance\":" +
         F6(cluster.ImbalanceCoefficient()) + "}\n";
  if (federated_prom != nullptr) {
    std::ostringstream prom;
    cluster.ExportFederatedMetrics(prom);
    *federated_prom = prom.str();
  }
  if (journeys_jsonl != nullptr) {
    std::ostringstream journeys;
    cluster.WriteJourneys(journeys);
    *journeys_jsonl = journeys.str();
  }
  if (inspect) inspect(cluster);
  return out;
}

}  // namespace wlm

#endif  // WLM_TESTS_WLM_TEST_UTIL_H_
