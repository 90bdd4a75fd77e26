#ifndef WLM_CLUSTER_CLUSTER_H_
#define WLM_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "cluster/health.h"
#include "cluster/journey.h"
#include "cluster/placement.h"
#include "common/id_index.h"
#include "common/status.h"
#include "core/workload_manager.h"
#include "engine/engine.h"
#include "engine/monitor.h"
#include "faults/fault_plan.h"
#include "faults/link_model.h"
#include "sim/simulation.h"
#include "telemetry/event_log.h"
#include "telemetry/federation/federation.h"
#include "telemetry/federation/timeseries_store.h"
#include "telemetry/metrics.h"

namespace wlm {

/// Cluster-wide observability: metric federation, per-query journeys and
/// the bounded time-series ring feeding SLO burn rates and post-mortems.
/// Passive by contract — nothing here reads into a control decision, so
/// flipping any switch cannot change a run's routing or outcomes.
struct ClusterObservabilityOptions {
  /// Track every arrival's lives across shards in a JourneyLog (at most
  /// 65,536 journeys).
  bool journeys = true;
  /// Every simulated second, sample the cluster series into the
  /// time-series ring (600 points per series) and update the SLO
  /// burn-rate gauges: a 99.9% success objective over 5 s and 30 s
  /// windows. A shard_down post-mortem renders the last 10 s of them.
  bool federation = true;
};

/// Configuration of a deterministic multi-shard cluster. Every shard is
/// an independent engine + monitor + WorkloadManager stack built from the
/// same template configs, all driven by one shared simulation clock, so a
/// cluster run is bit-reproducible exactly like a single-node run.
struct ClusterOptions {
  int num_shards = 2;
  /// Per-shard engine capacity (each shard gets its own engine built from
  /// this template).
  EngineConfig engine;
  double monitor_interval = 0.5;
  /// Per-shard WorkloadManager config template (overload protection,
  /// resilience, telemetry all instantiate per shard).
  WlmConfig wlm;
  PlacementPolicyKind placement = PlacementPolicyKind::kLeastOutstanding;
  /// Give a shed or deadlock-aborted query one more life on another
  /// (healthier) shard, gated by the target shard's retry budget. It lands
  /// after a 1 ms simulated coordination delay.
  bool redispatch = false;
  /// Shard failure model: heartbeat-driven phi-accrual detection, crash
  /// drain, hedged dispatch and the restart warm-up ramp. Off by default
  /// (crashed shards then silently black-hole — the undefended baseline).
  ClusterHealthOptions health;
  /// Cluster-wide observability (federation, journeys, time series).
  ClusterObservabilityOptions observability;
};

/// Why a routing decision was made — golden route logs distinguish a
/// crash-drained second life from an overload-shed retry by this field.
enum class RouteCause {
  kPlace,       // arrival placement (attempt > 0 = same-instant failover)
  kShed,        // re-dispatch after an overload shed elsewhere
  kAbort,       // re-dispatch after a deadlock/fault abort elsewhere
  kCrashDrain,  // second life granted when its shard was declared down
  kHedge,       // duplicate dispatch hedging a suspected shard
};

const char* RouteCauseToString(RouteCause cause);

/// One shard: a full single-node workload-management stack. The monitor
/// is started at construction; workloads/classifiers/schedulers are
/// installed by the dispatcher's configurator callback.
class ClusterShard {
 public:
  ClusterShard(int index, Simulation* sim, const EngineConfig& engine_config,
               double monitor_interval, const WlmConfig& wlm_config,
               const ClusterHealthOptions& health);
  ClusterShard(const ClusterShard&) = delete;
  ClusterShard& operator=(const ClusterShard&) = delete;

  int index() const { return index_; }
  DatabaseEngine& engine() { return engine_; }
  Monitor& monitor() { return monitor_; }
  WorkloadManager& wlm() { return wlm_; }
  const WorkloadManager& wlm() const { return wlm_; }

  /// False while the shard is inside an armed fault window or any of its
  /// service-class circuit breakers is open — the signals the dispatcher
  /// routes around.
  [[nodiscard]] bool healthy() const;

  /// Detector-derived lifecycle the dispatcher routes on (kHealthy until
  /// health is enabled and the detector says otherwise).
  ShardLifecycle lifecycle() const { return lifecycle_; }
  /// Ground truth: the shard process is dead right now. Routing never
  /// reads this — only the transport does (to black-hole dispatches into
  /// a dead process) — so detection latency stays honestly modeled.
  bool crashed() const { return crashed_; }
  /// Current suspicion level of the failure detector.
  double Phi(double now) const { return detector_.Phi(now); }
  const WarmupGovernor& warmup() const { return warmup_; }

  /// Smoothed response time of recent completions, seconds.
  double ewma_latency_seconds() const { return ewma_latency_; }
  /// Queries routed here (initial placements + failovers that landed).
  int64_t routed() const { return static_cast<int64_t>(routed_->value()); }
  /// Placement attempts this shard's overload gate refused.
  int64_t refused() const { return static_cast<int64_t>(refused_->value()); }
  /// Queries re-dispatched *to* this shard after a shed/abort elsewhere.
  int64_t redispatched_in() const {
    return static_cast<int64_t>(redispatched_->value());
  }
  /// Queries dispatched into this shard while its process was dead —
  /// lost until (unless) a drain grants them second lives.
  int64_t blackholed() const {
    return static_cast<int64_t>(blackholed_->value());
  }
  /// Times the dispatcher declared this shard down.
  int64_t down_transitions() const {
    return static_cast<int64_t>(down_->value());
  }

  /// P99 arrival-to-finish seconds over the shard's completed query
  /// profiles (0 when none completed yet).
  double P99Seconds() const;

 private:
  friend class ClusterDispatcher;

  int index_;
  DatabaseEngine engine_;
  Monitor monitor_;
  WorkloadManager wlm_;
  ShardLifecycle lifecycle_ = ShardLifecycle::kHealthy;
  bool crashed_ = false;
  /// Set while an announced-restart drain runs on a still-live shard, so
  /// the dispatcher's completion listener leaves the victims to the
  /// drain instead of re-dispatching them itself.
  bool draining_ = false;
  PhiAccrualDetector detector_;
  WarmupGovernor warmup_;
  double ewma_latency_ = 0.0;
  /// Every query id the dispatcher has handed this shard's manager. The
  /// manager retires a request once it ends and then accepts its id
  /// again, so the dispatcher refuses a repeat itself (see
  /// ClusterDispatcher::SubmitToShard).
  IdSet submitted_;
  /// Query ids dispatched into this shard while its process was dead.
  /// Its manager never saw them, so they stay out of `submitted_`; with
  /// it they name every shard a query was handed to.
  IdSet blackholed_ids_;
  // This shard's series in the dispatcher's `wlm_cluster_*` registry, the
  // only record of these counts. Bound by the dispatcher right after
  // construction; registry series are pointer-stable.
  Counter* routed_ = nullptr;
  Counter* refused_ = nullptr;
  Counter* redispatched_ = nullptr;
  Counter* blackholed_ = nullptr;
  Counter* down_ = nullptr;
  Counter* heartbeats_ = nullptr;
  Counter* heartbeats_dropped_ = nullptr;
  Counter* drained_ = nullptr;
  Counter* lost_ = nullptr;
  Counter* hedge_won_ = nullptr;
};

/// Routes each arriving query to a shard via the configured placement
/// policy, with cluster-level admission: a query is rejected only when
/// every eligible shard's overload gate refuses it (a single shard's
/// refusal fails over to the next-best shard in the same instant).
///
/// With ClusterHealthOptions enabled the dispatcher also runs the shard
/// failure model: a heartbeat loop feeds per-shard phi-accrual detectors;
/// a shard whose phi crosses the suspect threshold gets hedged dispatch
/// for deadline-critical queries, and one crossing the down threshold is
/// drained (its orphans re-dispatched to survivors, charged against
/// their retry budgets) and excluded from placement until heartbeats
/// resume — after which a warm-up governor ramps admission back up so a
/// mass restart cannot re-trigger the collapse.
///
/// Determinism contract: shards are created, snapshotted and iterated in
/// index order; all policy state is a function of the call sequence; the
/// route log and the `wlm_cluster_*` metric export are byte-identical
/// across same-seed runs.
class ClusterDispatcher {
 public:
  /// Invoked once per shard at construction to install workload
  /// definitions, classifier and scheduler (the same way a single-node
  /// caller configures its WorkloadManager).
  using ShardConfigurator = std::function<void(int shard, WorkloadManager&)>;

  /// One placement decision, in submission order.
  struct RouteDecision {
    double time = 0.0;
    QueryId query = 0;
    int shard = 0;
    /// 0 = first-choice placement; >0 = failover attempt number.
    int attempt = 0;
    bool redispatch = false;
    RouteCause cause = RouteCause::kPlace;
  };

  ClusterDispatcher(Simulation* sim, ClusterOptions options,
                    ShardConfigurator configure = nullptr);

  /// Routes and submits one query. Returns OK when some shard admitted
  /// it, Rejected when the landing shard's admission policy refused it
  /// (no failover: policy rejections are not capacity signals), and
  /// Overloaded only when every eligible shard's overload gate refused.
  [[nodiscard]] Status Submit(QuerySpec spec);

  /// Schedules a plan of shard-level fault windows (kShardCrash /
  /// kShardRestart) on the sim clock. Engine-level kinds are rejected —
  /// arm those via a per-shard FaultInjector.
  [[nodiscard]] Status ArmFaultPlan(const FaultPlan& plan);

  /// Kills shard `shard`'s process right now, unannounced: its queued and
  /// running work dies with it, and the dispatcher only finds out through
  /// the failure detector (when health is enabled).
  void CrashShard(int shard);
  /// Brings a crashed shard's process back; heartbeats resume on the
  /// next tick and the detector walks it through warming -> healthy.
  void RestartShard(int shard);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  ClusterShard& shard(int index) { return *shards_[static_cast<size_t>(index)]; }
  const ClusterShard& shard(int index) const {
    return *shards_[static_cast<size_t>(index)];
  }
  Simulation* sim() const { return sim_; }
  const ClusterOptions& options() const { return options_; }
  PlacementPolicy& placement() { return *policy_; }
  /// Dispatcher <-> shard link model (heartbeat delay/drop); fault
  /// scripts degrade per-shard quality through it.
  DispatchLinkModel& link() { return link_; }

  const std::vector<RouteDecision>& route_log() const { return route_log_; }
  /// Canonical text form of the route log, one decision per line — the
  /// byte-comparable routing-determinism surface.
  std::string FormatRouteLog() const;

  /// Cluster-level control-plane events (kShardDown / kShardRecovered /
  /// kHedged), the dispatcher's own analogue of the per-shard logs.
  const EventLog& event_log() const { return event_log_; }

  /// Coefficient of variation (stddev / mean) of per-shard routed
  /// counts: 0 = perfectly balanced.
  double ImbalanceCoefficient() const;

  int64_t routed_total() const { return Total("wlm_cluster_routed_total"); }
  /// Queries refused by every eligible shard (cluster-level rejects).
  int64_t rejected_total() const { return Total("wlm_cluster_rejected_total"); }
  /// Successful re-dispatches of shed/aborted queries to another shard.
  int64_t redispatched_total() const {
    return Total("wlm_cluster_redispatched_total");
  }
  /// Hedged duplicates submitted / cancelled after the race resolved.
  int64_t hedges_started() const {
    return Total("wlm_cluster_hedge_started_total");
  }
  int64_t hedges_cancelled() const {
    return Total("wlm_cluster_hedge_cancelled_total");
  }
  /// Orphans denied a second life (retry budget or no eligible shard).
  int64_t orphans_lost() const { return Total("wlm_cluster_health_lost_total"); }

  /// Cluster-level metrics registry (`wlm_cluster_*` families).
  MetricsRegistry& metrics() { return metrics_; }
  /// Refreshes derived gauges (imbalance, per-shard P99 / occupancy) and
  /// writes the Prometheus exposition; byte-stable across same-seed runs.
  void ExportMetrics(std::ostream& out);

  // --- cluster-wide observability ------------------------------------------
  /// The journey log (every arrival's lives across shards).
  const JourneyLog& journeys() const { return journeys_; }
  /// Copies each life's phase sum and wall time from the landing
  /// shard's QueryProfile into the journey DAG. Call after the
  /// run (or any time); idempotent.
  void StitchJourneys();
  /// Stitches, then writes the journey JSONL (byte-stable).
  void WriteJourneys(std::ostream& out);
  /// Stitches, then writes the journey Chrome-trace flow JSON.
  void WriteJourneyTrace(std::ostream& out);
  /// Builds the federated cluster registry: the dispatcher's own
  /// families plus every shard registry merged under the federation
  /// rules (wlm_* -> wlm_cluster_*). Byte-stable across same-seed runs
  /// and independent of shard enumeration order.
  FederationStats BuildFederatedRegistry(MetricsRegistry* out);
  /// Refreshes gauges and writes the federated Prometheus exposition.
  void ExportFederatedMetrics(std::ostream& out);
  /// The sampled cluster series ring (populated by the federation
  /// sampling loop).
  const TimeSeriesStore& timeseries() const { return timeseries_; }
  /// Cluster-level post-mortem captured when a shard is declared down:
  /// the federated series around the trigger, rendered for an operator.
  struct ClusterPostMortem {
    double time = 0.0;
    std::string reason;
    /// ASCII rendering of the tracked series over the trigger window.
    std::string rendering;
  };
  const std::vector<ClusterPostMortem>& post_mortems() const {
    return post_mortems_;
  }

 private:
  /// A `wlm_cluster_*` counter family's total: the sum over the shards of
  /// a per-shard family, the single series of a cluster-scope one.
  int64_t Total(const char* family) const {
    return static_cast<int64_t>(metrics_.FamilyValueSum(family));
  }
  /// Fills `snapshots` with those of `eligible` (shard indexes, ascending).
  void Snapshots(const std::vector<int>& eligible,
                 std::vector<ShardSnapshot>* snapshots) const;
  /// Shards `query` was handed to: submitted to or black-holed on. A
  /// re-dispatch or drain routes around them.
  std::set<int> ShardsTried(QueryId query) const;
  /// Fills `eligible` with the shard indexes eligible for a placement, in
  /// three widening passes: routable (not down, warming within its ramp,
  /// healthy) -> not down -> anyone. A detected-down shard re-enters only
  /// when nothing else is left; degraded shards are still better than a
  /// guaranteed reject.
  void EligibleShards(const std::set<int>& exclude,
                      std::vector<int>* eligible) const;
  /// `parent_life` is the journey-life index the first landing of this
  /// pass descends from (-1 on arrival placement).
  Status SubmitToShards(QuerySpec spec, bool is_redispatch,
                        const std::set<int>& exclude, RouteCause cause,
                        int parent_life = -1);
  /// Submits `spec` to one shard's manager, or returns AlreadyExists
  /// without calling it when the id was submitted there before: a shard
  /// that saw a query (say, shed it at placement) never runs it again.
  Status SubmitToShard(ClusterShard& shard, const QuerySpec& spec);
  /// The dispatch landed on a dead process the detector has not declared
  /// down yet: nothing refuses, nothing answers, and the query waits in
  /// the shard's orphans for a drain.
  void Blackhole(ClusterShard& shard, const QuerySpec& spec);
  void OnShardCompletion(int shard_index, const Request& request);
  void MaybeRedispatch(int from_shard, const Request& request);
  /// Hedged dispatch: when the landing shard is suspected and the query
  /// carries an explicit deadline, duplicate it onto the best healthy
  /// shard; first completion wins, the loser is killed.
  void MaybeHedge(const QuerySpec& spec, int primary);
  /// Retires the losing copy of a decided hedge race: kills it on a live
  /// shard, or annihilates its black-holed orphan on a dead one.
  void CancelHedgeLoser(int loser, QueryId id);
  void StartHealthLoop();
  void HealthTick();
  void DeliverHeartbeat(int shard);
  void EvaluateShard(int shard);
  /// The failure detector (or an announced restart) declared the shard
  /// dead: log + post-mortem, drain whatever work it still holds, and
  /// grant the orphans second lives on the survivors.
  void MarkShardDown(int shard, const std::string& why);
  void DrainOrphans(int shard);
  void LogClusterEvent(WlmEventType type, QueryId query, std::string detail);
  void RefreshGauges();
  void StartObservabilityLoop();
  /// One federation sample: federate the registries, push the tracked
  /// cluster series into the ring, update the SLO burn-rate gauges.
  /// Read-only over shard state — provably passive.
  void ObservabilityTick();
  /// Captures a cluster-level post-mortem around a shard_down trigger.
  void CapturePostMortem(const std::string& reason);

  /// One query stranded on a dead shard (crash-drained or black-holed;
  /// black-holed arrivals were never classified, so workload is empty
  /// and their second life skips the retry-budget gate).
  struct Orphan {
    QuerySpec spec;
    std::string workload;
  };

  /// A hedged query's two lives. First completion wins; the loser is
  /// killed one instant later and its terminal events are swallowed.
  struct Hedge {
    int primary = 0;
    int alternate = 0;
    /// A copy completed; the race is decided.
    bool done = false;
    /// Unresolved copies (terminal not yet seen / orphan not yet
    /// annihilated). The entry is erased when this reaches zero.
    int outstanding = 2;
  };

  Simulation* sim_;
  ClusterOptions options_;
  std::unique_ptr<PlacementPolicy> policy_;
  std::vector<std::unique_ptr<ClusterShard>> shards_;
  MetricsRegistry metrics_;
  DispatchLinkModel link_;
  EventLog event_log_;
  std::vector<RouteDecision> route_log_;
  /// SubmitToShards' placement buffers: each pass of its loop refills
  /// them and reads them only until Pick returns.
  std::vector<int> eligible_;
  std::vector<ShardSnapshot> snapshots_;
  /// Work stranded on each dead shard, awaiting detection (or lost for
  /// good when health is disabled).
  std::vector<std::vector<Orphan>> orphans_;
  std::map<QueryId, Hedge> hedges_;
  /// Queries that already had their one re-dispatch.
  IdSet redispatched_ids_;
  /// Query currently inside SubmitToShards: its arrival-time sheds are
  /// handled by the failover loop, not the re-dispatch listener.
  QueryId in_submit_query_ = 0;
  // --- observability state (never read by a control decision) -------------
  JourneyLog journeys_;
  TimeSeriesStore timeseries_;
  /// The SLO burn-rate gauges, created by the first federation sample.
  Gauge* burn_rate_short_ = nullptr;
  Gauge* burn_rate_long_ = nullptr;
  std::vector<ClusterPostMortem> post_mortems_;
};

}  // namespace wlm

#endif  // WLM_CLUSTER_CLUSTER_H_
