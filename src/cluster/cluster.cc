#include "cluster/cluster.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "common/stats.h"
#include "telemetry/profile.h"
#include "telemetry/telemetry.h"

namespace wlm {

namespace {

/// Smoothing factor of the per-shard completion-latency EWMA the
/// load-aware policy steers on.
constexpr double kEwmaAlpha = 0.3;
/// Simulated network/coordination delay before a re-dispatch lands.
constexpr double kRedispatchDelaySeconds = 0.001;
/// Sim-seconds between federation samples.
constexpr double kSampleIntervalSeconds = 1.0;
/// Cluster success-rate objective the burn-rate windows measure against
/// (0.1% error budget), and the two windows.
constexpr double kSloTarget = 0.999;
constexpr double kBurnWindowShortSeconds = 5.0;
constexpr double kBurnWindowLongSeconds = 30.0;
/// Seconds of cluster series rendered around a shard_down trigger.
constexpr double kPostmortemWindowSeconds = 10.0;

MetricLabels ShardLabels(int shard) {
  return {{"shard", std::to_string(shard)}};
}

}  // namespace

const char* RouteCauseToString(RouteCause cause) {
  switch (cause) {
    case RouteCause::kPlace:
      return "place";
    case RouteCause::kShed:
      return "shed";
    case RouteCause::kAbort:
      return "abort";
    case RouteCause::kCrashDrain:
      return "crash_drain";
    case RouteCause::kHedge:
      return "hedge";
  }
  return "?";
}

ClusterShard::ClusterShard(int index, Simulation* sim,
                           const EngineConfig& engine_config,
                           double monitor_interval, const WlmConfig& wlm_config,
                           const ClusterHealthOptions& health)
    : index_(index),
      engine_(sim, engine_config),
      monitor_(sim, &engine_, monitor_interval),
      wlm_(sim, &engine_, &monitor_, wlm_config),
      warmup_(health.warmup) {
  monitor_.Start();
  // Prime the detector as if a heartbeat arrived at birth, so phi
  // measures silence since start-up rather than since the epoch.
  detector_.Reset(sim->Now());
}

bool ClusterShard::healthy() const {
  if (wlm_.active_fault_count() > 0) return false;
  const OverloadController* overload = wlm_.overload();
  return overload == nullptr || !overload->AnyBreakerOpen();
}

double ClusterShard::P99Seconds() const {
  Percentiles percentiles;
  for (const QueryProfile* profile : wlm_.telemetry().profiles().Profiles()) {
    if (profile->outcome == "completed") percentiles.Add(profile->WallSeconds());
  }
  return percentiles.count() > 0 ? percentiles.Percentile(99.0) : 0.0;
}

ClusterDispatcher::ClusterDispatcher(Simulation* sim, ClusterOptions options,
                                     ShardConfigurator configure)
    : sim_(sim),
      options_(std::move(options)),
      policy_(MakePlacementPolicy(options_.placement)),
      link_(options_.health.link,
            options_.num_shards < 1 ? 1 : options_.num_shards) {
  if (options_.num_shards < 1) options_.num_shards = 1;
  metrics_.SetHelp("wlm_cluster_routed_total",
                   "Queries the dispatcher placed on each shard.");
  metrics_.SetHelp("wlm_cluster_refused_total",
                   "Placement attempts each shard's overload gate refused.");
  metrics_.SetHelp("wlm_cluster_redispatched_total",
                   "Shed/aborted queries re-dispatched to each shard.");
  metrics_.SetHelp("wlm_cluster_rejected_total",
                   "Queries refused by every eligible shard.");
  metrics_.SetHelp("wlm_cluster_imbalance",
                   "Coefficient of variation of per-shard routed counts.");
  metrics_.SetHelp("wlm_cluster_shard_p99_seconds",
                   "P99 response time over each shard's completed queries.");
  metrics_.SetHelp("wlm_cluster_shard_queue_depth",
                   "Requests waiting in each shard's admission queue.");
  metrics_.SetHelp("wlm_cluster_shard_running",
                   "Requests executing on each shard's engine.");
  metrics_.SetHelp("wlm_cluster_shard_healthy",
                   "1 while the shard is routable, 0 while routed around.");
  metrics_.SetHelp("wlm_cluster_shard_ewma_latency_seconds",
                   "Smoothed completion latency the load-aware policy sees.");
  metrics_.SetHelp("wlm_cluster_health_state",
                   "Detector lifecycle: 0 healthy, 1 suspected, 2 down, "
                   "3 warming.");
  metrics_.SetHelp("wlm_cluster_health_phi",
                   "Phi-accrual suspicion level per shard.");
  metrics_.SetHelp("wlm_cluster_health_heartbeats_total",
                   "Heartbeats from each shard that reached the dispatcher.");
  metrics_.SetHelp("wlm_cluster_health_heartbeats_dropped_total",
                   "Heartbeats lost on each shard's dispatch link.");
  metrics_.SetHelp("wlm_cluster_health_down_total",
                   "Times each shard was declared down.");
  metrics_.SetHelp("wlm_cluster_health_drained_total",
                   "Orphans of each dead shard granted second lives elsewhere.");
  metrics_.SetHelp("wlm_cluster_health_lost_total",
                   "Orphans of each dead shard denied a second life.");
  metrics_.SetHelp("wlm_cluster_health_blackholed_total",
                   "Queries dispatched into each shard while its process "
                   "was dead but not yet detected.");
  metrics_.SetHelp("wlm_cluster_hedge_started_total",
                   "Deadline-critical queries duplicated to a second shard.");
  metrics_.SetHelp("wlm_cluster_hedge_won_total",
                   "Hedge races each shard's copy completed first.");
  metrics_.SetHelp("wlm_cluster_hedge_cancelled_total",
                   "Losing hedge copies retired after the race resolved.");
  metrics_.SetHelp("wlm_cluster_journeys",
                   "Query journeys tracked by the dispatcher.");
  metrics_.SetHelp("wlm_cluster_journeys_dropped",
                   "Arrivals not tracked because the journey log was full.");
  metrics_.SetHelp("wlm_cluster_slo_burn_rate",
                   "Cluster error-budget burn rate per window (1.0 = "
                   "burning exactly the SLO's budget).");
  metrics_.SetHelp("wlm_cluster_federation_sources",
                   "Shard registries merged into the federated exposition.");
  metrics_.SetHelp("wlm_cluster_federation_series",
                   "Series produced by the last federation pass.");
  metrics_.SetHelp("wlm_cluster_federation_bound_mismatches",
                   "Histogram series dropped for disagreeing bucket bounds.");
  // Instantiate up front so the families export even before the first
  // reject / hedge.
  metrics_.GetCounter("wlm_cluster_rejected_total");
  metrics_.GetCounter("wlm_cluster_hedge_started_total");
  metrics_.GetCounter("wlm_cluster_hedge_cancelled_total");
  orphans_.resize(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<ClusterShard>(
        i, sim_, options_.engine, options_.monitor_interval, options_.wlm,
        options_.health));
    ClusterShard& shard = *shards_.back();
    const MetricLabels labels = ShardLabels(i);
    shard.routed_ = &metrics_.GetCounter("wlm_cluster_routed_total", labels);
    shard.refused_ = &metrics_.GetCounter("wlm_cluster_refused_total", labels);
    shard.redispatched_ =
        &metrics_.GetCounter("wlm_cluster_redispatched_total", labels);
    shard.heartbeats_ =
        &metrics_.GetCounter("wlm_cluster_health_heartbeats_total", labels);
    shard.heartbeats_dropped_ = &metrics_.GetCounter(
        "wlm_cluster_health_heartbeats_dropped_total", labels);
    shard.down_ = &metrics_.GetCounter("wlm_cluster_health_down_total", labels);
    shard.drained_ =
        &metrics_.GetCounter("wlm_cluster_health_drained_total", labels);
    shard.lost_ = &metrics_.GetCounter("wlm_cluster_health_lost_total", labels);
    shard.blackholed_ =
        &metrics_.GetCounter("wlm_cluster_health_blackholed_total", labels);
    shard.hedge_won_ =
        &metrics_.GetCounter("wlm_cluster_hedge_won_total", labels);
    if (configure) configure(i, shard.wlm());
    shard.wlm().AddCompletionListener(
        [this, i](const Request& request) { OnShardCompletion(i, request); });
  }
  StartHealthLoop();
  StartObservabilityLoop();
}

Status ClusterDispatcher::Submit(QuerySpec spec) {
  if (options_.observability.journeys) {
    // The journey id rides the spec through every life (observability
    // only: no control decision reads it). 0 = log full, untracked.
    spec.journey = journeys_.Begin(spec.id, std::string(), sim_->Now());
  }
  return SubmitToShards(std::move(spec), /*is_redispatch=*/false, {},
                        RouteCause::kPlace);
}

std::set<int> ClusterDispatcher::ShardsTried(QueryId query) const {
  std::set<int> tried;
  for (const auto& shard : shards_) {
    if (shard->submitted_.Contains(query) ||
        shard->blackholed_ids_.Contains(query)) {
      tried.insert(shard->index());
    }
  }
  return tried;
}

void ClusterDispatcher::EligibleShards(const std::set<int>& exclude,
                                       std::vector<int>* eligible) const {
  const bool health = options_.health.enabled;
  const double now = sim_->Now();
  // Three widening passes. Pass 0: fully routable. Pass 1: not detected
  // down (warming shards past their ramp cap and degraded shards come
  // back in). Pass 2: anyone left — a detected-down shard is still
  // better than a guaranteed cluster-level reject.
  for (int pass = 0; pass < 3; ++pass) {
    eligible->clear();
    for (const auto& shard : shards_) {
      if (exclude.count(shard->index()) != 0) continue;
      if (health && pass < 2 &&
          shard->lifecycle_ == ShardLifecycle::kDown) {
        continue;
      }
      if (pass < 1) {
        if (health && shard->lifecycle_ == ShardLifecycle::kWarming &&
            !shard->warmup_.AdmitAllowed(
                now, static_cast<int>(shard->wlm().queue_depth() +
                                      shard->wlm().running_count()))) {
          continue;
        }
        if (!shard->healthy()) continue;
      }
      eligible->push_back(shard->index());
    }
    if (!eligible->empty()) return;
  }
}

void ClusterDispatcher::Snapshots(const std::vector<int>& eligible,
                                  std::vector<ShardSnapshot>* snapshots) const {
  snapshots->clear();
  for (int index : eligible) {
    const ClusterShard& shard = *shards_[static_cast<size_t>(index)];
    ShardSnapshot snap;
    snap.shard = index;
    snap.queued = shard.wlm().queue_depth();
    snap.running = shard.wlm().running_count();
    snap.ewma_latency_seconds = shard.ewma_latency_seconds();
    snap.healthy = shard.healthy();
    snapshots->push_back(snap);
  }
}

Status ClusterDispatcher::SubmitToShards(QuerySpec spec, bool is_redispatch,
                                         const std::set<int>& exclude,
                                         RouteCause cause, int parent_life) {
  std::set<int> tried = exclude;
  const QueryId previous_in_submit = in_submit_query_;
  in_submit_query_ = spec.id;
  Status result;
  int landed = -1;
  int attempt = 0;
  // Failover attempts chain: attempt N's life descends from attempt
  // N-1's; the first landing descends from `parent_life`.
  int prev_life = parent_life;
  while (true) {
    EligibleShards(tried, &eligible_);
    if (eligible_.empty()) {
      metrics_.GetCounter("wlm_cluster_rejected_total").Increment();
      result = Status::Overloaded("every eligible shard refused");
      break;
    }
    Snapshots(eligible_, &snapshots_);
    const int pick = policy_->Pick(spec, snapshots_);
    route_log_.push_back(
        {sim_->Now(), spec.id, pick, attempt, is_redispatch, cause});
    const int life = journeys_.OpenLife(spec.id, pick, cause, attempt,
                                        is_redispatch, sim_->Now(), prev_life);
    if (life >= 0) prev_life = life;
    ClusterShard& shard = *shards_[static_cast<size_t>(pick)];
    if (shard.crashed_) {
      // Stranded until a drain grants it a second life (health on) or
      // forever (health off — the undefended baseline).
      Blackhole(shard, spec);
      if (is_redispatch) shard.redispatched_->Increment();
      landed = pick;
      result = Status::OK();
      break;
    }
    const Status status = SubmitToShard(shard, spec);
    if (status.IsOverloaded()) {
      // Capacity refusal: fail over to the next-best shard in the same
      // instant. (Admission-policy rejects are final — a cost threshold
      // on one shard would reject on every identically configured shard.)
      shard.refused_->Increment();
      // The arrival-time shed already closed this life through the
      // completion listener; relabel it as a placement refusal.
      journeys_.MarkOutcome(spec.id, pick, sim_->Now(), "refused");
      // The refusing shard can never accept this id again (SubmitToShard),
      // so later re-dispatches and crash drains route around it too.
      tried.insert(pick);
      ++attempt;
      continue;
    }
    shard.routed_->Increment();
    if (is_redispatch) shard.redispatched_->Increment();
    if (status.ok()) landed = pick;
    result = status;
    if (!status.ok()) {
      // A final refusal that raised no shard terminal — e.g. a duplicate
      // id SubmitToShard refused — would otherwise leak the life opened
      // above. CloseLife only touches open lives, so this is a no-op when
      // a reject terminal already closed it.
      journeys_.CloseLife(spec.id, pick, sim_->Now(), "refused");
    }
    break;
  }
  // Hedge before releasing the in-submit guard, so an arrival-time shed
  // of the duplicate is not mistaken for a re-dispatchable terminal.
  if (landed >= 0 && !is_redispatch && cause == RouteCause::kPlace) {
    MaybeHedge(spec, landed);
  }
  in_submit_query_ = previous_in_submit;
  return result;
}

void ClusterDispatcher::MaybeHedge(const QuerySpec& spec, int primary) {
  if (!options_.health.enabled || !options_.health.hedge) return;
  if (spec.deadline_seconds <= 0.0) return;
  if (shards_[static_cast<size_t>(primary)]->lifecycle_ !=
      ShardLifecycle::kSuspected) {
    return;
  }
  if (hedges_.count(spec.id) != 0) return;
  // Best alternate: a shard the detector fully trusts, fewest
  // outstanding, ties to the lowest index.
  std::vector<int> candidates;
  for (const auto& shard : shards_) {
    if (shard->index() == primary) continue;
    if (shard->lifecycle_ != ShardLifecycle::kHealthy) continue;
    if (!shard->healthy()) continue;
    candidates.push_back(shard->index());
  }
  if (candidates.empty()) return;
  std::vector<ShardSnapshot> snaps;
  Snapshots(candidates, &snaps);
  const ShardSnapshot* best = &snaps.front();
  for (const ShardSnapshot& snap : snaps) {
    if (snap.outstanding() < best->outstanding()) best = &snap;
  }
  const int alt = best->shard;
  ClusterShard& shard = *shards_[static_cast<size_t>(alt)];
  route_log_.push_back(
      {sim_->Now(), spec.id, alt, 0, false, RouteCause::kHedge});
  // The duplicate's life descends from the primary copy's via a `hedge`
  // edge — the journey shows both the winner and the cancelled loser.
  journeys_.OpenLife(spec.id, alt, RouteCause::kHedge, 0, false, sim_->Now(),
                     journeys_.LatestLifeOnShard(spec.id, primary));
  if (shard.crashed_) {
    // The trusted alternate just died undetected: the duplicate
    // black-holes like any other dispatch, and the primary copy (or the
    // eventual drain) decides the query's fate.
    Blackhole(shard, spec);
  } else {
    const Status status = SubmitToShard(shard, spec);
    if (status.IsOverloaded()) {
      shard.refused_->Increment();
      journeys_.MarkOutcome(spec.id, alt, sim_->Now(), "refused");
      return;  // no room for a duplicate: the primary keeps its one life
    }
    if (!status.ok()) {
      // Admission-policy reject (or duplicate id on a shard that already
      // saw this query): same — close the duplicate's life where it died.
      journeys_.MarkOutcome(spec.id, alt, sim_->Now(), "rejected");
      return;
    }
    shard.routed_->Increment();
  }
  hedges_[spec.id] = Hedge{primary, alt, false, 2};
  metrics_.GetCounter("wlm_cluster_hedge_started_total").Increment();
  LogClusterEvent(WlmEventType::kHedged, spec.id,
                  "primary=" + std::to_string(primary) +
                      " alt=" + std::to_string(alt));
}

Status ClusterDispatcher::SubmitToShard(ClusterShard& shard,
                                        const QuerySpec& spec) {
  if (shard.submitted_.Contains(spec.id)) {
    return Status::AlreadyExists("request id already submitted");
  }
  Status status = shard.wlm().Submit(spec);
  // A reserved synthetic id never became a request, so it stays unseen.
  if (status.code() != StatusCode::kInvalidArgument) {
    shard.submitted_.Insert(spec.id);
  }
  return status;
}

void ClusterDispatcher::Blackhole(ClusterShard& shard, const QuerySpec& spec) {
  shard.routed_->Increment();
  shard.blackholed_->Increment();
  shard.blackholed_ids_.Insert(spec.id);
  orphans_[static_cast<size_t>(shard.index())].push_back({spec, std::string()});
  journeys_.CloseLife(spec.id, shard.index(), sim_->Now(), "blackholed");
}

void ClusterDispatcher::CancelHedgeLoser(int loser, QueryId id) {
  ClusterShard& shard = *shards_[static_cast<size_t>(loser)];
  if (shard.crashed_) {
    // The losing copy was black-holed: annihilate its orphan so the
    // eventual drain does not resurrect an already-answered query.
    std::vector<Orphan>& orphans = orphans_[static_cast<size_t>(loser)];
    for (auto it = orphans.begin(); it != orphans.end(); ++it) {
      if (it->spec.id == id) {
        orphans.erase(it);
        metrics_.GetCounter("wlm_cluster_hedge_cancelled_total").Increment();
        // The life already closed as "blackholed" when the copy hit the
        // dead shard — that label stays; only the orphan record dies.
        break;
      }
    }
    auto hit = hedges_.find(id);
    if (hit != hedges_.end() && --hit->second.outstanding <= 0) {
      hedges_.erase(hit);
    }
    return;
  }
  if (shard.wlm().KillRequest(id, /*resubmit=*/false).ok()) {
    metrics_.GetCounter("wlm_cluster_hedge_cancelled_total").Increment();
    // The kill's terminal closed the life as "killed"; what it means
    // here is that the race was already won elsewhere.
    journeys_.MarkOutcome(id, loser, sim_->Now(), "hedge_cancelled");
  }
}

void ClusterDispatcher::OnShardCompletion(int shard_index,
                                          const Request& request) {
  ClusterShard& shard = *shards_[static_cast<size_t>(shard_index)];
  // Every terminal — including crash-drain kills and swallowed hedge
  // losers below — closes the query's life on this shard first, so the
  // journey never leaks an open life.
  journeys_.CloseLife(request.spec.id, shard_index, sim_->Now(),
                      RequestStateToString(request.state));
  if (Journey* journey = journeys_.FindMutable(request.spec.id)) {
    if (journey->workload.empty()) journey->workload = request.workload;
  }
  auto hit = hedges_.find(request.spec.id);
  if (hit != hedges_.end()) {
    Hedge& hedge = hit->second;
    const bool last = --hedge.outstanding <= 0;
    if (request.state == RequestState::kCompleted && !hedge.done) {
      hedge.done = true;
      shard.hedge_won_->Increment();
      const int loser =
          shard_index == hedge.primary ? hedge.alternate : hedge.primary;
      const QueryId id = request.spec.id;
      // Deferred one instant: the loser's manager may be mid-dispatch.
      sim_->Schedule(0.0,
                     [this, loser, id] { CancelHedgeLoser(loser, id); });
      if (last) hedges_.erase(hit);
      // Fall through — the winner's completion feeds the ewma below.
    } else {
      // A losing (or redundant) copy resolved. It neither feeds the
      // latency ewma nor re-dispatches — unless it was the query's LAST
      // copy and nothing won, in which case the normal shed/abort
      // second-life machinery takes over. Crash-drain terminals are
      // excluded: the drain path owns those orphans.
      const bool salvage =
          last && !hedge.done && !shard.crashed_ && !shard.draining_ &&
          options_.redispatch &&
          (request.state == RequestState::kShed ||
           request.state == RequestState::kAborted);
      if (last) hedges_.erase(hit);
      if (salvage) MaybeRedispatch(shard_index, request);
      return;
    }
  }
  // Terminals raised by a crash drain are the crash path's business:
  // victims re-dispatch through the orphan drain, not the shed path.
  if (shard.crashed_ || shard.draining_) return;
  if (request.state == RequestState::kCompleted) {
    const double response = request.ResponseTime();
    shard.ewma_latency_ =
        shard.ewma_latency_ == 0.0
            ? response
            : kEwmaAlpha * response + (1.0 - kEwmaAlpha) * shard.ewma_latency_;
    return;
  }
  if (options_.redispatch && (request.state == RequestState::kShed ||
                              request.state == RequestState::kAborted)) {
    MaybeRedispatch(shard_index, request);
  }
}

void ClusterDispatcher::MaybeRedispatch(int from_shard,
                                        const Request& request) {
  // Arrival-time sheds surface while the failover loop is still running
  // this query; that loop already retries other shards synchronously.
  if (request.spec.id == in_submit_query_) return;
  if (redispatched_ids_.Contains(request.spec.id)) return;
  redispatched_ids_.Insert(request.spec.id);
  const RouteCause cause = request.state == RequestState::kShed
                               ? RouteCause::kShed
                               : RouteCause::kAbort;
  // Completion listeners fire mid-dispatch inside the source shard;
  // re-entering another shard's Submit from here would interleave two
  // managers' dispatch loops, so the re-dispatch lands after a small
  // simulated coordination delay.
  QuerySpec spec = request.spec;
  const std::string workload = request.workload;
  // Life indexes are append-only, so the parent link stays valid across
  // the coordination delay.
  const int parent_life =
      journeys_.LatestLifeOnShard(request.spec.id, from_shard);
  sim_->Schedule(kRedispatchDelaySeconds,
                 [this, spec = std::move(spec), workload, cause,
                  parent_life]() {
                   std::vector<int> eligible;
                   EligibleShards(ShardsTried(spec.id), &eligible);
                   if (eligible.empty()) return;
                   // "Healthier" target: fewest outstanding among the
                   // eligible shards, ties to the lowest index.
                   std::vector<ShardSnapshot> snaps;
                   Snapshots(eligible, &snaps);
                   const ShardSnapshot* best = &snaps.front();
                   for (const ShardSnapshot& snap : snaps) {
                     if (snap.outstanding() < best->outstanding()) best = &snap;
                   }
                   ClusterShard& target =
                       *shards_[static_cast<size_t>(best->shard)];
                   OverloadController* overload = target.wlm().overload();
                   if (overload != nullptr &&
                       !overload->AllowRetry(workload, sim_->Now())) {
                     return;  // the shed stands: no budget, no retry storm
                   }
                   std::set<int> exclude;
                   for (const auto& shard : shards_) {
                     if (shard->index() != best->shard) {
                       exclude.insert(shard->index());
                     }
                   }
                   (void)SubmitToShards(spec, /*is_redispatch=*/true, exclude,
                                        cause, parent_life);
                 });
}

Status ClusterDispatcher::ArmFaultPlan(const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events) {
    if (!IsShardFaultKind(event.kind)) {
      return Status::InvalidArgument(
          "engine-level fault kinds arm via FaultInjector, not the "
          "dispatcher");
    }
    if (event.shard < 0 || event.shard >= num_shards()) {
      return Status::InvalidArgument(
          "fault event targets a shard outside the cluster");
    }
    if (event.start < 0.0 || event.duration <= 0.0) {
      return Status::InvalidArgument(
          "fault window needs start >= 0 and duration > 0");
    }
  }
  for (const FaultEvent& event : plan.events) {
    const int shard_index = event.shard;
    const bool announced = event.kind == FaultKind::kShardRestart;
    sim_->ScheduleAt(event.start, [this, shard_index, announced] {
      if (announced && options_.health.enabled) {
        // Coordinated restart: the dispatcher is told up front — no
        // detection latency, the drain happens while the shard is live.
        MarkShardDown(shard_index, "shard_restart");
      }
      CrashShard(shard_index);
    });
    sim_->ScheduleAt(event.end(),
                     [this, shard_index] { RestartShard(shard_index); });
  }
  return Status::OK();
}

void ClusterDispatcher::CrashShard(int shard_index) {
  ClusterShard& shard = *shards_[static_cast<size_t>(shard_index)];
  if (shard.crashed_) return;
  shard.crashed_ = true;
  // The process dies this instant: its queued and running work
  // terminates now (phases conserved up to the kill). Routing learns
  // nothing here — only the failure detector may, later.
  std::vector<WorkloadManager::DrainedQuery> victims =
      shard.wlm().CrashDrain("shard_crash");
  for (WorkloadManager::DrainedQuery& victim : victims) {
    // Hedged victims whose entry survived the kill still have a sibling
    // copy in flight — the sibling owns the query now.
    if (hedges_.count(victim.spec.id) != 0) continue;
    orphans_[static_cast<size_t>(shard_index)].push_back(
        {std::move(victim.spec), std::move(victim.workload)});
  }
}

void ClusterDispatcher::RestartShard(int shard_index) {
  ClusterShard& shard = *shards_[static_cast<size_t>(shard_index)];
  if (!shard.crashed_) return;
  shard.crashed_ = false;
  // Recovery is observed, never announced: the next heartbeat walks the
  // lifecycle down -> warming. (Health off: the shard simply serves
  // again, and whatever was black-holed stays lost.)
}

void ClusterDispatcher::StartHealthLoop() {
  if (!options_.health.enabled) return;
  sim_->Schedule(kHeartbeatIntervalSeconds, [this] { HealthTick(); });
}

void ClusterDispatcher::HealthTick() {
  // Live shards emit heartbeats (the link may drop or delay them)...
  for (int i = 0; i < num_shards(); ++i) {
    ClusterShard& shard = *shards_[static_cast<size_t>(i)];
    if (shard.crashed_) continue;  // dead processes do not beat
    if (link_.DropHeartbeat(i)) {
      shard.heartbeats_dropped_->Increment();
      continue;
    }
    shard.heartbeats_->Increment();
    const double delay = link_.Delay(i);
    if (delay <= 0.0) {
      DeliverHeartbeat(i);
    } else {
      sim_->Schedule(delay, [this, i] { DeliverHeartbeat(i); });
    }
  }
  // ... then every shard's lifecycle is re-evaluated on the same tick.
  for (int i = 0; i < num_shards(); ++i) EvaluateShard(i);
  sim_->Schedule(kHeartbeatIntervalSeconds, [this] { HealthTick(); });
}

void ClusterDispatcher::DeliverHeartbeat(int shard_index) {
  ClusterShard& shard = *shards_[static_cast<size_t>(shard_index)];
  const double now = sim_->Now();
  if (shard.lifecycle_ == ShardLifecycle::kDown) {
    // First sign of life after a declared death: re-admit on the ramp.
    // Reset (not OnHeartbeat) — the fresh process must not inherit the
    // giant down-gap as an inter-arrival sample.
    shard.detector_.Reset(now);
    shard.lifecycle_ = ShardLifecycle::kWarming;
    shard.warmup_.BeginWarmup(now);
    LogClusterEvent(WlmEventType::kShardRecovered, 0,
                    "shard=" + std::to_string(shard_index));
  } else {
    shard.detector_.OnHeartbeat(now);
  }
  // A heartbeat proves the process is up: anything still stranded on it
  // (black-holed between restart and detection) gets its second life.
  if (!shard.crashed_ &&
      !orphans_[static_cast<size_t>(shard_index)].empty()) {
    DrainOrphans(shard_index);
  }
}

void ClusterDispatcher::EvaluateShard(int shard_index) {
  ClusterShard& shard = *shards_[static_cast<size_t>(shard_index)];
  const double now = sim_->Now();
  const double phi = shard.detector_.Phi(now);
  switch (shard.lifecycle_) {
    case ShardLifecycle::kHealthy:
    case ShardLifecycle::kSuspected:
      if (phi >= kPhiDown) {
        MarkShardDown(shard_index, "phi");
      } else {
        shard.lifecycle_ = phi >= kPhiSuspect ? ShardLifecycle::kSuspected
                                              : ShardLifecycle::kHealthy;
      }
      break;
    case ShardLifecycle::kDown:
      break;  // only a heartbeat revives it
    case ShardLifecycle::kWarming:
      if (phi >= kPhiDown) {
        MarkShardDown(shard_index, "phi");  // died again mid-warm-up
      } else if (!shard.warmup_.warming(now)) {
        shard.lifecycle_ = ShardLifecycle::kHealthy;
      }
      break;
  }
}

void ClusterDispatcher::MarkShardDown(int shard_index,
                                      const std::string& why) {
  ClusterShard& shard = *shards_[static_cast<size_t>(shard_index)];
  if (shard.lifecycle_ == ShardLifecycle::kDown) return;
  shard.lifecycle_ = ShardLifecycle::kDown;
  shard.down_->Increment();
  LogClusterEvent(WlmEventType::kShardDown, 0,
                  "shard=" + std::to_string(shard_index) + " cause=" + why);
  // Cluster-level post-mortem: what the federated series looked like
  // around the trigger (per-shard black boxes dump below).
  CapturePostMortem("shard_down shard=" + std::to_string(shard_index) +
                    " cause=" + why);
  // Post-mortem from the dead shard's own black box: what it was doing
  // when the detector lost it (profiling, cooldown and dump budget apply).
  shard.wlm().telemetry().TriggerFlightRecorder("shard_down");
  if (!shard.crashed_) {
    // Announced restart: the process is still up, drain it live. The
    // draining_ flag parks the completion listener so each victim
    // reaches the orphan buffer exactly once.
    shard.draining_ = true;
    std::vector<WorkloadManager::DrainedQuery> victims =
        shard.wlm().CrashDrain(why);
    shard.draining_ = false;
    for (WorkloadManager::DrainedQuery& victim : victims) {
      if (hedges_.count(victim.spec.id) != 0) continue;
      orphans_[static_cast<size_t>(shard_index)].push_back(
          {std::move(victim.spec), std::move(victim.workload)});
    }
  }
  DrainOrphans(shard_index);
}

void ClusterDispatcher::DrainOrphans(int shard_index) {
  std::vector<Orphan> orphans;
  orphans.swap(orphans_[static_cast<size_t>(shard_index)]);
  if (orphans.empty()) return;
  ClusterShard& source = *shards_[static_cast<size_t>(shard_index)];
  const double now = sim_->Now();
  for (Orphan& orphan : orphans) {
    auto hit = hedges_.find(orphan.spec.id);
    if (hit != hedges_.end()) {
      // A black-holed hedge copy. If its sibling already resolved
      // without winning, this drain is the query's last chance;
      // otherwise the sibling owns it and the orphan is annihilated.
      Hedge& hedge = hit->second;
      const bool last = --hedge.outstanding <= 0;
      const bool salvage = last && !hedge.done;
      if (last) hedges_.erase(hit);
      // Annihilated copies keep their "blackholed" life label — the
      // sibling's win is what retired them, and the hedge edge already
      // records the race.
      if (!salvage) continue;
    }
    std::set<int> exclude;
    if (options_.redispatch) exclude = ShardsTried(orphan.spec.id);
    exclude.insert(shard_index);
    std::vector<int> eligible;
    EligibleShards(exclude, &eligible);
    if (eligible.empty()) {
      source.lost_->Increment();
      continue;
    }
    std::vector<ShardSnapshot> snaps;
    Snapshots(eligible, &snaps);
    const ShardSnapshot* best = &snaps.front();
    for (const ShardSnapshot& snap : snaps) {
      if (snap.outstanding() < best->outstanding()) best = &snap;
    }
    ClusterShard& target = *shards_[static_cast<size_t>(best->shard)];
    if (!orphan.workload.empty()) {
      // Crash-drained victims charge the target's retry budget exactly
      // like shed re-dispatches: losing a query beats a restart storm.
      // (Black-holed arrivals were never classified — no workload, no
      // budget line to charge — so they skip the gate.)
      OverloadController* overload = target.wlm().overload();
      if (overload != nullptr && !overload->AllowRetry(orphan.workload, now)) {
        source.lost_->Increment();
        continue;
      }
    }
    std::set<int> submit_exclude;
    for (const auto& other : shards_) {
      if (other->index() != best->shard) submit_exclude.insert(other->index());
    }
    const Status status = SubmitToShards(
        orphan.spec, /*is_redispatch=*/true, submit_exclude,
        RouteCause::kCrashDrain,
        journeys_.LatestLifeOnShard(orphan.spec.id, shard_index));
    if (status.ok()) {
      source.drained_->Increment();
    } else {
      source.lost_->Increment();
    }
  }
}

void ClusterDispatcher::LogClusterEvent(WlmEventType type, QueryId query,
                                        std::string detail) {
  WlmEvent event;
  event.time = sim_->Now();
  event.type = type;
  // Shard-lifecycle events carry no query: they ride the synthetic
  // cluster track, which cannot alias a real QueryId.
  event.query = query != 0 ? query : SyntheticTrackId(SyntheticTrack::kCluster);
  event.workload = SyntheticTrackName(SyntheticTrack::kCluster);
  event.detail = std::move(detail);
  event_log_.Append(event);
}

std::string ClusterDispatcher::FormatRouteLog() const {
  std::string out;
  out.reserve(route_log_.size() * 56);
  char line[160];
  for (const RouteDecision& d : route_log_) {
    std::snprintf(line, sizeof(line),
                  "t=%.6f q=%llu shard=%d attempt=%d redispatch=%d cause=%s\n",
                  d.time, static_cast<unsigned long long>(d.query), d.shard,
                  d.attempt, d.redispatch ? 1 : 0, RouteCauseToString(d.cause));
    out += line;
  }
  return out;
}

double ClusterDispatcher::ImbalanceCoefficient() const {
  double mean = 0.0;
  for (const auto& shard : shards_) mean += shard->routed_->value();
  mean /= static_cast<double>(shards_.size());
  if (mean <= 0.0) return 0.0;
  double variance = 0.0;
  for (const auto& shard : shards_) {
    const double d = shard->routed_->value() - mean;
    variance += d * d;
  }
  variance /= static_cast<double>(shards_.size());
  return std::sqrt(variance) / mean;
}

void ClusterDispatcher::RefreshGauges() {
  metrics_.GetGauge("wlm_cluster_imbalance").Set(ImbalanceCoefficient());
  const double now = sim_->Now();
  for (const auto& shard : shards_) {
    const MetricLabels labels = ShardLabels(shard->index());
    metrics_.GetGauge("wlm_cluster_shard_p99_seconds", labels)
        .Set(shard->P99Seconds());
    metrics_.GetGauge("wlm_cluster_shard_queue_depth", labels)
        .Set(static_cast<double>(shard->wlm().queue_depth()));
    metrics_.GetGauge("wlm_cluster_shard_running", labels)
        .Set(static_cast<double>(shard->wlm().running_count()));
    metrics_.GetGauge("wlm_cluster_shard_healthy", labels)
        .Set(shard->healthy() ? 1.0 : 0.0);
    metrics_.GetGauge("wlm_cluster_shard_ewma_latency_seconds", labels)
        .Set(shard->ewma_latency_seconds());
    metrics_.GetGauge("wlm_cluster_health_state", labels)
        .Set(static_cast<double>(static_cast<int>(shard->lifecycle_)));
    metrics_.GetGauge("wlm_cluster_health_phi", labels)
        .Set(options_.health.enabled ? shard->Phi(now) : 0.0);
  }
  metrics_.GetGauge("wlm_cluster_journeys")
      .Set(static_cast<double>(journeys_.journeys().size()));
  metrics_.GetGauge("wlm_cluster_journeys_dropped")
      .Set(static_cast<double>(journeys_.dropped()));
}

void ClusterDispatcher::ExportMetrics(std::ostream& out) {
  RefreshGauges();
  metrics_.WritePrometheus(out);
}

void ClusterDispatcher::StartObservabilityLoop() {
  if (!options_.observability.federation) return;
  sim_->Schedule(kSampleIntervalSeconds, [this] { ObservabilityTick(); });
}

void ClusterDispatcher::ObservabilityTick() {
  const double now = sim_->Now();
  // Sample the cluster series the SLO burn windows and post-mortems
  // consume. Only the handful of families the tick needs are summed
  // directly off the shard registries — a full Federate() per tick costs
  // an order of magnitude more and is only built on demand for export.
  const double rejected = static_cast<double>(rejected_total());
  double submitted = rejected;
  double bad = rejected;
  double completed = 0.0;
  double queued = 0.0;
  double running = 0.0;
  for (const auto& shard : shards_) {
    const MetricsRegistry& metrics = shard->wlm().telemetry().metrics();
    submitted += FamilyValueSum(metrics, "wlm_requests_submitted_total");
    completed += FamilyValueSum(metrics, "wlm_requests_completed_total");
    bad += FamilyValueSum(metrics, "wlm_overload_shed_total") +
           FamilyValueSum(metrics, "wlm_requests_killed_total") +
           FamilyValueSum(metrics, "wlm_requests_aborted_total");
    queued += static_cast<double>(shard->wlm().queue_depth());
    running += static_cast<double>(shard->wlm().running_count());
  }
  timeseries_.Sample("wlm_cluster_requests_total", now, submitted);
  timeseries_.Sample("wlm_cluster_requests_completed_total", now, completed);
  timeseries_.Sample("wlm_cluster_requests_bad_total", now, bad);
  timeseries_.Sample("wlm_cluster_queue_depth", now, queued);
  timeseries_.Sample("wlm_cluster_running", now, running);
  // Burn rate over a window: the fraction of traffic that violated the
  // objective, normalized by the error budget — 1.0 burns the budget
  // exactly, >1.0 is an incident.
  const double budget = 1.0 - kSloTarget;
  auto burn_rate = [&](double window) {
    const double from = now - window;
    const double d_total =
        timeseries_.DeltaSince("wlm_cluster_requests_total", from);
    if (d_total <= 0.0) return 0.0;
    const double d_bad =
        timeseries_.DeltaSince("wlm_cluster_requests_bad_total", from);
    return (d_bad / d_total) / budget;
  };
  const double burn_short = burn_rate(kBurnWindowShortSeconds);
  const double burn_long = burn_rate(kBurnWindowLongSeconds);
  if (burn_rate_short_ == nullptr) {
    burn_rate_short_ =
        &metrics_.GetGauge("wlm_cluster_slo_burn_rate", {{"window", "short"}});
    burn_rate_long_ =
        &metrics_.GetGauge("wlm_cluster_slo_burn_rate", {{"window", "long"}});
  }
  burn_rate_short_->Set(burn_short);
  burn_rate_long_->Set(burn_long);
  timeseries_.Sample("wlm_cluster_slo_burn_rate_short", now, burn_short);
  timeseries_.Sample("wlm_cluster_slo_burn_rate_long", now, burn_long);
  sim_->Schedule(kSampleIntervalSeconds, [this] { ObservabilityTick(); });
}

void ClusterDispatcher::CapturePostMortem(const std::string& reason) {
  ClusterPostMortem pm;
  pm.time = sim_->Now();
  pm.reason = reason;
  const double from = pm.time - kPostmortemWindowSeconds;
  for (const std::string& name : timeseries_.SeriesNames()) {
    pm.rendering +=
        name + " |" + timeseries_.FormatAscii(name, from, pm.time) + "|\n";
  }
  if (pm.rendering.empty()) pm.rendering = "(no samples yet)\n";
  post_mortems_.push_back(std::move(pm));
}

FederationStats ClusterDispatcher::BuildFederatedRegistry(
    MetricsRegistry* out) {
  // The dispatcher's own cluster-scope families ride along verbatim;
  // per-shard families merge under the federation rules.
  CopyRegistry(metrics_, out);
  std::vector<FederationSource> sources;
  sources.reserve(shards_.size());
  for (const auto& shard : shards_) {
    sources.push_back({shard->index(), &shard->wlm().telemetry().metrics()});
  }
  FederationStats stats = Federate(std::move(sources), out);
  out->GetGauge("wlm_cluster_federation_sources")
      .Set(static_cast<double>(stats.sources));
  out->GetGauge("wlm_cluster_federation_series")
      .Set(static_cast<double>(stats.series_merged));
  out->GetGauge("wlm_cluster_federation_bound_mismatches")
      .Set(static_cast<double>(stats.histogram_bound_mismatches));
  return stats;
}

void ClusterDispatcher::ExportFederatedMetrics(std::ostream& out) {
  RefreshGauges();
  MetricsRegistry federated;
  BuildFederatedRegistry(&federated);
  federated.WritePrometheus(out);
}

void ClusterDispatcher::StitchJourneys() {
  for (Journey& journey : journeys_.MutableJourneys()) {
    for (JourneyLife& life : journey.lives) {
      const ClusterShard& shard = *shards_[static_cast<size_t>(life.shard)];
      const QueryProfile* profile =
          shard.wlm().telemetry().profiles().Find(journey.query);
      if (profile == nullptr || !profile->terminal()) continue;
      // A life and its profile share the submit instant; the match
      // filters out lives on this shard that never reached its manager
      // (blackholed, duplicate-refused).
      if (std::abs(profile->arrival_time - life.start) > 1e-9) continue;
      life.phase_sum = profile->PhaseSum();
      life.profile_wall_seconds = profile->WallSeconds();
    }
  }
}

void ClusterDispatcher::WriteJourneys(std::ostream& out) {
  StitchJourneys();
  WriteJourneysJsonl(journeys_.journeys(), out);
}

void ClusterDispatcher::WriteJourneyTrace(std::ostream& out) {
  StitchJourneys();
  WriteJourneysChromeTrace(journeys_.journeys(), out);
}

}  // namespace wlm
