#ifndef WLM_CLUSTER_HEALTH_H_
#define WLM_CLUSTER_HEALTH_H_

#include <cstdint>
#include <deque>

#include "faults/link_model.h"
#include "overload/warmup.h"

namespace wlm {

/// The shard lifecycle the dispatcher routes on. Ground truth (whether
/// the shard process is actually alive) is deliberately NOT part of this
/// enum: the dispatcher only ever sees what its failure detector infers
/// from heartbeats, so detection latency — and the queries lost inside
/// it — are modeled honestly.
///
///   healthy -> suspected -> down -> warming -> healthy
///
/// suspected: phi crossed the hedge threshold (roughly one missed
/// heartbeat) — still routable, but deadline-critical placements hedge.
/// down: phi crossed the kill threshold — drained and excluded.
/// warming: heartbeats resumed after down — re-admitted on the warm-up
/// ramp, then healthy.
enum class ShardLifecycle {
  kHealthy,
  kSuspected,
  kDown,
  kWarming,
};

const char* ShardLifecycleToString(ShardLifecycle lifecycle);

/// Heartbeat period on the sim clock: every live shard beats once per
/// interval, and the detector is evaluated on the same tick.
inline constexpr double kHeartbeatIntervalSeconds = 0.25;
/// Phi at which a shard becomes suspected (hedging engages): roughly one
/// missed heartbeat.
inline constexpr double kPhiSuspect = 1.5;
/// Phi at which a shard is declared down (drain + exclude): roughly two
/// consecutive missed heartbeats.
inline constexpr double kPhiDown = 6.0;

/// Phi-accrual failure detection + crash defenses for the cluster layer.
/// Everything defaults to off so pre-existing cluster scenarios replay
/// byte-identically unless a config opts in.
struct ClusterHealthOptions {
  /// Master switch. When false: no heartbeats, no lifecycle transitions,
  /// no drain, no hedging — crashed shards silently black-hole whatever
  /// is routed at them (the undefended baseline).
  bool enabled = false;

  /// Warm-up ramp applied to a shard re-entering service after down.
  WarmupOptions warmup;

  /// Hedged dispatch: when the placement pick is suspected and the query
  /// carries an explicit deadline, a duplicate is submitted to the best
  /// non-suspected shard; first completion wins, the loser is killed.
  bool hedge = true;

  /// Dispatcher <-> shard link quality (heartbeat delay and loss).
  LinkOptions link;
};

/// Phi-accrual failure detector (Hayashibara et al.) on the sim clock:
/// keeps a window of heartbeat inter-arrival times and maps the current
/// silence onto a suspicion level
///
///   phi(now) = -log10( P(gap > now - last_arrival) )
///
/// under a normal fit of the last 16 inter-arrival times, with the
/// stddev floored at a quarter of the heartbeat interval: perfectly
/// regular sim heartbeats would otherwise collapse the distribution and
/// declare death on any infinitesimal gap. Phi grows continuously with
/// silence, so one threshold can express "hedge around this shard" and a
/// higher one "declare it dead" — rather than the binary verdict of a
/// fixed timeout. Purely passive: callers feed OnHeartbeat and poll Phi;
/// nothing here schedules events or reads a clock.
class PhiAccrualDetector {
 public:
  /// Re-primes the detector at `now`, dropping all history. Called at
  /// start-up and when a dead shard's heartbeats resume — the fresh
  /// process should not inherit the giant down-gap as a "sample".
  void Reset(double now);

  /// A heartbeat arrived at `now` (monotone nondecreasing).
  void OnHeartbeat(double now);

  /// Suspicion level at `now`; 0 when nothing has ever been heard.
  double Phi(double now) const;

  double last_heartbeat() const { return last_arrival_; }
  int samples() const { return static_cast<int>(intervals_.size()); }

 private:
  std::deque<double> intervals_;
  double last_arrival_ = -1.0;
};

}  // namespace wlm

#endif  // WLM_CLUSTER_HEALTH_H_
