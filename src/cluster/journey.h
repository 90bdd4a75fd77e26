#ifndef WLM_CLUSTER_JOURNEY_H_
#define WLM_CLUSTER_JOURNEY_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/id_index.h"
#include "engine/types.h"

namespace wlm {

enum class RouteCause;  // cluster/cluster.h

/// One life of a journey: a single (shard, landing) episode. A query
/// gets a new life for every failover attempt, re-dispatch, crash-drain
/// resurrection and hedge duplicate; the edge from `parent` carries the
/// RouteCause that created this life, so the lives of one journey form a
/// DAG (parent < index by construction — the graph cannot cycle).
struct JourneyLife {
  int index = 0;
  /// Index of the life this one descends from; -1 for the root life.
  int parent = -1;
  /// Edge kind from `parent` (kPlace on the root). 0 == RouteCause::kPlace
  /// (opaque enum here; cluster.h owns the definition).
  RouteCause cause = static_cast<RouteCause>(0);
  int shard = 0;
  /// Failover attempt number within one SubmitToShards pass.
  int attempt = 0;
  bool redispatch = false;
  double start = 0.0;
  /// Terminal instant of this life; -1 while still open.
  double end = -1.0;
  /// How this life ended (completed / shed / killed / blackholed /
  /// refused / hedge_cancelled / ...); empty while open. Always static
  /// text: a request-state name or one of the dispatcher's literals.
  std::string_view outcome;
  /// Sum of the phase decomposition stitched from the landing shard's
  /// QueryProfile (0 until StitchJourneys runs or when the life never
  /// reached a live shard).
  double phase_sum = 0.0;
  /// The stitched profile's wall seconds; -1 when no profile was found.
  double profile_wall_seconds = -1.0;

  double PhaseSum() const { return phase_sum; }
  /// end - start for closed lives, 0 while open.
  double WallSeconds() const { return end >= 0.0 ? end - start : 0.0; }
};

/// The end-to-end story of one query across the cluster: every life it
/// lived, on every shard, linked by the routing decisions that moved it.
struct Journey {
  uint64_t id = 0;
  QueryId query = 0;
  std::string workload;
  double arrival = 0.0;
  std::vector<JourneyLife> lives;

  /// Latest end over closed lives (arrival when none closed).
  double FinishTime() const;
  int OpenLives() const;
};

/// Dispatcher-owned journey accumulator. Bounded: past `max_journeys`
/// new arrivals are dropped (counted) rather than evicting history, so a
/// journey can never lose earlier lives mid-flight. Purely passive and
/// deterministic: insertion order is submission order, ids are dense
/// from 1, and every listing is explicitly ordered.
class JourneyLog {
 public:
  explicit JourneyLog(size_t max_journeys = 65536);

  /// Starts the journey of `query` at arrival; returns its journey id,
  /// or 0 when the log is full (the query then goes untracked).
  uint64_t Begin(QueryId query, const std::string& workload, double now);

  /// Opens a new life of `query` on `shard`. `parent` is the index of
  /// the life this one descends from (-1 for the root; callers pass
  /// LatestLifeOnShard of the shard the query came from). Returns the
  /// new life index, or -1 for untracked queries.
  int OpenLife(QueryId query, int shard, RouteCause cause, int attempt,
               bool redispatch, double now, int parent);

  /// Closes the most recent open life of `query` on `shard` with
  /// `outcome` (static text); no-op when none is open there.
  void CloseLife(QueryId query, int shard, double now,
                 std::string_view outcome);

  /// Re-labels the most recent life of `query` on `shard` with `outcome`
  /// (static text), closing it at `now` first if still open. Used when a
  /// life's meaning is decided after its terminal event, e.g. a killed
  /// hedge copy becoming `hedge_cancelled`.
  void MarkOutcome(QueryId query, int shard, double now,
                   std::string_view outcome);

  /// Index of the most recent life of `query` on `shard`, or -1.
  int LatestLifeOnShard(QueryId query, int shard) const;

  const Journey* Find(QueryId query) const;
  Journey* FindMutable(QueryId query);

  /// All journeys, in begin (submission) order.
  const std::vector<Journey>& journeys() const { return journeys_; }
  /// Mutable access for post-run stitching (phase/profile back-fill).
  std::vector<Journey>& MutableJourneys() { return journeys_; }
  /// Arrivals not tracked because the log was full.
  int64_t dropped() const { return dropped_; }

 private:
  size_t max_journeys_;
  std::vector<Journey> journeys_;
  // Index into journeys_. Lookup only (an IdIndex cannot be iterated), so
  // hash order cannot leak into any exported byte stream.
  IdIndex by_query_;
  uint64_t next_id_ = 1;
  int64_t dropped_ = 0;
};

/// One JSON object per life — journeys in begin order, lives in index
/// order, %.6f numerics — the byte-comparable journey-determinism
/// surface for same-seed runs.
void WriteJourneysJsonl(const std::vector<Journey>& journeys,
                        std::ostream& out);

/// Chrome trace-event JSON for the journeys: one complete ("X") slice
/// per life (pid = shard, tid = journey id) plus flow ("s"/"f") edges
/// named by RouteCause linking each parent life to its children — load
/// into chrome://tracing or Perfetto to follow a query across shards.
void WriteJourneysChromeTrace(const std::vector<Journey>& journeys,
                              std::ostream& out);

/// Fixed-width ASCII timeline of one journey: one row per life with the
/// edge kind, shard, interval, outcome and a bar scaled over the
/// journey's span.
std::string FormatJourneyAscii(const Journey& journey, int width = 48);

}  // namespace wlm

#endif  // WLM_CLUSTER_JOURNEY_H_
