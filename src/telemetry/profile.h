#ifndef WLM_TELEMETRY_PROFILE_H_
#define WLM_TELEMETRY_PROFILE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "engine/types.h"

namespace wlm {

class Tracer;

/// Mutually exclusive phases of a request's arrival-to-terminal wall time.
/// Manager-side waits (queue, suspended, retry backoff) come from the
/// lifecycle hooks; in-engine phases come from the engine's own
/// ExecPhaseTotals decomposition. For every terminal profile the phase
/// seconds sum to `finish - arrival` up to float rounding — the
/// conservation invariant the telemetry tests enforce.
enum class Phase {
  kAdmissionQueue,  // waiting for dispatch under the normal discipline
  kOverloadQueue,   // waiting while the queue runs newest-first (CoDel
                    // overload mode) — backlog time overload control owns
  kLockWait,        // blocked in the lock manager
  kCpuRun,          // actively consuming CPU
  kIoStall,         // running but waiting on the device
  kMemoryStall,     // I/O stall caused by spill from a short memory grant
  kThrottled,       // duty-cycle sleep slices and pauses
  kSuspendFlush,    // flushing state after a suspend request
  kSuspendedWait,   // suspended, parked until re-dispatch
  kRetryBackoff,    // fault-retry backoff limbo before requeue
};

/// Number of Phase values (keep in sync with the enum).
inline constexpr size_t kPhaseCount = 10;

const char* PhaseToString(Phase phase);

/// Resource attribution of one request across all of its run segments.
struct ResourceAttribution {
  /// CPU-seconds actually consumed.
  double cpu_seconds = 0.0;
  /// Device I/O operations actually performed.
  double io_ops = 0.0;
  /// Largest work-memory grant held by any segment, in MB.
  double peak_memory_mb = 0.0;
  /// Sum over held locks of (release - grant) seconds: the lock-hold
  /// footprint this request imposed on others.
  double lock_hold_seconds = 0.0;
  /// Worst (highest) spill factor any segment ran under.
  double spill_factor = 1.0;
  /// Best buffer-pool hit ratio any segment was granted.
  double buffer_hit_ratio = 0.0;
};

/// Per-query latency decomposition + resource attribution: where every
/// second of a request's life went and what it consumed getting there.
struct QueryProfile {
  QueryId id = 0;
  /// Cluster journey id carried on the spec (0 outside a cluster): the
  /// key that stitches this shard-local profile into a cross-shard DAG.
  uint64_t journey = 0;
  std::string workload;  // service class
  QueryKind kind = QueryKind::kBiQuery;
  double arrival_time = 0.0;
  /// First dispatch into the engine; -1 while never dispatched.
  double first_dispatch_time = -1.0;
  /// Terminal time; -1 while the request is still live.
  double finish_time = -1.0;
  /// Terminal outcome name (completed / killed / aborted / rejected /
  /// shed); empty while live.
  std::string outcome;
  /// Outcome qualifier: reject gate+reason, shed reason, kill detail.
  std::string detail;
  /// Phase seconds, indexed by static_cast<size_t>(Phase).
  std::array<double, kPhaseCount> phase_seconds{};
  ResourceAttribution resources;
  int run_segments = 0;   // engine executions (dispatches + resumes)
  int suspend_count = 0;  // completed suspensions
  int requeue_count = 0;  // resubmits after kill / deadlock / fault retry

  double seconds(Phase phase) const {
    return phase_seconds[static_cast<size_t>(phase)];
  }
  /// Terminal wall time (0 while live).
  double WallSeconds() const {
    return finish_time >= 0.0 ? finish_time - arrival_time : 0.0;
  }
  double PhaseSum() const;
  /// Fraction of the phase sum spent in `phase` (0 when nothing accrued).
  double PhaseShare(Phase phase) const;
  /// Largest bucket; ties break toward the lower enum value.
  Phase DominantPhase() const;
  [[nodiscard]] bool terminal() const { return !outcome.empty(); }
};

/// Per-service-class rollup over terminal profiles.
struct ClassProfileRollup {
  int64_t count = 0;
  std::array<double, kPhaseCount> phase_seconds{};
  ResourceAttribution resources;  // sums (peak fields keep max semantics)
};

/// One line on why a request ended the way it did, for dashboards:
/// "rejected: mpl gate", "shed: brownout level 2", "slow: 78% lock_wait",
/// "healthy: 91% cpu_run".
std::string ExplainOutcome(const QueryProfile& profile);

/// A view of the profiles in the tracer's records, driven by the Telemetry
/// facade's hooks: a profile is retained and evicted with its trace. The
/// store keeps only the per-workload rollups and the queue discipline.
/// Every listing (Profiles(), rollups()) is explicitly ordered.
class ProfileStore {
 public:
  /// A wait segment (admission/overload queue, suspended wait, retry
  /// backoff) as phase index and start time; phase -1 means none.
  struct WaitSegment {
    int phase = -1;
    double start = 0.0;
  };

  /// A view of `tracer`'s records, which must outlive it.
  explicit ProfileStore(Tracer* tracer);

  /// Starts the profile of `id`'s record from its trace (no-op without a
  /// record or with a profile). `journey`: the spec's cluster journey id.
  void Begin(QueryId id, uint64_t journey = 0);
  /// Opens a wait segment (admission/overload queue, suspended wait,
  /// retry backoff). Any open segment is settled first.
  void OpenWait(QueryId id, Phase phase, double now);
  /// Opens the queue wait segment, choosing kAdmissionQueue or
  /// kOverloadQueue from the current queue discipline.
  void OpenQueueWait(QueryId id, double now);
  /// The wait queue flipped FIFO<->LIFO: re-buckets every open queue
  /// segment at `now` so time is split exactly at the flip.
  void SetQueueDiscipline(bool lifo, double now);
  /// One engine run segment ended (any OutcomeKind): folds its phase
  /// decomposition and resource usage into the profile.
  void AccumulateSegment(QueryId id, const QueryOutcome& outcome);
  /// Settles the open wait segment and stamps the first dispatch.
  void MarkDispatched(QueryId id, double now);
  void CountRequeue(QueryId id);
  void CountSuspend(QueryId id);
  /// Terminal: settles any open segment, stamps the outcome and rolls the
  /// profile into the rollup of `workload_id` (one id per service class).
  /// Returns the finalized profile (nullptr when `id` has no live
  /// profile). Tracer::FinishTrace queues the record for eviction.
  const QueryProfile* Finalize(QueryId id, WorkloadId workload_id, double now,
                               std::string_view outcome,
                               std::string_view detail);

  const QueryProfile* Find(QueryId id) const;
  /// Open wait segment of `id`; phase -1 when none is open. Lets the
  /// facade emit a trace tile before settling.
  WaitSegment OpenSegment(QueryId id) const;
  /// All retained profiles, in their traces' creation (tid) order.
  std::vector<const QueryProfile*> Profiles() const;
  /// Copies of the profiles among the newest `n` finished records, oldest
  /// finish first.
  std::vector<QueryProfile> RecentTerminal(size_t n) const;
  /// Rollups by service-class name.
  std::map<std::string, ClassProfileRollup> rollups() const;
  size_t size() const;
  int64_t evicted() const { return begun_ - static_cast<int64_t>(size()); }

 private:
  struct NamedRollup {
    std::string workload;
    ClassProfileRollup rollup;
  };

  Tracer* tracer_;
  bool queue_lifo_ = false;
  int64_t begun_ = 0;  // profiles ever begun
  std::vector<NamedRollup> rollups_;  // indexed by WorkloadId
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_PROFILE_H_
