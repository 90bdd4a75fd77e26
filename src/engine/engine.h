#ifndef WLM_ENGINE_ENGINE_H_
#define WLM_ENGINE_ENGINE_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/buffer_pool.h"
#include "engine/execution.h"
#include "engine/lock_manager.h"
#include "engine/memory_governor.h"
#include "engine/optimizer.h"
#include "engine/plan.h"
#include "engine/types.h"
#include "sim/simulation.h"

namespace wlm {

/// Capacity and behaviour of the simulated database server.
struct EngineConfig {
  /// Number of CPUs (CPU-seconds of service per second).
  int num_cpus = 4;
  /// Disk subsystem throughput, I/O operations per second.
  double io_ops_per_second = 2000.0;
  /// Work-memory pool size, MB.
  double memory_mb = 4096.0;
  /// Spill severity (see MemoryGovernor).
  double spill_penalty = 3.0;
  /// Resource-distribution quantum, simulated seconds.
  double tick_seconds = 0.05;
  /// I/O ops needed to write/read one MB of suspended-query state.
  double io_ops_per_mb = 10.0;
  /// Buffer-pool size in pages; 0 disables buffer-pool modeling (every
  /// read goes to the device). When enabled, service-class buffer
  /// priorities (BufferPool::SetGroupPriority) shift hit ratios.
  int64_t buffer_pool_pages = 0;
  /// How often the deadlock detector runs.
  double deadlock_check_period = 0.5;
  OptimizerConfig optimizer;
};

/// Aggregate lifetime counters.
struct EngineCounters {
  uint64_t dispatched = 0;
  uint64_t completed = 0;
  uint64_t killed = 0;
  uint64_t deadlock_aborts = 0;
  uint64_t suspends = 0;
  uint64_t resumes = 0;
  double cpu_used_seconds = 0.0;
  double io_ops_done = 0.0;
};

/// The simulated DBMS execution engine: weighted-fair-share CPU/IO
/// scheduling across concurrently running queries, strict-2PL locking with
/// deadlock detection, memory grants with spill penalties, and the
/// execution-control hooks (kill, suspend/resume, throttle, share changes)
/// that every workload-management technique in the paper manipulates.
///
/// The engine deliberately has *no* admission queue of its own: everything
/// dispatched runs immediately (or blocks on locks). Admission control,
/// queueing and scheduling live above it in `wlm::WorkloadManager`, exactly
/// as the paper places them in front of "the database execution engine".
class DatabaseEngine {
 public:
  using FinishCallback = std::function<void(const QueryOutcome&)>;

  DatabaseEngine(Simulation* sim, EngineConfig config = EngineConfig());
  ~DatabaseEngine();
  DatabaseEngine(const DatabaseEngine&) = delete;
  DatabaseEngine& operator=(const DatabaseEngine&) = delete;

  const EngineConfig& config() const { return config_; }
  Simulation* sim() { return sim_; }
  const Optimizer& optimizer() const { return optimizer_; }
  LockManager& lock_manager() { return lock_manager_; }
  MemoryGovernor& memory() { return memory_; }
  BufferPool& buffer_pool() { return buffer_pool_; }

  /// Global observer fired after every per-dispatch callback.
  void set_finish_observer(FinishCallback cb) { observer_ = std::move(cb); }

  /// Starts executing `spec` immediately. Fails if the id is already
  /// active.
  [[nodiscard]] Status Dispatch(const QuerySpec& spec, ExecutionContext ctx);
  /// As Dispatch, but runs the caller-provided plan (query restructuring
  /// dispatches sub-plans this way). The spec and plan are copied.
  [[nodiscard]] Status DispatchWithPlan(const QuerySpec& spec, const Plan& plan,
                                        ExecutionContext ctx);

  /// Terminates a running query; resources are released immediately.
  [[nodiscard]] Status Kill(QueryId id);
  /// Begins suspension; the outcome callback fires with
  /// OutcomeKind::kSuspended once the state flush completes, after which
  /// TakeSuspended() yields the resume bundle.
  [[nodiscard]] Status Suspend(QueryId id, SuspendStrategy strategy);
  /// Removes and returns the bundle of a fully suspended query.
  [[nodiscard]] Result<SuspendedQuery> TakeSuspended(QueryId id);
  /// Re-dispatches a suspended query: reloads state (paying the resume
  /// I/O), re-acquires locks and memory, and continues the remaining work.
  [[nodiscard]] Status Resume(const SuspendedQuery& suspended, ExecutionContext ctx);

  /// Constant throttle: caps the query at `duty` (1.0 = full speed,
  /// 0.25 = quarter speed). Models the evenly distributed self-imposed
  /// sleeps of Powley et al.'s *constant* throttling.
  [[nodiscard]] Status SetDuty(QueryId id, double duty);
  /// Interrupt throttle: a single contiguous pause of `seconds`.
  [[nodiscard]] Status Pause(QueryId id, double seconds);
  /// Changes the resource-access weights (priority aging / reallocation).
  [[nodiscard]] Status SetShares(QueryId id, const ResourceShares& shares);

  /// Pools every query whose context tag equals `tag` into one fair-share
  /// group with the given weights: capacity is first divided *across
  /// groups* (each ungrouped query is its own group with its own weight),
  /// then within a group across its queries. This is the engine surface
  /// behind workload-level allocations — economic reallocation [78] and
  /// resource-pool reservations [50].
  void SetGroupShares(const std::string& tag, const ResourceShares& shares);
  void ClearGroupShares(const std::string& tag);
  /// Group weights for `tag`, or nullptr if the tag is ungrouped.
  const ResourceShares* FindGroupShares(const std::string& tag) const;

  // --- fault-injection surface ---------------------------------------------
  // Degradation hooks the fault injector drives. They scale the capacity
  // the tick distributes; demands, accounting and progress semantics are
  // untouched, so recovery restores exactly the healthy behaviour.

  /// Scales the disk subsystem's delivered rate: 1.0 = healthy,
  /// 0.25 = degraded to a quarter, 0.0 = full I/O stall. Clamped to [0, 1].
  void SetIoRateFactor(double factor);
  double io_rate_factor() const { return io_rate_factor_; }
  /// Takes `cores` CPUs offline (clamped to [0, num_cpus]); pass 0 to
  /// bring every core back.
  void SetCpusOffline(int cores);
  int cpus_offline() const { return cpus_offline_; }

  // --- introspection -------------------------------------------------------
  [[nodiscard]] bool IsActive(QueryId id) const { return active_.count(id) > 0; }
  size_t running_count() const { return active_.size(); }
  [[nodiscard]] Result<ExecutionProgress> GetProgress(QueryId id) const;
  /// Progress of every active execution, ordered by query id.
  std::vector<ExecutionProgress> Snapshot() const;
  /// Fraction of CPU / IO capacity granted during the last tick.
  double cpu_utilization() const { return cpu_utilization_; }
  double io_utilization() const { return io_utilization_; }
  /// Exponentially smoothed utilizations (~1s horizon) for controllers
  /// that must not react to single-tick gaps between arrivals.
  double smoothed_cpu_utilization() const { return smoothed_cpu_; }
  double smoothed_io_utilization() const { return smoothed_io_; }
  double ConflictRatio() const { return lock_manager_.ConflictRatio(); }
  const EngineCounters& counters() const { return counters_; }

 private:
  using ActiveMap = std::map<QueryId, QueryExecution>;

  /// Buffers the tick fills and the water-fill reads, owned by the engine
  /// so that a tick whose active set has not grown allocates nothing.
  /// Index i is the i-th active query in id order; a group is one grouped
  /// tag or one ungrouped query, numbered in order of first appearance.
  struct TickScratch {
    std::vector<QueryId> ids;
    std::vector<QueryExecution*> execs;
    std::vector<double> cpu_demand, io_demand, cpu_weight, io_weight;
    /// Group of each query, then the queries of each group in index order:
    /// group g's members are members[group_begin[g] .. group_begin[g+1]).
    std::vector<size_t> group_of, group_begin, members;
    std::vector<double> group_cpu_weight, group_io_weight;
    /// A grouped tag seen this tick: its shares entry and group number.
    using TagGroup = std::pair<const ResourceShares*, size_t>;
    std::vector<TagGroup> tag_groups;
    std::vector<double> group_demand, group_grant;
    std::vector<double> member_demand, member_weight, member_grant;
    std::vector<double> cpu_grant, io_grant;
    std::vector<char> open;  // water-fill: user still below its demand
    std::vector<QueryId> done;
  };

  void EnsureTicking();
  void Tick();
  /// Assigns every active query to its fair-share group (fills the group
  /// fields of scratch_ from execs and the per-query weights).
  void GroupActive();
  /// Two-level water-fill of `capacity` into `grants`: across groups by
  /// `group_weights`, then within each group by the per-query `weights`.
  /// A group's demand sums its members in index order.
  void TwoLevelFill(const std::vector<double>& demands,
                    const std::vector<double>& weights,
                    const std::vector<double>& group_weights, double capacity,
                    std::vector<double>* grants);
  void CheckDeadlocks();
  void ContinueAcquiringLocks(QueryExecution* exec);
  void OnLockGranted(TxnId txn, LockKey key);
  /// Removes the execution and fires callbacks. `kind` must not be
  /// kSuspended (use FinalizeSuspend).
  void FinishExecution(QueryId id, OutcomeKind kind);
  void FinalizeSuspend(QueryId id);
  /// Fires the finish callback and the observer for an execution already
  /// taken out of active_, then keeps its node for the next dispatch.
  void Retire(ActiveMap::node_type node, const QueryOutcome& outcome);
  QueryOutcome MakeOutcome(const QueryExecution& exec, OutcomeKind kind) const;

  Simulation* sim_;
  EngineConfig config_;
  Optimizer optimizer_;
  LockManager lock_manager_;
  MemoryGovernor memory_;
  BufferPool buffer_pool_;
  PeriodicTask tick_;
  PeriodicTask deadlock_task_;

  ActiveMap active_;  // ordered for determinism
  /// Nodes of finished executions, reused by the next dispatches: at most
  /// the peak number of executions alive at once.
  std::vector<ActiveMap::node_type> spare_;
  std::unordered_map<std::string, ResourceShares> group_shares_;
  std::unordered_map<QueryId, SuspendedQuery> pending_suspend_;
  std::unordered_map<QueryId, SuspendedQuery> suspended_;
  FinishCallback observer_;
  TickScratch scratch_;
  EngineCounters counters_;
  double cpu_utilization_ = 0.0;
  double io_utilization_ = 0.0;
  double smoothed_cpu_ = 0.0;
  double smoothed_io_ = 0.0;
  double io_rate_factor_ = 1.0;
  int cpus_offline_ = 0;
};

}  // namespace wlm

#endif  // WLM_ENGINE_ENGINE_H_
