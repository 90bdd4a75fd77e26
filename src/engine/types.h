#ifndef WLM_ENGINE_TYPES_H_
#define WLM_ENGINE_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

namespace wlm {

using QueryId = uint64_t;
/// Dense index of a defined workload (service class), assigned by the
/// workload manager in definition order. Lower layers index per-workload
/// state by it without seeing the manager.
using WorkloadId = uint32_t;
using TxnId = uint64_t;
using LockKey = uint64_t;

/// Broad workload-type of a request; the paper's OLTP-vs-BI dichotomy plus
/// online administrative utilities (Parekh et al. [64]).
enum class QueryKind {
  kOltpTransaction,
  kBiQuery,
  kUtility,
};

const char* QueryKindToString(QueryKind kind);

/// Statement types used by workload definition / work classes
/// (DB2's READ / WRITE / DML / DDL / LOAD / CALL classification).
enum class StatementType {
  kRead,
  kWrite,
  kDml,
  kDdl,
  kLoad,
  kCall,
};

const char* StatementTypeToString(StatementType type);

/// Connection / session attributes: the "who" of a request ("origin" in the
/// paper's workload-definition discussion). Commercial facilities map
/// requests to workloads by these attributes.
struct SessionAttributes {
  std::string application;
  std::string user;
  std::string client_ip;
  uint64_t session_id = 0;
};

/// One lock a transaction will take, in acquisition order.
struct LockRequest {
  LockKey key = 0;
  bool exclusive = false;
};

/// The ground-truth description of one request's work. `cpu_seconds`,
/// `io_ops` and `memory_mb` are the *true* demands known to the generator;
/// the optimizer produces (noisy) estimates of them.
struct QuerySpec {
  QueryId id = 0;
  QueryKind kind = QueryKind::kBiQuery;
  StatementType stmt = StatementType::kRead;

  /// True total CPU service demand, in CPU-seconds.
  double cpu_seconds = 0.1;
  /// True total disk I/O demand, in I/O operations.
  double io_ops = 10.0;
  /// Working memory needed to run without spilling, in MB.
  double memory_mb = 16.0;
  /// True number of rows the query returns.
  int64_t result_rows = 1;
  /// Degree of parallelism: the max CPU rate the query can consume
  /// (in CPUs).
  int dop = 1;

  /// Locks acquired (strict two-phase) before the work begins.
  std::vector<LockRequest> locks;

  SessionAttributes session;
  /// Synthetic statement fingerprint; prediction-based techniques use it as
  /// a categorical feature.
  std::string sql_digest;
  /// Relative completion deadline (seconds after arrival) the submitter
  /// attaches to the request; 0 = none. The workload manager turns it
  /// into an absolute Request::deadline for overload protection.
  double deadline_seconds = 0.0;
  /// Cluster journey id assigned by the dispatcher at arrival and carried
  /// through every life (failover, redispatch, crash drain, hedge); 0
  /// outside a cluster. Observability-only: no control decision reads it.
  uint64_t journey = 0;
};

/// How a running query terminated.
enum class OutcomeKind {
  kCompleted,
  kKilled,            // killed by an execution-control action
  kAbortedDeadlock,   // chosen as a deadlock victim
  kSuspended,         // suspend finished; query can be resumed later
};

const char* OutcomeKindToString(OutcomeKind kind);

/// Mutually exclusive decomposition of an execution's in-engine wall time.
/// Every settled interval of [dispatch, finish] lands in exactly one bucket,
/// so `Sum()` equals `finish_time - dispatch_time` up to float rounding —
/// the conservation invariant the telemetry profile tests enforce.
struct ExecPhaseTotals {
  /// Blocked in the lock manager before the work began (or as a deadlock
  /// victim).
  double lock_wait_seconds = 0.0;
  /// Actively consuming CPU (granted CPU spread over the query's lanes).
  double cpu_run_seconds = 0.0;
  /// Running but waiting on the device (or starved of a grant).
  double io_stall_seconds = 0.0;
  /// The slice of I/O stall caused by spill inflation from a short memory
  /// grant — pressure the memory governor imposed, not intrinsic I/O.
  double memory_stall_seconds = 0.0;
  /// Duty-cycle sleep slices plus interrupt-throttle pauses.
  double throttled_seconds = 0.0;
  /// Flushing state to disk after a suspend request.
  double suspend_flush_seconds = 0.0;

  double Sum() const {
    return lock_wait_seconds + cpu_run_seconds + io_stall_seconds +
           memory_stall_seconds + throttled_seconds + suspend_flush_seconds;
  }
};

/// Delivered to the completion callback when an execution leaves the engine.
struct QueryOutcome {
  QueryId id = 0;
  OutcomeKind kind = OutcomeKind::kCompleted;
  double dispatch_time = 0.0;
  double finish_time = 0.0;
  double cpu_used = 0.0;
  double io_used = 0.0;
  double memory_granted_mb = 0.0;
  /// io inflation factor the memory governor imposed (1.0 = no spill).
  double spill_factor = 1.0;
  /// Buffer-pool hit ratio granted at start (0 when the pool is
  /// disabled); hits shrink the effective device I/O.
  double buffer_hit_ratio = 0.0;
  /// Seconds spent waiting on locks before running.
  double lock_wait_seconds = 0.0;
  /// Sum over held locks of (release - grant) seconds at finish; strict
  /// 2PL releases everything at once, so this is the lock-hold footprint
  /// the query imposed on others.
  double lock_hold_seconds = 0.0;
  /// Wall-time decomposition of [dispatch_time, finish_time];
  /// phases.Sum() equals the wall time up to float rounding.
  ExecPhaseTotals phases;
};

}  // namespace wlm

#endif  // WLM_ENGINE_TYPES_H_
