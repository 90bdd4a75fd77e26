#ifndef WLM_ENGINE_EXECUTION_H_
#define WLM_ENGINE_EXECUTION_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/plan.h"
#include "engine/types.h"

namespace wlm {

/// Relative resource-access weights of a running query; the execution-control
/// techniques (priority aging, policy-driven reallocation) act by changing
/// these.
struct ResourceShares {
  double cpu_weight = 1.0;
  double io_weight = 1.0;
};

/// How to save a query's state at suspension (Chandramouli et al. [10]):
/// DumpState writes the current operator state (expensive suspend, cheap
/// resume); GoBack writes only control state and redoes work from the last
/// checkpoint at resume (cheap suspend, potentially expensive resume).
enum class SuspendStrategy { kDumpState, kGoBack };

const char* SuspendStrategyToString(SuspendStrategy s);

/// Everything needed to resume a suspended query later.
struct SuspendedQuery {
  QuerySpec spec;
  /// Remaining work per operator, rollback (GoBack redo) already applied.
  std::vector<PlanOperator> remaining_ops;
  SuspendStrategy strategy = SuspendStrategy::kDumpState;
  double saved_state_mb = 0.0;
  /// I/O paid while suspending (state flush).
  double suspend_io_cost = 0.0;
  /// I/O to pay at resume (state reload).
  double resume_io_cost = 0.0;
  /// Work redone at resume because of GoBack rollback.
  double redo_cpu = 0.0;
  double redo_io = 0.0;
  double suspended_at = 0.0;
  double progress_at_suspend = 0.0;
  /// CPU/IO already consumed before suspension (carried into accounting).
  double cpu_used_before = 0.0;
  double io_used_before = 0.0;
};

/// Per-dispatch options.
struct ExecutionContext {
  ResourceShares shares;
  /// Free-form label (typically the service-class / workload name); the
  /// monitor aggregates per tag.
  std::string tag;
  /// Fired exactly once when the execution leaves the engine.
  std::function<void(const QueryOutcome&)> on_finish;
};

/// Introspection snapshot of one running execution; progress indicators and
/// execution controllers consume this.
struct ExecutionProgress {
  QueryId id = 0;
  std::string tag;
  QueryKind kind = QueryKind::kBiQuery;
  double dispatch_time = 0.0;
  double elapsed = 0.0;
  /// Work-weighted completion fraction in [0, 1].
  double fraction_done = 0.0;
  double cpu_used = 0.0;
  double io_used = 0.0;
  double remaining_cpu = 0.0;
  double remaining_io = 0.0;
  int current_op = 0;
  int num_ops = 0;
  bool blocked_on_locks = false;
  bool sleeping = false;
  bool suspending = false;
  /// Rows produced so far (fraction * true result rows) — the
  /// "rows returned" thresholds in DB2-style controls watch this.
  int64_t rows_emitted = 0;
  double duty = 1.0;
  ResourceShares shares;
  /// Provisional phase decomposition as of the snapshot: settled totals
  /// plus the open interval attributed by the current state. Sums to
  /// `elapsed` up to float rounding.
  ExecPhaseTotals phases;
};

/// State machine for one query running in the engine. Owned by
/// DatabaseEngine; exposed for unit testing of the advance mechanics.
class QueryExecution {
 public:
  enum class State {
    kAcquiringLocks,
    kRunning,
    kSleeping,    // interrupt-throttle pause
    kSuspending,  // flushing state to disk before suspension
    kFinished,
  };

  /// `io_ops_per_second` is the engine's nominal device rate, used for
  /// work-normalization in progress fractions.
  QueryExecution(const QuerySpec& spec, const Plan& plan, ExecutionContext ctx,
                 double dispatch_time, double io_ops_per_second);

  /// Re-initializes every field as the constructor does, for a new
  /// dispatch. Copies the spec and plan into storage the previous
  /// execution left, so a reused execution allocates only when the new
  /// query's lock list or plan is larger than any before it.
  void Reset(const QuerySpec& spec, const Plan& plan, ExecutionContext&& ctx,
             double dispatch_time, double io_ops_per_second);
  /// Drops the finish callback, and with it whatever the caller captured.
  void ClearFinishCallback() { ctx_.on_finish = nullptr; }

  const QuerySpec& spec() const { return spec_; }
  const Plan& plan() const { return plan_; }
  const ExecutionContext& context() const { return ctx_; }
  State state() const { return state_; }
  double dispatch_time() const { return dispatch_time_; }

  // --- lock acquisition phase -------------------------------------------
  /// Index of the next lock to request; == spec().locks.size() when done.
  size_t lock_cursor() const { return lock_cursor_; }
  void AdvanceLockCursor() { ++lock_cursor_; }
  [[nodiscard]] bool AllLocksAcquired() const { return lock_cursor_ >= spec_.locks.size(); }
  void StartRunning(double now, double spill_factor, double buffer_hit_ratio,
                    double granted_mb);
  double lock_wait_seconds(double now) const;

  // --- resource consumption ---------------------------------------------
  /// Max CPU-seconds this execution can absorb in a tick of length `dt`.
  double CpuDemand(double dt) const;
  /// Max I/O ops this execution can absorb in `dt` given device rate.
  double IoDemand(double dt, double device_rate) const;
  /// Applies granted work; returns true if all operators completed (or the
  /// suspend flush finished when suspending).
  [[nodiscard]] bool Advance(double cpu_grant, double io_grant);

  // --- throttling ---------------------------------------------------------
  double duty() const { return duty_; }
  void set_duty(double duty);
  /// Interrupt throttle: no work until `until`.
  void SleepUntil(double until);
  [[nodiscard]] bool IsSleeping(double now) const;
  /// Called by the engine each tick to wake from an elapsed pause.
  void MaybeWake(double now);

  // --- shares --------------------------------------------------------------
  const ResourceShares& shares() const { return ctx_.shares; }
  void set_shares(const ResourceShares& s) { ctx_.shares = s; }

  // --- suspension -----------------------------------------------------------
  /// Transitions to kSuspending, replacing remaining work with the state
  /// flush; fills `out` with the resume bundle (remaining work snapshot).
  /// `io_ops_per_mb` prices the state write/read.
  [[nodiscard]] Status BeginSuspend(SuspendStrategy strategy, double now,
                      double io_ops_per_mb, SuspendedQuery* out);

  // --- phase accounting ------------------------------------------------------
  /// Closes the open interval [last settle, now], attributing it to
  /// exactly one phase bucket by the *current* state (so transitions must
  /// settle before flipping state). `cpu_delta` is the CPU consumed since
  /// the last settle (from Advance); pass 0 at event-time settles.
  void SettlePhases(double now, double cpu_delta);
  /// Settled phase totals (as of the last SettlePhases call).
  const ExecPhaseTotals& phases() const { return phases_; }
  /// Settled totals plus the still-open interval, for live snapshots;
  /// PhasesAt(now).Sum() == now - dispatch_time() up to float rounding.
  ExecPhaseTotals PhasesAt(double now) const;

  // --- accounting / introspection -------------------------------------------
  double cpu_used() const { return cpu_used_; }
  double io_used() const { return io_used_; }
  double spill_factor() const { return spill_factor_; }
  double buffer_hit_ratio() const { return buffer_hit_ratio_; }
  double granted_mb() const { return granted_mb_; }
  double FractionDone() const;
  double RemainingCpu() const;
  double RemainingIo() const;
  /// Current operator's in-memory state size (progress-scaled), MB.
  double CurrentStateMb() const;
  ExecutionProgress Snapshot(double now) const;
  void MarkFinished() { state_ = State::kFinished; }

 private:
  struct OpState {
    PlanOperator op;        // original (possibly spill-inflated) work
    double remaining_cpu;
    double remaining_io;
  };

  // Reset assigns every field below.
  QuerySpec spec_;
  Plan plan_;
  ExecutionContext ctx_;
  double dispatch_time_ = 0.0;
  double io_rate_ = 0.0;  // engine nominal io ops/sec for work normalization

  State state_ = State::kAcquiringLocks;
  size_t lock_cursor_ = 0;
  double lock_phase_start_ = 0.0;
  double lock_wait_total_ = 0.0;

  std::vector<OpState> ops_;
  size_t op_index_ = 0;
  double total_work_ = 0.0;  // for fraction_done

  double spill_factor_ = 1.0;
  double buffer_hit_ratio_ = 0.0;
  double granted_mb_ = 0.0;
  double cpu_used_ = 0.0;
  double io_used_ = 0.0;
  double duty_ = 1.0;
  double sleeping_until_ = -1.0;

  ExecPhaseTotals phases_;
  double last_account_time_ = 0.0;  // start of the open phase interval
  double spill_io_fraction_ = 0.0; // share of device I/O caused by spilling
};

}  // namespace wlm

#endif  // WLM_ENGINE_EXECUTION_H_
