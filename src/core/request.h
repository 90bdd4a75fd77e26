#ifndef WLM_CORE_REQUEST_H_
#define WLM_CORE_REQUEST_H_

#include <cstdint>
#include <limits>
#include <string>

#include "engine/execution.h"
#include "engine/plan.h"
#include "engine/types.h"

namespace wlm {

/// Business priority (importance level) assigned to a workload from the
/// SLA, as in the paper's Section 2.1. Higher enum value = more important.
enum class BusinessPriority {
  kBackground = 0,
  kLow = 1,
  kMedium = 2,
  kHigh = 3,
  kCritical = 4,
};

inline constexpr int kBusinessPriorityCount = 5;

const char* BusinessPriorityToString(BusinessPriority p);

/// Default engine resource weights for a priority level (the "resource
/// access priority" a service class confers).
ResourceShares SharesForPriority(BusinessPriority p);

/// Lifecycle of a request through the workload-management process:
/// arrival -> (admission) -> queued -> (scheduling) -> running ->
/// (execution control) -> terminal state.
enum class RequestState {
  kArrived,
  kQueued,
  kRejected,   // admission denied
  kRunning,
  kCompleted,
  kKilled,
  kAborted,    // deadlock victim, not resubmitted
  kSuspended,  // suspended and back in the queue awaiting resume
  kShed,       // dropped by overload protection (Status::Overloaded)
};

const char* RequestStateToString(RequestState s);

/// One end-user request flowing through the workload manager. Wraps the
/// engine-level QuerySpec with arrival metadata, the optimizer's
/// pre-execution view (for admission/scheduling decisions), the workload
/// assignment from characterization, and lifecycle timestamps.
struct Request {
  QuerySpec spec;
  /// Optimizer plan: per-operator true work plus est_* fields carrying the
  /// (noisy) estimates controllers are allowed to see.
  Plan plan;

  double arrival_time = 0.0;
  /// Position in its manager's submission order, from 0. A reader that
  /// collects requests as they end sorts by it to restore that order.
  uint64_t sequence = 0;
  std::string workload;  // assigned workload name
  /// The assigned workload's id, resolved from `workload` once at submit;
  /// per-workload state and telemetry handles are indexed by it.
  WorkloadId workload_id = 0;
  BusinessPriority priority = BusinessPriority::kMedium;
  ResourceShares shares;

  RequestState state = RequestState::kArrived;
  double dispatch_time = -1.0;
  double finish_time = -1.0;
  /// Absolute sim-clock deadline by which the request must finish to
  /// meet its SLO. +inf = no deadline. Set at submit time from
  /// QuerySpec::deadline_seconds or derived from the workload's
  /// response-time SLO (overload protection only).
  double deadline = std::numeric_limits<double>::infinity();
  /// When the request last entered the wait queue (for sojourn time).
  double enqueued_time = 0.0;
  /// The number the request last entered the wait queue with, from 1; 0
  /// while it is not in the queue.
  uint64_t queue_seq = 0;
  int resubmits = 0;
  int suspend_count = 0;
  /// Why admission rejected the request (empty otherwise).
  std::string reject_reason;

  [[nodiscard]] bool terminal() const {
    return state == RequestState::kRejected ||
           state == RequestState::kCompleted ||
           state == RequestState::kKilled ||
           state == RequestState::kAborted || state == RequestState::kShed;
  }

  [[nodiscard]] bool HasDeadline() const {
    return deadline != std::numeric_limits<double>::infinity();
  }
  /// Arrival-to-finish time (the user-visible response time). Only valid
  /// in terminal states with finish_time set.
  double ResponseTime() const { return finish_time - arrival_time; }
  /// Time spent waiting before the (first) dispatch.
  double QueueWait() const {
    return dispatch_time >= 0.0 ? dispatch_time - arrival_time : 0.0;
  }
  /// The paper's execution-velocity metric: expected standalone execution
  /// time / total time in system, in (0, 1]. Requires terminal state.
  double Velocity(int num_cpus, double io_ops_per_second) const;

  /// Readies a retired request for the next submission: every field
  /// returns to its default, and the heap buffers of the spec, the plan
  /// and the strings stay allocated for the new values to be copied into.
  /// `spec` and `plan` keep their old contents until then.
  void Recycle();
};

}  // namespace wlm

#endif  // WLM_CORE_REQUEST_H_
