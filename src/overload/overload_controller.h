#ifndef WLM_OVERLOAD_OVERLOAD_CONTROLLER_H_
#define WLM_OVERLOAD_OVERLOAD_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "overload/brownout.h"
#include "overload/circuit_breaker.h"
#include "overload/codel_queue.h"
#include "overload/retry_budget.h"
#include "overload/violation_window.h"

namespace wlm {

/// Top-level configuration for the overload-protection subsystem.
/// Everything defaults to off so existing deterministic scenarios are
/// untouched unless a config opts in.
struct OverloadOptions {
  /// Master switch; when false WorkloadManager builds no controller.
  bool enabled = false;

  /// Queue shedding: hard capacity + CoDel sojourn discipline + LIFO
  /// flip under sustained overload.
  bool shedding = true;
  CodelOptions codel;

  /// Shed queued requests whose deadline is already unreachable
  /// (now + estimated elapsed > deadline).
  bool deadline_shedding = true;
  /// When a request carries no explicit deadline, derive one from its
  /// workload's response-time SLO times this slack factor (0 disables
  /// SLO-derived deadlines).
  double deadline_slack = 2.0;

  /// Token-bucket retry budgets gating the resilience retry policy.
  RetryBudgetOptions retry_budget;

  /// Per-service-class circuit breakers on the SLO-violation rate.
  bool breaker = true;
  CircuitBreakerOptions breaker_options;

  /// Brownout: shed lowest business priority classes first, stepwise.
  bool brownout = true;
  BrownoutOptions brownout_options;

  /// Global outcome window used to compute the brownout violation rate
  /// (at most kOutcomeWindowCapacity samples).
  double outcome_window_seconds = 5.0;
};

/// Facade the WorkloadManager talks to. Keyed by workload name via
/// std::map so iteration and lazy creation are deterministic; all
/// timing comes from the caller's sim-clock `now` (the controller never
/// schedules events itself).
class OverloadController {
 public:
  enum class TransitionKind {
    kBreakerTripped,
    kBreakerHalfOpen,
    kBreakerClosed,
    kBrownoutStepped,
  };

  using TransitionListener = std::function<void(
      TransitionKind kind, const std::string& workload, int level,
      const std::string& detail)>;

  explicit OverloadController(OverloadOptions options);

  /// Admission-time gate. Returns an empty string to admit, or a shed
  /// reason ("queue_full", "breaker_open", "brownout") to reject with
  /// Status::Overloaded. `priority` is the request's BusinessPriority
  /// as an int (kBackground=0 sheds first).
  [[nodiscard]] std::string EvaluateArrival(const std::string& workload,
                                            int priority, double now,
                                            int queue_depth);

  /// Feeds the CoDel discipline one look at the wait queue. Call after
  /// each shed until `shed` comes back false.
  CodelQueuePolicy::Decision ObserveQueue(double now, double oldest_sojourn,
                                          int depth);

  /// Retry-budget gate for the resilience policy.
  [[nodiscard]] bool AllowRetry(const std::string& workload, double now);
  double RetryTokens(const std::string& workload, double now);

  /// Feeds a finished request's SLO outcome to the workload's breaker
  /// and the global brownout window. Shed requests must NOT be fed
  /// here — counting our own sheds as violations would latch the
  /// breaker open (a self-inflicted metastable loop).
  void RecordOutcome(const std::string& workload, double now, bool violated);

  /// Periodic control-loop tick (monitor sample): updates the brownout
  /// level from the global violation rate and queue pressure.
  void OnSample(double now, int queue_depth);

  void set_transition_listener(TransitionListener listener) {
    listener_ = std::move(listener);
  }

  const OverloadOptions& options() const { return options_; }
  int brownout_level() const { return brownout_ ? brownout_->level() : 0; }
  bool lifo() const { return lifo_; }
  /// The workload's breaker, created on first use; nullptr when breakers
  /// are off. Its transition listener is the controller's, which counts
  /// open breakers through it: do not replace it.
  CircuitBreaker* breaker(const std::string& workload);
  /// True when any service class's breaker is currently open — the
  /// shard-health signal the cluster dispatcher routes around. O(1): the
  /// breakers' transitions keep the count of open ones.
  [[nodiscard]] bool AnyBreakerOpen() const;
  double GlobalViolationRate() const { return outcomes_.Rate(); }
  int64_t shed_total() const { return shed_total_; }
  void CountShed() { ++shed_total_; }

 private:
  CircuitBreaker& BreakerFor(const std::string& workload);

  OverloadOptions options_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
  int open_breakers_ = 0;  // breakers_ whose state is kOpen
  std::unique_ptr<CodelQueuePolicy> codel_;
  RetryBudgetPool retry_budgets_;
  std::unique_ptr<BrownoutController> brownout_;
  ViolationWindow outcomes_;  // bounded by kOutcomeWindowCapacity
  bool lifo_ = false;
  int64_t shed_total_ = 0;
  TransitionListener listener_;
};

}  // namespace wlm

#endif  // WLM_OVERLOAD_OVERLOAD_CONTROLLER_H_
