#ifndef WLM_TELEMETRY_EVENT_LOG_H_
#define WLM_TELEMETRY_EVENT_LOG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "engine/types.h"

namespace wlm {

/// Control-plane event kinds recorded by the workload manager. This is
/// the library's analogue of the commercial products' event monitors
/// (DB2's activity and threshold-violation monitors, SQL Server's
/// Resource Governor events, Teradata's exception logging).
enum class WlmEventType {
  kSubmitted,
  kRejected,       // admission denied
  kDispatched,     // sent to the execution engine
  kCompleted,
  kKilled,
  kAborted,        // deadlock victim, not resubmitted
  kResubmitted,    // requeued after a kill/abort
  kSuspended,      // suspension finished, request back in queue
  kResumed,        // dispatched again from a suspended state
  kThrottled,      // duty-cycle change
  kPaused,         // interrupt-throttle pause
  kReprioritized,  // business priority change
  kSloViolation,   // SLO watchdog: a workload objective went unmet
  kFaultInjected,  // fault injector activated a fault window
  kFaultRecovered, // fault window ended; injected degradation reverted
  kShed,           // overload protection dropped the request
  kRetryDenied,    // resilience retry blocked (budget or deadline)
  kBreakerTripped, // circuit breaker opened for a workload
  kBreakerHalfOpen,// breaker admitting probes after cool-down
  kBreakerClosed,  // breaker closed after healthy probes
  kBrownoutStepped,// brownout shed level changed
  kShardDown,      // cluster failure detector declared a shard dead
  kShardRecovered, // dead shard heartbeating again; warm-up ramp begins
  kHedged,         // deadline-critical query duplicated to a second shard
};

/// Number of WlmEventType values (keep in sync with the enum).
inline constexpr size_t kWlmEventTypeCount = 24;

const char* WlmEventTypeToString(WlmEventType type);

/// One control-plane event.
struct WlmEvent {
  double time = 0.0;
  WlmEventType type = WlmEventType::kSubmitted;
  QueryId query = 0;
  std::string workload;
  std::string detail;
};

/// Bounded, append-only event log. Oldest events are evicted past
/// `max_events` (the total count keeps counting). The retained window is
/// the only record: OfType/ForQuery scan it, CountOf reads a per-type
/// count kept in step with appends and evictions, and InWindow binary
/// searches the (nondecreasing) event times.
class EventLog {
 public:
  explicit EventLog(size_t max_events = 1 << 16);

  void Append(WlmEvent event);
  void Clear();

  size_t size() const { return events_.size(); }
  int64_t total_appended() const { return total_; }
  const std::deque<WlmEvent>& events() const { return events_; }

  /// Events of one type, oldest first.
  std::vector<WlmEvent> OfType(WlmEventType type) const;
  /// Full history of one request, oldest first.
  std::vector<WlmEvent> ForQuery(QueryId id) const;
  /// Events with time in [begin, end).
  std::vector<WlmEvent> InWindow(double begin, double end) const;
  /// Count of events of `type` (within the retained window). O(1).
  int64_t CountOf(WlmEventType type) const {
    return retained_by_type_[static_cast<size_t>(type)];
  }

 private:
  size_t max_events_;
  int64_t total_ = 0;
  std::deque<WlmEvent> events_;
  std::array<int64_t, kWlmEventTypeCount> retained_by_type_{};
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_EVENT_LOG_H_
