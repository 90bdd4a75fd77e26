#ifndef WLM_TELEMETRY_EVENT_LOG_H_
#define WLM_TELEMETRY_EVENT_LOG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ranges>
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
///
/// The window is a ring that grows in blocks of kBlockEvents up to the
/// bound (never past it, so a short run pays only for what it logs). Once
/// full, each append overwrites the oldest event in place, and its strings
/// keep their capacity.
class EventLog {
 public:
  static constexpr size_t kBlockEvents = 256;

  explicit EventLog(size_t max_events = 1 << 16);

  void Append(const WlmEvent& event);
  void Clear();

  size_t size() const { return size_; }
  int64_t total_appended() const { return total_; }
  /// The retained window, oldest first: a random-access view (range-for,
  /// size(), front(), operator[]) that stays valid until the next append.
  auto events() const {
    return std::views::iota(size_t{0}, size_) |
           std::views::transform(
               [this](size_t i) -> const WlmEvent& { return At(i); });
  }

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
  /// The i-th retained event, oldest first.
  const WlmEvent& At(size_t i) const { return Slot(Physical(i)); }
  size_t Physical(size_t i) const {
    const size_t p = head_ + i;
    return p >= max_events_ ? p - max_events_ : p;
  }
  WlmEvent& Slot(size_t p) const {
    return blocks_[p / kBlockEvents][p % kBlockEvents];
  }

  size_t max_events_;
  int64_t total_ = 0;
  std::vector<std::unique_ptr<WlmEvent[]>> blocks_;
  size_t allocated_ = 0;  // events the blocks hold, at most max_events_
  size_t head_ = 0;       // physical index of the oldest event
  size_t size_ = 0;
  std::array<int64_t, kWlmEventTypeCount> retained_by_type_{};
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_EVENT_LOG_H_
