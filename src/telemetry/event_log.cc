#include "telemetry/event_log.h"

#include <algorithm>

namespace wlm {

const char* WlmEventTypeToString(WlmEventType type) {
  switch (type) {
    case WlmEventType::kSubmitted:
      return "submitted";
    case WlmEventType::kRejected:
      return "rejected";
    case WlmEventType::kDispatched:
      return "dispatched";
    case WlmEventType::kCompleted:
      return "completed";
    case WlmEventType::kKilled:
      return "killed";
    case WlmEventType::kAborted:
      return "aborted";
    case WlmEventType::kResubmitted:
      return "resubmitted";
    case WlmEventType::kSuspended:
      return "suspended";
    case WlmEventType::kResumed:
      return "resumed";
    case WlmEventType::kThrottled:
      return "throttled";
    case WlmEventType::kPaused:
      return "paused";
    case WlmEventType::kReprioritized:
      return "reprioritized";
    case WlmEventType::kSloViolation:
      return "slo_violation";
    case WlmEventType::kFaultInjected:
      return "fault_injected";
    case WlmEventType::kFaultRecovered:
      return "fault_recovered";
    case WlmEventType::kShed:
      return "shed";
    case WlmEventType::kRetryDenied:
      return "retry_denied";
    case WlmEventType::kBreakerTripped:
      return "breaker_tripped";
    case WlmEventType::kBreakerHalfOpen:
      return "breaker_half_open";
    case WlmEventType::kBreakerClosed:
      return "breaker_closed";
    case WlmEventType::kBrownoutStepped:
      return "brownout_stepped";
    case WlmEventType::kShardDown:
      return "shard_down";
    case WlmEventType::kShardRecovered:
      return "shard_recovered";
    case WlmEventType::kHedged:
      return "hedged";
  }
  return "?";
}

EventLog::EventLog(size_t max_events) : max_events_(max_events) {}

void EventLog::Append(WlmEvent event) {
  ++total_;
  ++retained_by_type_[static_cast<size_t>(event.type)];
  events_.push_back(std::move(event));
  while (events_.size() > max_events_) {
    --retained_by_type_[static_cast<size_t>(events_.front().type)];
    events_.pop_front();
  }
}

void EventLog::Clear() {
  events_.clear();
  retained_by_type_.fill(0);
}

std::vector<WlmEvent> EventLog::OfType(WlmEventType type) const {
  std::vector<WlmEvent> out;
  out.reserve(static_cast<size_t>(CountOf(type)));
  for (const WlmEvent& event : events_) {
    if (event.type == type) out.push_back(event);
  }
  return out;
}

std::vector<WlmEvent> EventLog::ForQuery(QueryId id) const {
  std::vector<WlmEvent> out;
  for (const WlmEvent& event : events_) {
    if (event.query == id) out.push_back(event);
  }
  return out;
}

std::vector<WlmEvent> EventLog::InWindow(double begin, double end) const {
  auto lo = std::lower_bound(
      events_.begin(), events_.end(), begin,
      [](const WlmEvent& e, double t) { return e.time < t; });
  auto hi = std::lower_bound(
      lo, events_.end(), end,
      [](const WlmEvent& e, double t) { return e.time < t; });
  return std::vector<WlmEvent>(lo, hi);
}

}  // namespace wlm
