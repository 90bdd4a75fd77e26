#include "telemetry/event_log.h"

#include <algorithm>
#include <iterator>

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

void EventLog::Append(const WlmEvent& event) {
  ++total_;
  if (max_events_ == 0) return;
  ++retained_by_type_[static_cast<size_t>(event.type)];
  size_t p;
  if (size_ < max_events_) {
    // Not full yet, so head_ is 0 and the ring has not wrapped.
    if (size_ == allocated_) {
      const size_t block = std::min(kBlockEvents, max_events_ - allocated_);
      blocks_.push_back(std::make_unique<WlmEvent[]>(block));
      allocated_ += block;
    }
    p = Physical(size_++);
  } else {
    p = head_;
    --retained_by_type_[static_cast<size_t>(Slot(p).type)];
    head_ = Physical(1);
  }
  Slot(p) = event;
}

void EventLog::Clear() {
  head_ = 0;
  size_ = 0;
  retained_by_type_.fill(0);
}

std::vector<WlmEvent> EventLog::OfType(WlmEventType type) const {
  std::vector<WlmEvent> out;
  out.reserve(static_cast<size_t>(CountOf(type)));
  for (const WlmEvent& event : events()) {
    if (event.type == type) out.push_back(event);
  }
  return out;
}

std::vector<WlmEvent> EventLog::ForQuery(QueryId id) const {
  std::vector<WlmEvent> out;
  for (const WlmEvent& event : events()) {
    if (event.query == id) out.push_back(event);
  }
  return out;
}

std::vector<WlmEvent> EventLog::InWindow(double begin, double end) const {
  const auto window = events();
  const auto lo = std::ranges::lower_bound(window, begin, {}, &WlmEvent::time);
  const auto hi =
      std::ranges::lower_bound(lo, window.end(), end, {}, &WlmEvent::time);
  std::vector<WlmEvent> out;
  out.reserve(static_cast<size_t>(hi - lo));
  std::ranges::copy(lo, hi, std::back_inserter(out));
  return out;
}

}  // namespace wlm
