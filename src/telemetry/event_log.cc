#include "telemetry/event_log.h"

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

EventLog::WorkloadRef EventLog::InternWorkload(std::string_view name) {
  for (size_t ref = 0; ref < workloads_.size(); ++ref) {
    if (workloads_[ref] == name) return static_cast<WorkloadRef>(ref);
  }
  workloads_.emplace_back(name);
  return static_cast<WorkloadRef>(workloads_.size() - 1);
}

void EventLog::Append(double time, WlmEventType type, QueryId query,
                      WorkloadRef workload, std::string_view detail) {
  ++total_;
  if (max_events_ == 0) return;
  ++retained_by_type_[static_cast<size_t>(type)];
  size_t p;
  if (size_ < max_events_) {
    // Not full yet, so head_ is 0 and the ring has not wrapped.
    p = size_++;
  } else {
    p = head_;
    const Record& evicted = records_.At(p);
    --retained_by_type_[evicted.type];
    if (evicted.text != kNoText) {
      text_head_ = Wrap(text_head_ + 1);
      --text_size_;
    }
    head_ = Physical(1);
  }
  Record& record = records_.Write(p, max_events_);
  record = {time, query, kNoText, workload, static_cast<uint8_t>(type)};
  if (!detail.empty()) {
    // At most one text per retained event, so the text ring never fills
    // past the event ring.
    const size_t t = Wrap(text_head_ + text_size_++);
    texts_.Write(t, max_events_).assign(detail);
    record.text = static_cast<uint32_t>(t);
  }
}

void EventLog::Append(const WlmEvent& event) {
  Append(event.time, event.type, event.query, InternWorkload(event.workload),
         event.detail);
}

void EventLog::Clear() {
  head_ = 0;
  size_ = 0;
  text_head_ = 0;
  text_size_ = 0;
  retained_by_type_.fill(0);
}

WlmEvent EventLog::Render(const Record& r) const {
  return {r.time, static_cast<WlmEventType>(r.type), r.query,
          workloads_[r.workload], std::string(Detail(r))};
}

std::vector<WlmEvent> EventLog::OfType(WlmEventType type) const {
  std::vector<WlmEvent> out;
  out.reserve(static_cast<size_t>(CountOf(type)));
  for (size_t i = 0; i < size_; ++i) {
    const Record& r = records_.At(Physical(i));
    if (r.type == static_cast<uint8_t>(type)) out.push_back(Render(r));
  }
  return out;
}

std::vector<WlmEvent> EventLog::ForQuery(QueryId id) const {
  std::vector<WlmEvent> out;
  for (size_t i = 0; i < size_; ++i) {
    const Record& r = records_.At(Physical(i));
    if (r.query == id) out.push_back(Render(r));
  }
  return out;
}

std::vector<WlmEvent> EventLog::InWindow(double begin, double end) const {
  const auto positions = std::views::iota(size_t{0}, size_);
  const auto time = [this](size_t i) { return records_.At(Physical(i)).time; };
  const auto lo = std::ranges::lower_bound(positions, begin, {}, time);
  const auto hi = std::ranges::lower_bound(lo, positions.end(), end, {}, time);
  std::vector<WlmEvent> out;
  out.reserve(static_cast<size_t>(hi - lo));
  for (auto it = lo; it != hi; ++it) out.push_back(Render(*it));
  return out;
}

}  // namespace wlm
