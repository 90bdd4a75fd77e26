#ifndef WLM_TELEMETRY_EVENT_LOG_H_
#define WLM_TELEMETRY_EVENT_LOG_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ranges>
#include <string>
#include <string_view>
#include <vector>

#include "engine/types.h"

namespace wlm {

/// Control-plane event kinds recorded by the workload manager. This is
/// the library's analogue of the commercial products' event monitors
/// (DB2's activity and threshold-violation monitors, SQL Server's
/// Resource Governor events, Teradata's exception logging).
enum class WlmEventType : uint8_t {
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

/// One control-plane event, as the log's views render it.
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
/// The window is a ring of fixed-size records: time, query, type, an
/// interned workload name and a text reference. An event with a detail
/// keeps it in a second ring of strings, advanced in event order, so
/// evicting an event evicts its text; a slot's string keeps its capacity.
/// Both rings grow in blocks of kBlockEvents up to the bound (never past
/// it, so a short run pays only for what it logs). The views render
/// WlmEvents from the records.
class EventLog {
 public:
  static constexpr size_t kBlockEvents = 256;
  /// A workload name's index in the log's table.
  using WorkloadRef = uint16_t;

  explicit EventLog(size_t max_events = 1 << 16);

  /// The reference of `name`, interned on first use. A caller that logs
  /// per query keeps the reference, so its appends compare no strings.
  WorkloadRef InternWorkload(std::string_view name);
  /// Appends one event; a non-empty `detail` is copied into the text ring.
  void Append(double time, WlmEventType type, QueryId query,
              WorkloadRef workload, std::string_view detail = {});
  void Append(const WlmEvent& event);
  void Clear();

  size_t size() const { return size_; }
  int64_t total_appended() const { return total_; }
  /// The retained window, oldest first, rendered: a random-access view
  /// (range-for, size(), front(), operator[]) of WlmEvent values that
  /// stays valid until the next append.
  auto events() const {
    return std::views::iota(size_t{0}, size_) |
           std::views::transform([this](size_t i) { return Render(i); });
  }
  /// Calls `fn(time, type, query, workload, detail)` on each retained
  /// event, oldest first, its texts as views into the log: what the
  /// exporters read, without rendering a WlmEvent.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < size_; ++i) {
      const Record& r = records_.At(Physical(i));
      fn(r.time, static_cast<WlmEventType>(r.type), r.query,
         std::string_view(workloads_[r.workload]), Detail(r));
    }
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
  static constexpr uint32_t kNoText = UINT32_MAX;

  struct Record {
    double time = 0.0;
    QueryId query = 0;
    uint32_t text = kNoText;  // physical slot in texts_, or kNoText
    WorkloadRef workload = 0;
    uint8_t type = 0;
  };

  /// Slots of a ring of at most `capacity` entries, allocated in blocks of
  /// kBlockEvents as positions are first written. Positions are written
  /// in ring order, so blocks are allocated in order too.
  template <typename T>
  class Blocks {
   public:
    T& At(size_t p) const {
      return blocks_[p / kBlockEvents][p % kBlockEvents];
    }
    T& Write(size_t p, size_t capacity) {
      if (p / kBlockEvents == blocks_.size()) {
        blocks_.push_back(std::make_unique<T[]>(
            std::min(kBlockEvents, capacity - p)));
      }
      return At(p);
    }

   private:
    std::vector<std::unique_ptr<T[]>> blocks_;
  };

  size_t Physical(size_t i) const { return Wrap(head_ + i); }
  size_t Wrap(size_t p) const { return p >= max_events_ ? p - max_events_ : p; }
  std::string_view Detail(const Record& r) const {
    return r.text == kNoText ? std::string_view() : texts_.At(r.text);
  }
  /// The i-th retained event, oldest first.
  WlmEvent Render(size_t i) const { return Render(records_.At(Physical(i))); }
  WlmEvent Render(const Record& r) const;

  size_t max_events_;
  int64_t total_ = 0;
  std::vector<std::string> workloads_;
  Blocks<Record> records_;
  size_t head_ = 0;  // physical index of the oldest event
  size_t size_ = 0;
  Blocks<std::string> texts_;
  size_t text_head_ = 0;  // physical index of the oldest retained text
  size_t text_size_ = 0;
  std::array<int64_t, kWlmEventTypeCount> retained_by_type_{};
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_EVENT_LOG_H_
