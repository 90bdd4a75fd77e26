#ifndef WLM_TELEMETRY_FLIGHT_RECORDER_H_
#define WLM_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/event_log.h"
#include "telemetry/profile.h"

namespace wlm {

/// Controller-plane state at the instant a post-mortem fires, read by the
/// Telemetry facade from the gauges its hooks already set.
struct ControllerStateSnapshot {
  double time = 0.0;
  bool degraded = false;       // graceful degradation in force
  int active_faults = 0;       // open fault windows
  int brownout_level = 0;      // current brownout shed level
  bool queue_lifo = false;     // CoDel discipline flipped to newest-first
  size_t queue_depth = 0;      // last monitor sample
  size_t running = 0;          // last monitor sample
  double cpu_utilization = 0.0;
  double io_utilization = 0.0;
  double memory_utilization = 0.0;
  /// Circuit breaker state per workload (0 closed, 1 half-open, 2 open).
  std::map<std::string, int> breaker_states;
};

/// One black-box dump: why it fired, what the controllers looked like, the
/// last terminal profiles and the last control-plane events.
struct PostMortem {
  double time = 0.0;
  std::string reason;
  ControllerStateSnapshot state;
  std::vector<QueryProfile> recent_profiles;  // oldest first
  std::vector<WlmEvent> recent_events;        // oldest first
};

/// The black-box flight recorder: when an anomaly trigger fires (SLO
/// watchdog violation, circuit breaker opening, fault window beginning,
/// shard declared dead), it copies the newest terminal profiles from the
/// profile store, the event-log tail and the controller state into a
/// deterministic post-mortem. It keeps nothing between dumps but the dumps
/// themselves. Purely passive: it never schedules events and records only
/// simulated time.
class FlightRecorder {
 public:
  struct Options {
    /// Newest terminal profiles captured per dump.
    size_t max_profiles = 128;
    /// Dumps retained; once full further triggers only count.
    size_t max_postmortems = 8;
    /// Minimum sim-seconds between dumps (dedups trigger storms: one
    /// brownout step per sample would otherwise dump every sample).
    double cooldown_seconds = 1.0;
  };

  FlightRecorder();
  explicit FlightRecorder(Options options);

  /// Anomaly trigger. Captures a post-mortem unless within the cooldown
  /// window of the previous dump or the dump budget is spent; every call
  /// is counted either way.
  void Trigger(const std::string& reason,
               const ControllerStateSnapshot& state,
               const ProfileStore& profiles, const EventLog& log);

  const std::vector<PostMortem>& postmortems() const { return postmortems_; }
  int64_t triggers_seen() const { return triggers_seen_; }
  int64_t triggers_suppressed() const { return triggers_suppressed_; }

  /// Machine-readable dump: one JSON object per line — a "postmortem"
  /// header, then its "profile" and "event" rows. Deterministic (fixed
  /// formatting, map-ordered breaker states).
  void WriteJsonl(std::ostream& out) const;
  /// Human-readable dump of the same content.
  void WriteAscii(std::ostream& out) const;

 private:
  Options options_;
  std::vector<PostMortem> postmortems_;
  int64_t triggers_seen_ = 0;
  int64_t triggers_suppressed_ = 0;
  double last_dump_time_ = -1.0;
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_FLIGHT_RECORDER_H_
