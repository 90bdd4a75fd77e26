#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <cstdio>

#include "common/format.h"
#include "telemetry/exporters.h"

namespace wlm {

namespace {

/// Fixed-precision float rendering so dumps are byte-stable across runs.
std::string Num(double value) { return FormatFixed(value, 6); }

void WriteProfileJson(std::ostream& out, const QueryProfile& p) {
  out << "{\"type\":\"profile\",\"query\":" << p.id << ",\"workload\":\""
      << JsonEscape(p.workload) << "\",\"outcome\":\""
      << JsonEscape(p.outcome) << "\",\"detail\":\"" << JsonEscape(p.detail)
      << "\",\"arrival\":" << Num(p.arrival_time)
      << ",\"finish\":" << Num(p.finish_time)
      << ",\"wall\":" << Num(p.WallSeconds()) << ",\"phases\":{";
  for (size_t i = 0; i < kPhaseCount; ++i) {
    if (i > 0) out << ',';
    out << '"' << PhaseToString(static_cast<Phase>(i))
        << "\":" << Num(p.phase_seconds[i]);
  }
  out << "},\"resources\":{\"cpu_seconds\":" << Num(p.resources.cpu_seconds)
      << ",\"io_ops\":" << Num(p.resources.io_ops)
      << ",\"peak_memory_mb\":" << Num(p.resources.peak_memory_mb)
      << ",\"lock_hold_seconds\":" << Num(p.resources.lock_hold_seconds)
      << ",\"spill_factor\":" << Num(p.resources.spill_factor)
      << ",\"buffer_hit_ratio\":" << Num(p.resources.buffer_hit_ratio)
      << "},\"run_segments\":" << p.run_segments
      << ",\"explain\":\"" << JsonEscape(ExplainOutcome(p)) << "\"}\n";
}

}  // namespace

FlightRecorder::FlightRecorder() : FlightRecorder(Options()) {}

FlightRecorder::FlightRecorder(Options options) : options_(options) {}

void FlightRecorder::Trigger(const std::string& reason,
                             const ControllerStateSnapshot& state,
                             const ProfileStore& profiles,
                             const EventLog& log) {
  ++triggers_seen_;
  if (postmortems_.size() >= options_.max_postmortems ||
      (last_dump_time_ >= 0.0 &&
       state.time - last_dump_time_ < options_.cooldown_seconds)) {
    ++triggers_suppressed_;
    return;
  }
  last_dump_time_ = state.time;
  PostMortem dump;
  dump.time = state.time;
  dump.reason = reason;
  dump.state = state;
  dump.recent_profiles = profiles.RecentTerminal(options_.max_profiles);
  const auto events = log.events();
  const size_t take = std::min(log.size(), options_.max_events);
  dump.recent_events.reserve(take);
  for (size_t i = log.size() - take; i < log.size(); ++i) {
    dump.recent_events.push_back(events[i]);
  }
  postmortems_.push_back(std::move(dump));
}

void FlightRecorder::WriteJsonl(std::ostream& out) const {
  for (const PostMortem& dump : postmortems_) {
    out << "{\"type\":\"postmortem\",\"time\":" << Num(dump.time)
        << ",\"reason\":\"" << JsonEscape(dump.reason)
        << "\",\"state\":{\"degraded\":"
        << (dump.state.degraded ? "true" : "false")
        << ",\"active_faults\":" << dump.state.active_faults
        << ",\"brownout_level\":" << dump.state.brownout_level
        << ",\"queue_lifo\":" << (dump.state.queue_lifo ? "true" : "false")
        << ",\"queue_depth\":" << dump.state.queue_depth
        << ",\"running\":" << dump.state.running
        << ",\"cpu_utilization\":" << Num(dump.state.cpu_utilization)
        << ",\"io_utilization\":" << Num(dump.state.io_utilization)
        << ",\"memory_utilization\":" << Num(dump.state.memory_utilization)
        << ",\"breakers\":{";
    bool first = true;
    for (const auto& [workload, breaker_state] : dump.state.breaker_states) {
      if (!first) out << ',';
      first = false;
      out << '"' << JsonEscape(workload) << "\":" << breaker_state;
    }
    out << "}},\"profiles\":" << dump.recent_profiles.size()
        << ",\"events\":" << dump.recent_events.size() << "}\n";
    for (const QueryProfile& profile : dump.recent_profiles) {
      WriteProfileJson(out, profile);
    }
    for (const WlmEvent& event : dump.recent_events) {
      out << "{\"type\":\"event\",\"time\":" << Num(event.time)
          << ",\"event\":\"" << WlmEventTypeToString(event.type)
          << "\",\"query\":" << event.query << ",\"workload\":\""
          << JsonEscape(event.workload) << "\",\"detail\":\""
          << JsonEscape(event.detail) << "\"}\n";
    }
  }
}

void FlightRecorder::WriteAscii(std::ostream& out) const {
  if (postmortems_.empty()) {
    out << "flight recorder: no post-mortems captured\n";
    return;
  }
  for (const PostMortem& dump : postmortems_) {
    out << "== post-mortem @" << Num(dump.time) << "s reason=" << dump.reason
        << " ==\n";
    out << "state: degraded=" << (dump.state.degraded ? "yes" : "no")
        << " faults=" << dump.state.active_faults
        << " brownout=" << dump.state.brownout_level
        << " queue=" << dump.state.queue_depth
        << (dump.state.queue_lifo ? " (lifo)" : " (fifo)")
        << " running=" << dump.state.running
        << " cpu=" << Num(dump.state.cpu_utilization)
        << " io=" << Num(dump.state.io_utilization) << '\n';
    for (const auto& [workload, breaker_state] : dump.state.breaker_states) {
      out << "breaker: " << workload << " state=" << breaker_state << '\n';
    }
    out << "-- last " << dump.recent_profiles.size() << " profiles --\n";
    for (const QueryProfile& p : dump.recent_profiles) {
      out << "q" << p.id << " [" << p.workload << "] " << p.outcome
          << " wall=" << Num(p.WallSeconds()) << "s";
      Phase dominant = p.DominantPhase();
      if (p.PhaseSum() > 0.0) {
        char share[48];
        std::snprintf(share, sizeof(share), " %s=%.0f%%",
                      PhaseToString(dominant),
                      p.PhaseShare(dominant) * 100.0);
        out << share;
      }
      out << " | " << ExplainOutcome(p) << '\n';
    }
    out << "-- last " << dump.recent_events.size() << " events --\n";
    for (const WlmEvent& event : dump.recent_events) {
      out << Num(event.time) << ' ' << WlmEventTypeToString(event.type)
          << " q" << event.query;
      if (!event.workload.empty()) out << " [" << event.workload << ']';
      if (!event.detail.empty()) out << ' ' << event.detail;
      out << '\n';
    }
  }
}

}  // namespace wlm
