#ifndef WLM_ENGINE_MONITOR_H_
#define WLM_ENGINE_MONITOR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/time_series.h"
#include "engine/engine.h"
#include "sim/simulation.h"

namespace wlm {

/// Point-in-time system health snapshot: the "monitor metrics" / performance
/// indicators the indicator-based admission controller [79][80] thresholds
/// on, and the inputs of every feedback controller.
struct SystemIndicators {
  double time = 0.0;
  double cpu_utilization = 0.0;
  double io_utilization = 0.0;
  double memory_utilization = 0.0;
  double conflict_ratio = 1.0;
  int running_queries = 0;
  int blocked_queries = 0;
  /// Completions per second over the last monitor interval (all tags).
  double throughput = 0.0;
};

/// Per-tag completion statistics.
struct TagStats {
  int64_t completed = 0;
  int64_t killed = 0;
  int64_t aborted = 0;
  Percentiles response_times;
  OnlineStats velocities;
  /// Completions within the current monitor interval (reset each sample).
  int64_t interval_completed = 0;
  double last_interval_throughput = 0.0;
  /// Smoothed recent behaviour — what the feedback controllers steer on.
  Ewma recent_response{0.25};
  Ewma recent_velocity{0.25};
};

/// Samples the engine every `interval` simulated seconds and accumulates
/// per-workload ("tag") completion statistics. This is the Monitor of the
/// paper's MAPE loop and the data source for the DB2-style monitoring
/// stage; all workload-management controllers read the system through it.
class Monitor {
 public:
  Monitor(Simulation* sim, DatabaseEngine* engine, double interval = 1.0);
  ~Monitor();
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  void Start();
  void Stop();
  double interval() const { return interval_; }

  /// Records a finished request: `response_seconds` is arrival-to-finish
  /// (queue wait included) and `velocity` is the paper's execution-velocity
  /// metric (expected standalone time / actual time, in (0, 1]).
  void RecordCompletion(const std::string& tag, double response_seconds,
                        double velocity, OutcomeKind kind);

  /// Most recent indicator sample (also recomputed on demand).
  SystemIndicators indicators() const;

  /// Per-tag statistics; creates an empty entry when absent.
  TagStats& tag_stats(const std::string& tag);
  const std::map<std::string, TagStats>& all_tag_stats() const {
    return tags_;
  }

  /// Named time series recorded at each sample: "cpu_util", "io_util",
  /// "mem_util", "conflict_ratio", "running", "throughput", and
  /// "throughput:<tag>" per tag.
  const TimeSeries* FindSeries(const std::string& name) const;
  TimeSeries& series(const std::string& name);
  /// Every recorded series, keyed by name (exporters iterate this).
  const std::map<std::string, TimeSeries>& all_series() const {
    return series_;
  }

  /// Observer invoked at each sampling instant (controllers subscribe
  /// here). Observers run after the series are updated.
  void AddSampleListener(std::function<void(const SystemIndicators&)> fn);

 private:
  void Sample();

  Simulation* sim_;
  DatabaseEngine* engine_;
  double interval_;
  PeriodicTask task_;
  std::map<std::string, TagStats> tags_;
  std::map<std::string, TimeSeries> series_;
  std::vector<std::function<void(const SystemIndicators&)>> listeners_;
  int64_t completions_since_sample_ = 0;
  SystemIndicators last_;
};

}  // namespace wlm

#endif  // WLM_ENGINE_MONITOR_H_
