#ifndef WLM_COMMON_TIME_SERIES_H_
#define WLM_COMMON_TIME_SERIES_H_

#include <string>
#include <vector>

#include "common/stats.h"

namespace wlm {

/// One (time, value) observation.
struct TimePoint {
  double time = 0.0;
  double value = 0.0;
};

/// Append-only record of a named metric over simulated time. The monitor
/// publishes one of these per metric; benches print them as the paper-style
/// series.
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void Record(double time, double value);

  const std::string& name() const { return name_; }
  const std::vector<TimePoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  size_t size() const { return points_.size(); }
  double last_value() const { return points_.empty() ? 0.0 : points_.back().value; }

  /// Summary over all recorded values.
  const OnlineStats& stats() const { return stats_; }

  /// Mean of values with time in [t_begin, t_end). Used to compare steady
  /// state windows (e.g., before/after a controller engages).
  double MeanInWindow(double t_begin, double t_end) const;

  /// First time at which the value enters [lo, hi] and stays inside it for
  /// all subsequent points; returns -1 if never. This is the "settling
  /// time" measure for the throttling-controller benches.
  double SettlingTime(double lo, double hi) const;

  /// Downsamples to at most `max_points` evenly spaced points (for compact
  /// bench output).
  std::vector<TimePoint> Downsample(size_t max_points) const;

 private:
  std::string name_;
  std::vector<TimePoint> points_;
  OnlineStats stats_;
};

}  // namespace wlm

#endif  // WLM_COMMON_TIME_SERIES_H_
