#ifndef WLM_TELEMETRY_FEDERATION_TIMESERIES_STORE_H_
#define WLM_TELEMETRY_FEDERATION_TIMESERIES_STORE_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/time_series.h"  // TimePoint

namespace wlm {

/// Bounded in-memory time-series store: one fixed-size ring per series,
/// sampled on the sim clock. Old points are overwritten once a ring
/// fills (fixed retention), so memory is O(series * retention) no matter
/// how long the run is. Iteration order over series is the sorted name
/// order, and all text output uses fixed-precision formatting, so the
/// store participates in the byte-identical determinism contract.
class TimeSeriesStore {
 public:
  /// `retention_points` is the per-series ring capacity (min 1).
  explicit TimeSeriesStore(size_t retention_points = 600);

  size_t retention_points() const { return retention_points_; }

  /// Appends one point to `name`'s ring, evicting the oldest when full.
  /// Allocates only for a series' first point.
  void Sample(std::string_view name, double time, double value);

  /// Oldest-to-newest points currently retained for `name` (empty when
  /// the series is unknown).
  std::vector<TimePoint> Points(const std::string& name) const;

  /// Points with `time` in [from, to], oldest first.
  std::vector<TimePoint> Window(const std::string& name, double from,
                                double to) const;

  /// Most recent point, or {0,0} + false when the series is empty.
  bool Latest(const std::string& name, TimePoint* out) const;

  /// value(newest) - value(oldest point with time >= from); 0 when fewer
  /// than two points fall in the window. The burn-rate primitive for
  /// cumulative (counter-shaped) series; allocates nothing.
  double DeltaSince(std::string_view name, double from) const;

  /// Sorted names of every tracked series.
  std::vector<std::string> SeriesNames() const;

  /// Total points dropped to eviction across all series.
  int64_t evicted() const { return evicted_; }

  /// One JSON object per retained point:
  /// {"series":...,"t":...,"value":...} — series in name order, points
  /// oldest first, %.6f times/values. Byte-stable for same-seed runs.
  void WriteJsonl(std::ostream& out) const;

  /// Fixed-width ASCII sparkline of `name` over [from, to]: one char per
  /// column, scaled into " .:-=+*#%@". Empty series renders all spaces.
  std::string FormatAscii(const std::string& name, double from, double to,
                          int width = 60) const;

 private:
  struct Ring {
    std::vector<TimePoint> points;  // capacity retention_points_
    size_t head = 0;                // next write slot once full
    size_t count = 0;
  };

  /// The ring's i-th point, oldest first.
  static const TimePoint& At(const Ring& ring, size_t i) {
    return ring.points[(ring.head + i) % ring.count];
  }
  /// Oldest-first copy of the ring contents.
  std::vector<TimePoint> Ordered(const Ring& ring) const;

  size_t retention_points_;
  std::map<std::string, Ring, std::less<>> series_;
  int64_t evicted_ = 0;
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_FEDERATION_TIMESERIES_STORE_H_
