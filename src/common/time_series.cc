#include "common/time_series.h"

#include <algorithm>

namespace wlm {

void TimeSeries::Record(double time, double value) {
  points_.push_back({time, value});
  stats_.Add(value);
}

double TimeSeries::MeanInWindow(double t_begin, double t_end) const {
  OnlineStats window;
  for (const TimePoint& p : points_) {
    if (p.time >= t_begin && p.time < t_end) window.Add(p.value);
  }
  return window.mean();
}

double TimeSeries::SettlingTime(double lo, double hi) const {
  double settle = -1.0;
  for (const TimePoint& p : points_) {
    bool inside = p.value >= lo && p.value <= hi;
    if (inside) {
      if (settle < 0.0) settle = p.time;
    } else {
      settle = -1.0;
    }
  }
  return settle;
}

std::vector<TimePoint> TimeSeries::Downsample(size_t max_points) const {
  if (points_.size() <= max_points || max_points == 0) return points_;
  std::vector<TimePoint> out;
  out.reserve(max_points);
  double stride = static_cast<double>(points_.size()) /
                  static_cast<double>(max_points);
  for (size_t i = 0; i < max_points; ++i) {
    size_t idx = std::min(points_.size() - 1,
                          static_cast<size_t>(static_cast<double>(i) * stride));
    out.push_back(points_[idx]);
  }
  out.back() = points_.back();
  return out;
}

}  // namespace wlm
