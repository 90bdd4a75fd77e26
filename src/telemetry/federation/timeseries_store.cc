#include "telemetry/federation/timeseries_store.h"

#include <algorithm>
#include <cstdio>

namespace wlm {

namespace {

std::string F6(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

}  // namespace

TimeSeriesStore::TimeSeriesStore(size_t retention_points)
    : retention_points_(retention_points < 1 ? 1 : retention_points) {}

void TimeSeriesStore::Sample(std::string_view name, double time,
                             double value) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(std::string(name), Ring{}).first;
    it->second.points.reserve(retention_points_);
  }
  Ring& ring = it->second;
  if (ring.count < retention_points_) {
    ring.points.push_back({time, value});
    ++ring.count;
    return;
  }
  ring.points[ring.head] = {time, value};
  ring.head = (ring.head + 1) % retention_points_;
  ++evicted_;
}

std::vector<TimePoint> TimeSeriesStore::Ordered(const Ring& ring) const {
  std::vector<TimePoint> out;
  out.reserve(ring.count);
  for (size_t i = 0; i < ring.count; ++i) out.push_back(At(ring, i));
  return out;
}

std::vector<TimePoint> TimeSeriesStore::Points(const std::string& name) const {
  auto it = series_.find(name);
  if (it == series_.end()) return {};
  return Ordered(it->second);
}

std::vector<TimePoint> TimeSeriesStore::Window(const std::string& name,
                                               double from, double to) const {
  std::vector<TimePoint> out;
  for (const TimePoint& p : Points(name)) {
    if (p.time >= from && p.time <= to) out.push_back(p);
  }
  return out;
}

bool TimeSeriesStore::Latest(const std::string& name, TimePoint* out) const {
  auto it = series_.find(name);
  if (it == series_.end() || it->second.count == 0) return false;
  *out = At(it->second, it->second.count - 1);
  return true;
}

double TimeSeriesStore::DeltaSince(std::string_view name, double from) const {
  auto it = series_.find(name);
  if (it == series_.end()) return 0.0;
  const Ring& ring = it->second;
  // The oldest point in the window; the newest alone spans no interval.
  for (size_t i = 0; i + 1 < ring.count; ++i) {
    if (At(ring, i).time >= from) {
      return At(ring, ring.count - 1).value - At(ring, i).value;
    }
  }
  return 0.0;
}

std::vector<std::string> TimeSeriesStore::SeriesNames() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, ring] : series_) names.push_back(name);
  return names;
}

void TimeSeriesStore::WriteJsonl(std::ostream& out) const {
  for (const auto& [name, ring] : series_) {
    for (const TimePoint& p : Ordered(ring)) {
      out << "{\"series\":\"" << name << "\",\"t\":" << F6(p.time)
          << ",\"value\":" << F6(p.value) << "}\n";
    }
  }
}

std::string TimeSeriesStore::FormatAscii(const std::string& name, double from,
                                         double to, int width) const {
  static const char kLevels[] = " .:-=+*#%@";
  if (width < 1) width = 1;
  std::string line(static_cast<size_t>(width), ' ');
  std::vector<TimePoint> points = Window(name, from, to);
  if (points.empty() || to <= from) return line;
  double lo = points.front().value;
  double hi = lo;
  for (const TimePoint& p : points) {
    lo = std::min(lo, p.value);
    hi = std::max(hi, p.value);
  }
  const double span = to - from;
  const double range = hi - lo;
  for (const TimePoint& p : points) {
    int col = static_cast<int>((p.time - from) / span * (width - 1));
    col = std::clamp(col, 0, width - 1);
    int level =
        range > 0.0
            ? static_cast<int>((p.value - lo) / range * 9.0)
            : (hi > 0.0 ? 9 : 0);
    level = std::clamp(level, 0, 9);
    // Last sample in a column wins; samples arrive oldest-first so the
    // newest value represents the slot.
    line[static_cast<size_t>(col)] = kLevels[level];
  }
  return line;
}

}  // namespace wlm
