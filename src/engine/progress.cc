#include "engine/progress.h"

#include <algorithm>

namespace wlm {
namespace {
constexpr double kNoProgressEstimate = 1e18;
}

ProgressTracker::ProgressTracker(double io_ops_per_second, size_t window)
    : io_rate_(io_ops_per_second), window_(window) {}

void ProgressTracker::Observe(const ExecutionProgress& progress, double now) {
  auto& samples = history_[progress.id];
  samples.push_back(
      Sample{now, progress.cpu_used + progress.io_used / io_rate_});
  while (samples.size() > window_) samples.pop_front();
}

void ProgressTracker::Forget(QueryId id) { history_.erase(id); }

double ProgressTracker::EstimateRemainingSeconds(
    const ExecutionProgress& progress) const {
  double remaining_work =
      progress.remaining_cpu + progress.remaining_io / io_rate_;
  if (remaining_work <= 0.0) return 0.0;

  auto it = history_.find(progress.id);
  double speed = 0.0;
  if (it != history_.end() && it->second.size() >= 2) {
    const Sample& oldest = it->second.front();
    const Sample& newest = it->second.back();
    double dt = newest.time - oldest.time;
    if (dt > 0.0) speed = (newest.work_done - oldest.work_done) / dt;
  }
  if (speed <= 0.0 && progress.elapsed > 0.0) {
    // Lifetime average fallback.
    speed = (progress.cpu_used + progress.io_used / io_rate_) /
            progress.elapsed;
  }
  if (speed <= 0.0) return kNoProgressEstimate;
  return remaining_work / speed;
}

}  // namespace wlm
