#ifndef WLM_ENGINE_PROGRESS_H_
#define WLM_ENGINE_PROGRESS_H_

#include <deque>
#include <unordered_map>

#include "engine/execution.h"
#include "engine/types.h"

namespace wlm {

/// Query progress indicator (GSLPI-style [43], Luo et al. [45]): tracks the
/// observed processing speed of each running query and continuously
/// estimates remaining execution time as remaining-work / recent-speed.
/// The paper highlights progress indicators as the automation that replaces
/// manually set execution-time thresholds in execution control.
class ProgressTracker {
 public:
  /// `io_ops_per_second` normalizes I/O into work units;
  /// `window` is how many recent observations form the "current speed".
  explicit ProgressTracker(double io_ops_per_second, size_t window = 8);

  /// Feeds one monitor sample for a running query.
  void Observe(const ExecutionProgress& progress, double now);
  /// Drops state for a finished query.
  void Forget(QueryId id);

  /// Estimated seconds until completion; falls back to the lifetime
  /// average speed when the window is too fresh, and to +inf (a very large
  /// number) when the query has made no progress at all.
  double EstimateRemainingSeconds(const ExecutionProgress& progress) const;

  size_t tracked_count() const { return history_.size(); }

 private:
  struct Sample {
    double time;
    double work_done;  // cpu_used + io_used / io_rate
  };

  double io_rate_;
  size_t window_;
  std::unordered_map<QueryId, std::deque<Sample>> history_;
};

}  // namespace wlm

#endif  // WLM_ENGINE_PROGRESS_H_
