#ifndef WLM_SCHEDULING_MPL_SCHEDULER_H_
#define WLM_SCHEDULING_MPL_SCHEDULER_H_

#include "common/stats.h"
#include "scheduling/queue_schedulers.h"

namespace wlm {

/// Feedback MPL scheduler in the spirit of Schroeder et al. [69]: instead
/// of a manually set, static MPL, the concurrency level is adjusted by a
/// feedback controller to the lowest value that keeps throughput near its
/// peak while holding response times near a target: a PriorityScheduler
/// whose MPL adapts.
class FeedbackMplScheduler : public PriorityScheduler {
 public:
  struct Config {
    int initial_mpl = 8;
    int min_mpl = 1;
    int max_mpl = 512;
    /// Target mean response time across workloads; <= 0 switches to pure
    /// throughput hill-climbing (Heiss-Wagner style at the scheduler).
    double target_response_seconds = 0.0;
    /// Hysteresis band around the target (fractional).
    double band = 0.15;
  };

  FeedbackMplScheduler();
  explicit FeedbackMplScheduler(Config config);

  void OnSample(const SystemIndicators& indicators,
                WorkloadManager& manager) override;
  TechniqueInfo info() const override;

  int current_mpl() const { return mpl(); }

 private:
  Config config_;
  int direction_ = 1;
  double last_throughput_ = -1.0;
  Ewma smoothed_throughput_{0.5};
};

}  // namespace wlm

#endif  // WLM_SCHEDULING_MPL_SCHEDULER_H_
