#include "scheduling/mpl_scheduler.h"

#include <algorithm>

#include "core/workload_manager.h"

namespace wlm {
namespace {

/// Hysteresis band around the response-time target (fractional).
constexpr double kBand = 0.15;

}  // namespace

FeedbackMplScheduler::FeedbackMplScheduler()
    : FeedbackMplScheduler(Config()) {}

FeedbackMplScheduler::FeedbackMplScheduler(Config config)
    : PriorityScheduler(config.initial_mpl), config_(config) {}

void FeedbackMplScheduler::OnSample(const SystemIndicators& indicators,
                                    WorkloadManager& manager) {
  if (config_.target_response_seconds > 0.0) {
    // Response-time tracking mode: average the smoothed recent response
    // across workloads that have one.
    double sum = 0.0;
    int n = 0;
    for (const auto& [tag, stats] : manager.monitor()->all_tag_stats()) {
      (void)tag;
      if (!stats.recent_response.empty()) {
        sum += stats.recent_response.value();
        ++n;
      }
    }
    if (n == 0) return;
    double response = sum / n;
    double hi = config_.target_response_seconds * (1.0 + kBand);
    double lo = config_.target_response_seconds * (1.0 - kBand);
    if (response > hi) {
      set_mpl(std::max(config_.min_mpl, mpl() - 1));
    } else if (response < lo) {
      set_mpl(std::min(config_.max_mpl, mpl() + 1));
    }
    return;
  }
  // Throughput hill-climbing mode.
  smoothed_throughput_.Add(indicators.throughput);
  double throughput = smoothed_throughput_.value();
  if (last_throughput_ >= 0.0) {
    if (throughput < last_throughput_ * 0.98) direction_ = -direction_;
    set_mpl(std::clamp(mpl() + direction_, config_.min_mpl, config_.max_mpl));
  }
  last_throughput_ = throughput;
}

TechniqueInfo FeedbackMplScheduler::info() const {
  TechniqueInfo info;
  info.name = "Feedback MPL scheduler";
  info.technique_class = TechniqueClass::kScheduling;
  info.subclass = TechniqueSubclass::kQueueManagement;
  info.description =
      "Adapts the multi-programming level with a feedback controller "
      "instead of a static threshold, dispatching by priority within it.";
  info.source = "Schroeder et al. [69][70]";
  return info;
}

}  // namespace wlm
