#include "admission/threshold_admission.h"

#include <algorithm>
#include <cmath>

#include "core/workload_manager.h"

namespace wlm {
namespace {

/// Lock conflict ratio above which IndicatorAdmission counts the system
/// as congested.
constexpr double kMaxConflictRatio = 1.3;

}  // namespace

QueryCostAdmission::QueryCostAdmission(Config config)
    : config_(std::move(config)) {}

double QueryCostAdmission::ThresholdFor(const Request& request) const {
  auto it = config_.per_workload_timerons.find(request.workload);
  if (it != config_.per_workload_timerons.end()) return it->second;
  return config_.max_timerons;
}

bool QueryCostAdmission::OverThreshold(const Request& request) const {
  if (request.plan.est_timerons > ThresholdFor(request)) return true;
  if (request.plan.est_elapsed_seconds > config_.max_est_seconds) return true;
  return false;
}

bool QueryCostAdmission::InOffpeakWindow(double now) const {
  if (config_.day_length <= 0.0) return false;
  double tod = std::fmod(now, config_.day_length);
  if (config_.offpeak_start <= config_.offpeak_end) {
    return tod >= config_.offpeak_start && tod < config_.offpeak_end;
  }
  // Window wraps midnight.
  return tod >= config_.offpeak_start || tod < config_.offpeak_end;
}

Status QueryCostAdmission::OnArrival(const Request& request,
                                     const WorkloadManager& manager) {
  (void)manager;
  if (!OverThreshold(request)) return Status::OK();
  if (config_.queue_instead_of_reject) return Status::OK();  // hold later
  ++rejected_;
  return Status::Rejected("estimated cost exceeds admission threshold");
}

bool QueryCostAdmission::AllowDispatch(const Request& request,
                                       const WorkloadManager& manager) {
  if (!config_.queue_instead_of_reject) return true;
  if (!OverThreshold(request)) return true;
  return InOffpeakWindow(manager.sim()->Now());
}

TechniqueInfo QueryCostAdmission::info() const {
  TechniqueInfo info;
  info.name = "Query cost threshold";
  info.technique_class = TechniqueClass::kAdmissionControl;
  info.subclass = TechniqueSubclass::kThresholdBasedAdmission;
  info.description =
      "Rejects (or holds for off-peak) arriving queries whose estimated "
      "cost exceeds the workload's admission threshold.";
  info.source = "DB2 [9], SQL Server Query Governor [50][51], Teradata [72]";
  return info;
}

MplAdmission::MplAdmission(Config config) : config_(std::move(config)) {}

bool MplAdmission::AllowDispatch(const Request& request,
                                 const WorkloadManager& manager) {
  if (config_.max_mpl > 0 &&
      static_cast<int>(manager.running_count()) >= config_.max_mpl) {
    return false;
  }
  auto it = config_.per_workload_mpl.find(request.workload);
  if (it != config_.per_workload_mpl.end() && it->second > 0 &&
      manager.RunningInWorkload(request.workload_id) >= it->second) {
    return false;
  }
  return true;
}

TechniqueInfo MplAdmission::info() const {
  TechniqueInfo info;
  info.name = "MPL threshold";
  info.technique_class = TechniqueClass::kAdmissionControl;
  info.subclass = TechniqueSubclass::kThresholdBasedAdmission;
  info.description =
      "Holds arrivals in the wait queue while the number of concurrently "
      "running requests has reached the multi-programming level.";
  info.source = "DB2 [9], SQL Server [50], Teradata throttles [72]";
  return info;
}

ConflictRatioAdmission::ConflictRatioAdmission(double critical_ratio)
    : critical_ratio_(critical_ratio) {}

bool ConflictRatioAdmission::AllowDispatch(const Request& request,
                                           const WorkloadManager& manager) {
  (void)request;
  if (manager.engine()->ConflictRatio() > critical_ratio_) return false;
  return true;
}

TechniqueInfo ConflictRatioAdmission::info() const {
  TechniqueInfo info;
  info.name = "Conflict ratio threshold";
  info.technique_class = TechniqueClass::kAdmissionControl;
  info.subclass = TechniqueSubclass::kThresholdBasedAdmission;
  info.description =
      "Suspends the admission of new transactions while the lock "
      "conflict ratio exceeds the critical threshold.";
  info.source = "Moenkeberg & Weikum [56]";
  return info;
}

ThroughputFeedbackAdmission::ThroughputFeedbackAdmission()
    : ThroughputFeedbackAdmission(Config()) {}

ThroughputFeedbackAdmission::ThroughputFeedbackAdmission(Config config)
    : config_(config), mpl_(config.initial_mpl) {}

bool ThroughputFeedbackAdmission::AllowDispatch(
    const Request& request, const WorkloadManager& manager) {
  (void)request;
  return static_cast<int>(manager.running_count()) < mpl_;
}

void ThroughputFeedbackAdmission::OnSample(const SystemIndicators& indicators,
                                           WorkloadManager& manager) {
  (void)manager;
  smoothed_.Add(indicators.throughput);
  double throughput = smoothed_.value();
  if (last_throughput_ >= 0.0) {
    double delta = throughput - last_throughput_;
    double threshold = config_.tolerance * std::max(last_throughput_, 1e-9);
    if (delta < -threshold) {
      // Throughput fell: reverse course.
      direction_ = -direction_;
    }
    // Rising or flat: keep pushing in the current direction.
    mpl_ = std::clamp(mpl_ + direction_, config_.min_mpl, config_.max_mpl);
  }
  last_throughput_ = throughput;
}

TechniqueInfo ThroughputFeedbackAdmission::info() const {
  TechniqueInfo info;
  info.name = "Transaction throughput feedback";
  info.technique_class = TechniqueClass::kAdmissionControl;
  info.subclass = TechniqueSubclass::kThresholdBasedAdmission;
  info.description =
      "Measures throughput over recent intervals and admits more "
      "transactions while it increases, fewer when it decreases.";
  info.source = "Heiss & Wagner [26]";
  return info;
}

IndicatorAdmission::IndicatorAdmission() : IndicatorAdmission(Config()) {}

IndicatorAdmission::IndicatorAdmission(Config config) : config_(config) {}

void IndicatorAdmission::OnSample(const SystemIndicators& indicators,
                                  WorkloadManager& manager) {
  (void)manager;
  congested_ = indicators.cpu_utilization > config_.max_cpu_utilization ||
               indicators.memory_utilization >
                   config_.max_memory_utilization ||
               indicators.conflict_ratio > kMaxConflictRatio;
}

bool IndicatorAdmission::AllowDispatch(const Request& request,
                                       const WorkloadManager& manager) {
  (void)manager;
  if (!congested_) return true;
  return request.priority > config_.gated_priority;
}

TechniqueInfo IndicatorAdmission::info() const {
  TechniqueInfo info;
  info.name = "Performance indicators";
  info.technique_class = TechniqueClass::kAdmissionControl;
  info.subclass = TechniqueSubclass::kThresholdBasedAdmission;
  info.description =
      "Monitors system health indicators and delays low-priority "
      "requests while any indicator exceeds its threshold.";
  info.source = "Zhang et al. [79][80]";
  return info;
}

}  // namespace wlm
