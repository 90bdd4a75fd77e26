#include "cluster/health.h"

#include <algorithm>
#include <cmath>

namespace wlm {

namespace {

/// Inter-arrival samples the detector keeps.
constexpr size_t kWindow = 16;
/// Floor on the inter-arrival stddev: one dropped heartbeat suspects and
/// two kill.
constexpr double kMinStd = kHeartbeatIntervalSeconds / 4.0;

}  // namespace

const char* ShardLifecycleToString(ShardLifecycle lifecycle) {
  switch (lifecycle) {
    case ShardLifecycle::kHealthy:
      return "healthy";
    case ShardLifecycle::kSuspected:
      return "suspected";
    case ShardLifecycle::kDown:
      return "down";
    case ShardLifecycle::kWarming:
      return "warming";
  }
  return "?";
}

void PhiAccrualDetector::Reset(double now) {
  intervals_.clear();
  last_arrival_ = now;
}

void PhiAccrualDetector::OnHeartbeat(double now) {
  if (last_arrival_ >= 0.0) {
    intervals_.push_back(std::max(0.0, now - last_arrival_));
    while (intervals_.size() > kWindow) intervals_.pop_front();
  }
  last_arrival_ = now;
}

double PhiAccrualDetector::Phi(double now) const {
  if (last_arrival_ < 0.0) return 0.0;
  // Until real samples accumulate, the prior is the nominal interval.
  double mean = kHeartbeatIntervalSeconds;
  double std = kMinStd;
  if (!intervals_.empty()) {
    double sum = 0.0;
    for (double v : intervals_) sum += v;
    mean = sum / static_cast<double>(intervals_.size());
    double var = 0.0;
    for (double v : intervals_) var += (v - mean) * (v - mean);
    var /= static_cast<double>(intervals_.size());
    std = std::sqrt(var);
  }
  std = std::max(std, kMinStd);
  const double gap = now - last_arrival_;
  // One-sided tail probability of a gap this large under Normal(mean, std):
  // P(later) = 0.5 * erfc(z / sqrt(2)).
  const double z = (gap - mean) / std;
  const double p =
      std::clamp(0.5 * std::erfc(z / std::sqrt(2.0)), 1e-30, 1.0);
  return std::min(30.0, -std::log10(p));
}

}  // namespace wlm
