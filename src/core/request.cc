#include "core/request.h"

#include <algorithm>
#include <utility>

namespace wlm {

const char* BusinessPriorityToString(BusinessPriority p) {
  switch (p) {
    case BusinessPriority::kBackground:
      return "background";
    case BusinessPriority::kLow:
      return "low";
    case BusinessPriority::kMedium:
      return "medium";
    case BusinessPriority::kHigh:
      return "high";
    case BusinessPriority::kCritical:
      return "critical";
  }
  return "?";
}

ResourceShares SharesForPriority(BusinessPriority p) {
  switch (p) {
    case BusinessPriority::kBackground:
      return {0.5, 0.5};
    case BusinessPriority::kLow:
      return {1.0, 1.0};
    case BusinessPriority::kMedium:
      return {2.0, 2.0};
    case BusinessPriority::kHigh:
      return {4.0, 4.0};
    case BusinessPriority::kCritical:
      return {8.0, 8.0};
  }
  return {1.0, 1.0};
}

const char* RequestStateToString(RequestState s) {
  switch (s) {
    case RequestState::kArrived:
      return "arrived";
    case RequestState::kQueued:
      return "queued";
    case RequestState::kRejected:
      return "rejected";
    case RequestState::kRunning:
      return "running";
    case RequestState::kCompleted:
      return "completed";
    case RequestState::kKilled:
      return "killed";
    case RequestState::kAborted:
      return "aborted";
    case RequestState::kSuspended:
      return "suspended";
    case RequestState::kShed:
      return "shed";
  }
  return "?";
}

double Request::Velocity(int num_cpus, double io_ops_per_second) const {
  double dop = std::min(spec.dop, num_cpus);
  double expected =
      plan.StandaloneSeconds(static_cast<int>(dop), io_ops_per_second);
  double actual = ResponseTime();
  if (actual <= 0.0) return 1.0;
  return std::clamp(expected / actual, 0.0, 1.0);
}

void Request::Recycle() {
  // Hand the buffers to a blank request and take it over whole, so a
  // field added later resets without being listed here.
  Request blank;
  blank.spec = std::move(spec);
  blank.plan = std::move(plan);
  blank.workload = std::move(workload);
  blank.workload.clear();
  blank.reject_reason = std::move(reject_reason);
  blank.reject_reason.clear();
  *this = std::move(blank);
}

}  // namespace wlm
