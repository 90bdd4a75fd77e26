#include "execution/fuzzy_controller.h"

#include <algorithm>
#include <array>

#include "core/workload_manager.h"

namespace wlm {
namespace {

/// Progress fuzzy-set breakpoints.
constexpr double kProgressLow = 0.3;
constexpr double kProgressHigh = 0.7;

}  // namespace

double RampUp(double x, double a, double b) {
  if (x <= a) return 0.0;
  if (x >= b) return 1.0;
  return (x - a) / (b - a);
}

double RampDown(double x, double a, double b) { return 1.0 - RampUp(x, a, b); }

double Triangular(double x, double a, double b, double c) {
  if (x <= a || x >= c) return 0.0;
  if (x <= b) return (x - a) / (b - a);
  return (c - x) / (c - b);
}

FuzzyExecutionController::FuzzyExecutionController()
    : FuzzyExecutionController(Config()) {}

FuzzyExecutionController::FuzzyExecutionController(Config config)
    : config_(std::move(config)) {}

FuzzyAction FuzzyExecutionController::Decide(double overrun, double progress,
                                             bool high_priority) const {
  // Input fuzzification.
  double ok = RampDown(overrun, config_.overrun_ok, config_.overrun_long);
  double over_long = Triangular(overrun, config_.overrun_ok,
                                config_.overrun_long, config_.overrun_huge);
  double huge =
      RampUp(overrun, config_.overrun_long, config_.overrun_huge);
  double prog_low = RampDown(progress, kProgressLow, kProgressHigh);
  double prog_high = RampUp(progress, kProgressLow, kProgressHigh);
  double pri_high = high_priority ? 1.0 : 0.0;
  double pri_low = 1.0 - pri_high;

  // Rule base (max-min inference). Scores per action.
  std::array<double, 4> score{};  // indexed by FuzzyAction
  auto fire = [&](FuzzyAction action, double strength) {
    score[static_cast<size_t>(action)] =
        std::max(score[static_cast<size_t>(action)], strength);
  };
  auto all = [](double a, double b) { return std::min(a, b); };

  // R1: on-estimate queries run on.
  fire(FuzzyAction::kContinue, ok);
  // R2: overrunning high-priority queries are tolerated.
  fire(FuzzyAction::kContinue, all(over_long, pri_high));
  // R3: overrunning low-priority queries that are nearly done may finish.
  fire(FuzzyAction::kContinue, all(over_long, all(pri_low, prog_high)));
  // R4: overrunning low-priority early queries get demoted.
  fire(FuzzyAction::kReprioritize, all(over_long, all(pri_low, prog_low)));
  // R5: way-over queries that are nearly done get demoted, not killed
  //     (killing would waste almost-complete work).
  fire(FuzzyAction::kReprioritize, all(huge, prog_high));
  // R6: way-over high-priority queries get demoted rather than killed.
  fire(FuzzyAction::kReprioritize, all(huge, pri_high));
  // R7: way-over low-priority queries early in their plan are killed and
  //     resubmitted for a quieter time.
  fire(FuzzyAction::kKillResubmit, all(huge, all(pri_low, prog_low)));

  // Defuzzification: the strongest action wins; ties resolve to the least
  // severe action (array order is severity order).
  size_t best = 0;
  for (size_t i = 1; i < score.size(); ++i) {
    if (score[i] > score[best]) best = i;
  }
  return static_cast<FuzzyAction>(best);
}

void FuzzyExecutionController::OnSample(const SystemIndicators& indicators,
                                        WorkloadManager& manager) {
  (void)indicators;
  std::vector<std::pair<QueryId, FuzzyAction>> actions;
  for (const ExecutionProgress& p : manager.engine()->Snapshot()) {
    if (p.elapsed < config_.min_elapsed_seconds) continue;
    const Request* request = manager.Find(p.id);
    if (request == nullptr) continue;
    if (!config_.workloads.empty() &&
        config_.workloads.count(request->workload) == 0) {
      continue;
    }
    double est = std::max(1e-3, request->plan.est_elapsed_seconds);
    double overrun = p.elapsed / est;
    bool high = request->priority >= config_.high_priority_cut;
    FuzzyAction action = Decide(overrun, p.fraction_done, high);
    if (action != FuzzyAction::kContinue) actions.emplace_back(p.id, action);
  }

  for (const auto& [id, action] : actions) {
    const Request* request = manager.Find(id);
    if (request == nullptr) continue;
    switch (action) {
      case FuzzyAction::kReprioritize: {
        int& times = reprioritized_[id];
        if (times >= config_.max_reprioritizations) break;
        int level = static_cast<int>(request->priority);
        if (level > static_cast<int>(BusinessPriority::kBackground) &&
            manager
                .SetRequestPriority(id,
                                    static_cast<BusinessPriority>(level - 1))
                .ok()) {
          ++times;
          ++reprioritizations_;
        }
        break;
      }
      case FuzzyAction::kKill:
        if (manager.KillRequest(id, false).ok()) ++kills_;
        break;
      case FuzzyAction::kKillResubmit:
        if (manager.KillRequest(id, true).ok()) ++resubmit_kills_;
        break;
      case FuzzyAction::kContinue:
        break;
    }
  }
}

TechniqueInfo FuzzyExecutionController::info() const {
  TechniqueInfo info;
  info.name = "Fuzzy-logic execution controller";
  info.technique_class = TechniqueClass::kExecutionControl;
  info.subclass = TechniqueSubclass::kCancellation;
  info.description =
      "Rule-based fuzzy controller over relative overrun, progress and "
      "priority choosing among continue, reprioritize, kill and "
      "kill-and-resubmit for problematic warehouse queries.";
  info.source = "Krompass et al. [39]";
  return info;
}

}  // namespace wlm
