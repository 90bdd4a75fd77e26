#include "scheduling/utility_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/workload_manager.h"

namespace wlm {
namespace {

/// Hill-climb transfer granularity.
constexpr double kStep = 0.05;

}  // namespace

UtilityScheduler::UtilityScheduler(Config config)
    : config_(std::move(config)) {
  double equal = classes_.empty() && config_.classes.empty()
                     ? 1.0
                     : 1.0 / std::max<size_t>(1, config_.classes.size());
  for (const ClassConfig& cc : config_.classes) {
    ClassState state;
    state.config = cc;
    state.fraction = equal;
    index_[cc.workload] = classes_.size();
    classes_.push_back(std::move(state));
  }
}

double UtilityScheduler::CostLimit(const std::string& workload) const {
  auto it = index_.find(workload);
  if (it == index_.end()) return std::numeric_limits<double>::infinity();
  return classes_[it->second].fraction * config_.system_cost_capacity;
}

double UtilityScheduler::Fraction(const std::string& workload) const {
  auto it = index_.find(workload);
  return it == index_.end() ? 0.0 : classes_[it->second].fraction;
}

double UtilityScheduler::PredictResponse(const std::string& workload,
                                         double fraction) const {
  auto it = index_.find(workload);
  if (it == index_.end()) return 0.0;
  const ClassState& state = classes_[it->second];
  double service = state.service_seconds.empty()
                       ? state.config.target_response_seconds * 0.5
                       : state.service_seconds.value();
  double lambda = state.arrival_rate.empty() ? 0.0
                                             : state.arrival_rate.value();
  // The class runs on a `fraction` slice of the machine: effective
  // stand-alone service time stretches accordingly; M/M/1-PS response
  // with utilization capped below saturation to keep the search smooth.
  double s_eff = service / std::max(fraction, 1e-3);
  double rho = std::min(0.95, lambda * s_eff);
  return s_eff / (1.0 - rho);
}

double UtilityScheduler::PlanUtility(
    const std::vector<double>& fractions) const {
  double total = 0.0;
  for (size_t i = 0; i < classes_.size(); ++i) {
    const ClassState& state = classes_[i];
    SloUtility slo(state.config.target_response_seconds,
                   SloUtility::Sense::kLowerIsBetter,
                   state.config.importance);
    total += slo.Weighted(
        PredictResponse(state.config.workload, fractions[i]));
  }
  return total;
}

void UtilityScheduler::Replan() {
  if (classes_.size() < 2) return;
  ++replans_;
  std::vector<double> fractions;
  fractions.reserve(classes_.size());
  for (const ClassState& s : classes_) fractions.push_back(s.fraction);

  double best = PlanUtility(fractions);
  // Greedy pairwise transfers until no move improves the objective.
  for (int iter = 0; iter < 200; ++iter) {
    double best_gain = 1e-9;
    int best_from = -1;
    int best_to = -1;
    for (size_t from = 0; from < classes_.size(); ++from) {
      if (fractions[from] - kStep < config_.min_fraction) continue;
      for (size_t to = 0; to < classes_.size(); ++to) {
        if (to == from) continue;
        fractions[from] -= kStep;
        fractions[to] += kStep;
        double u = PlanUtility(fractions);
        fractions[from] += kStep;
        fractions[to] -= kStep;
        if (u - best > best_gain) {
          best_gain = u - best;
          best_from = static_cast<int>(from);
          best_to = static_cast<int>(to);
        }
      }
    }
    if (best_from < 0) break;
    fractions[best_from] -= kStep;
    fractions[best_to] += kStep;
    best += best_gain;
  }
  for (size_t i = 0; i < classes_.size(); ++i) {
    classes_[i].fraction = fractions[i];
  }
}

void UtilityScheduler::OnSample(const SystemIndicators& indicators,
                                WorkloadManager& manager) {
  (void)indicators;
  for (ClassState& state : classes_) {
    const TagStats& stats = manager.monitor()->tag_stats(state.config.workload);
    state.arrival_rate.Add(stats.last_interval_throughput);
  }
  // Keep service-time estimates fresh even when nothing queues: sample the
  // standalone estimates of whatever is currently running.
  for (const Request* r : manager.Running()) {
    auto it = index_.find(r->workload);
    if (it != index_.end()) {
      classes_[it->second].service_seconds.Add(r->plan.est_elapsed_seconds);
    }
  }
  if (++samples_since_replan_ >= config_.replan_every_samples) {
    samples_since_replan_ = 0;
    Replan();
  }
}

std::vector<QueryId> UtilityScheduler::Order(
    const std::vector<const Request*>& queued, const WorkloadManager& manager) {
  // Refresh service-time estimates from whatever passes through the queue.
  for (const Request* r : queued) {
    auto it = index_.find(r->workload);
    if (it != index_.end()) {
      classes_[it->second].service_seconds.Add(r->plan.est_elapsed_seconds);
    }
  }

  // Current running cost per class.
  std::map<std::string, double> running_cost;
  for (const Request* r : manager.Running()) {
    running_cost[r->workload] += r->plan.est_timerons;
  }

  // Priority order, FIFO within level; emit only requests whose class has
  // cost headroom (tentatively charging each emission).
  std::vector<const Request*> sorted = queued;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Request* a, const Request* b) {
                     return a->priority > b->priority;
                   });
  std::vector<QueryId> ids;
  for (const Request* r : sorted) {
    double limit = CostLimit(r->workload);
    double used = running_cost[r->workload];
    if (used > 0.0 && used + r->plan.est_timerons > limit) continue;
    running_cost[r->workload] += r->plan.est_timerons;
    ids.push_back(r->spec.id);
  }
  return ids;
}

TechniqueInfo UtilityScheduler::info() const {
  TechniqueInfo info;
  info.name = "Utility-function query scheduler";
  info.technique_class = TechniqueClass::kScheduling;
  info.subclass = TechniqueSubclass::kQueueManagement;
  info.description =
      "Periodically generates per-class cost limits by maximizing "
      "importance-weighted utility under an analytic performance model, "
      "then releases queued queries within those limits.";
  info.source = "Niu et al. [60] (also admission control per Table 5)";
  return info;
}

}  // namespace wlm
