#include "overload/overload_controller.h"

#include <string>
#include <utility>

namespace wlm {

const char* TransitionKindToString(OverloadController::TransitionKind kind) {
  switch (kind) {
    case OverloadController::TransitionKind::kBreakerTripped:
      return "breaker_tripped";
    case OverloadController::TransitionKind::kBreakerHalfOpen:
      return "breaker_half_open";
    case OverloadController::TransitionKind::kBreakerClosed:
      return "breaker_closed";
    case OverloadController::TransitionKind::kBrownoutStepped:
      return "brownout_stepped";
  }
  return "unknown";
}

OverloadController::OverloadController(OverloadOptions options)
    : options_(std::move(options)) {
  if (options_.shedding) {
    codel_ = std::make_unique<CodelQueuePolicy>(options_.codel);
  }
  if (options_.retry_budgets) {
    retry_budgets_ = std::make_unique<RetryBudgetPool>(options_.retry_budget);
  }
  if (options_.brownout) {
    brownout_ = std::make_unique<BrownoutController>(options_.brownout_options);
  }
}

CircuitBreaker& OverloadController::BreakerFor(const std::string& workload) {
  auto it = breakers_.find(workload);
  if (it == breakers_.end()) {
    auto breaker = std::make_unique<CircuitBreaker>(options_.breaker_options);
    CircuitBreaker* raw = breaker.get();
    raw->set_transition_listener(
        [this, workload](CircuitBreaker::State from, CircuitBreaker::State to,
                         const std::string& detail) {
          if (from == CircuitBreaker::State::kOpen) --open_breakers_;
          if (to == CircuitBreaker::State::kOpen) ++open_breakers_;
          if (!listener_) return;
          TransitionKind kind = TransitionKind::kBreakerTripped;
          if (to == CircuitBreaker::State::kHalfOpen) {
            kind = TransitionKind::kBreakerHalfOpen;
          } else if (to == CircuitBreaker::State::kClosed) {
            kind = TransitionKind::kBreakerClosed;
          }
          listener_(kind, workload, static_cast<int>(to), detail);
        });
    it = breakers_.emplace(workload, std::move(breaker)).first;
  }
  return *it->second;
}

CircuitBreaker* OverloadController::breaker(const std::string& workload) {
  if (!options_.breaker) return nullptr;
  return &BreakerFor(workload);
}

bool OverloadController::AnyBreakerOpen() const { return open_breakers_ > 0; }

std::string OverloadController::EvaluateArrival(const std::string& workload,
                                                int priority, double now,
                                                int queue_depth) {
  if (options_.shedding && queue_depth >= options_.codel.queue_capacity) {
    return "queue_full";
  }
  if (options_.brownout && brownout_ && brownout_->ShouldShed(priority)) {
    return "brownout";
  }
  if (options_.breaker && !BreakerFor(workload).AllowAdmission(now)) {
    return "breaker_open";
  }
  return std::string();
}

CodelQueuePolicy::Decision OverloadController::ObserveQueue(
    double now, double oldest_sojourn, int depth) {
  if (!codel_) return {};
  CodelQueuePolicy::Decision decision =
      codel_->Observe(now, oldest_sojourn, depth);
  lifo_ = decision.lifo;
  return decision;
}

bool OverloadController::AllowRetry(const std::string& workload, double now) {
  if (!options_.retry_budgets || !retry_budgets_) return true;
  return retry_budgets_->TryAcquire(workload, now);
}

double OverloadController::RetryTokens(const std::string& workload,
                                       double now) {
  if (!retry_budgets_) return 0.0;
  return retry_budgets_->Tokens(workload, now);
}

void OverloadController::RecordOutcome(const std::string& workload, double now,
                                       bool violated) {
  if (options_.breaker) {
    BreakerFor(workload).RecordOutcome(now, violated);
  }
  outcomes_.push_back({now, violated});
  ExpireOutcomes(now);
  while (static_cast<int>(outcomes_.size()) > options_.outcome_window_capacity) {
    outcomes_.pop_front();
  }
}

void OverloadController::ExpireOutcomes(double now) {
  while (!outcomes_.empty() &&
         outcomes_.front().time < now - options_.outcome_window_seconds) {
    outcomes_.pop_front();
  }
}

double OverloadController::GlobalViolationRate() const {
  if (outcomes_.empty()) return 0.0;
  int violated = 0;
  for (const Outcome& outcome : outcomes_) {
    if (outcome.violated) ++violated;
  }
  return static_cast<double>(violated) /
         static_cast<double>(outcomes_.size());
}

void OverloadController::OnSample(double now, int queue_depth) {
  if (!brownout_) return;
  // Expire by time here too: when brownout sheds every arrival, no
  // outcomes flow in, and a violation rate frozen above the exit
  // threshold would latch the shed level forever — the same metastable
  // loop the subsystem exists to break.
  ExpireOutcomes(now);
  bool overloaded =
      options_.shedding && queue_depth >= options_.codel.queue_capacity / 2;
  int before = brownout_->level();
  int after = brownout_->Update(now, GlobalViolationRate(), overloaded);
  if (after != before && listener_) {
    listener_(TransitionKind::kBrownoutStepped, std::string(), after,
              after > before ? "stepped up" : "stepped down");
  }
}

}  // namespace wlm
