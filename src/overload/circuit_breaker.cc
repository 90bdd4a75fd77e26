#include "overload/circuit_breaker.h"

#include <string>

namespace wlm {

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options)
    : options_(options) {}

void CircuitBreaker::Transition(State next, double now,
                                const std::string& why) {
  if (next == state_) return;
  const State previous = state_;
  state_ = next;
  if (next == State::kOpen) {
    opened_at_ = now;
    ++trips_;
  }
  if (next == State::kHalfOpen) {
    probes_issued_ = 0;
    probes_finished_ = 0;
    probes_violated_ = 0;
  }
  if (next == State::kClosed) window_.Clear();
  if (listener_) listener_(previous, next, why);
}

void CircuitBreaker::RecordOutcome(double now, bool violated) {
  if (state_ == State::kHalfOpen) {
    ++probes_finished_;
    if (violated) ++probes_violated_;
    if (probes_finished_ >= options_.half_open_probes) {
      double rate = static_cast<double>(probes_violated_) /
                    static_cast<double>(probes_finished_);
      if (rate <= options_.close_rate) {
        Transition(State::kClosed, now, "probes healthy");
      } else {
        Transition(State::kOpen, now, "probes violated");
      }
    }
    return;
  }
  window_.Push(now, violated);
  window_.Expire(now, options_.window_seconds);
  window_.Cap(kBreakerWindowSampleCapacity);
  if (state_ == State::kClosed &&
      static_cast<int>(window_.size()) >= options_.min_samples &&
      ViolationRate() >= options_.trip_rate) {
    Transition(State::kOpen, now, "violation rate over trip threshold");
  }
}

bool CircuitBreaker::AllowAdmission(double now) {
  if (state_ == State::kOpen) {
    if (now - opened_at_ >= options_.open_seconds) {
      Transition(State::kHalfOpen, now, "cool-down elapsed");
    } else {
      return false;
    }
  }
  if (state_ == State::kHalfOpen) {
    if (probes_issued_ >= options_.half_open_probes) return false;
    ++probes_issued_;
    return true;
  }
  return true;
}

}  // namespace wlm
