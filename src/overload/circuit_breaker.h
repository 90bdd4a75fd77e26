#ifndef WLM_OVERLOAD_CIRCUIT_BREAKER_H_
#define WLM_OVERLOAD_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

namespace wlm {

/// Per-service-class circuit breaker driven by the SLO-violation rate of
/// recently finished requests. Hysteresis comes from three places: the
/// trip threshold is well above the close threshold, the breaker must
/// stay open for a fixed cool-down before probing, and the half-open
/// state admits only a small probe batch whose outcomes decide whether
/// the breaker closes or re-opens. All timing is simulation-clock based.
struct CircuitBreakerOptions {
  /// Sliding outcome window length (seconds of sim time).
  double window_seconds = 5.0;
  /// Bounded sample count kept in the window (Q1 capacity for the deque).
  int window_sample_capacity = 256;
  /// Minimum finished requests in the window before the breaker may trip.
  int min_samples = 8;
  /// Violation rate at or above which a closed breaker trips open.
  double trip_rate = 0.5;
  /// Cool-down an open breaker waits before admitting half-open probes.
  double open_seconds = 2.0;
  /// Probe admissions allowed in the half-open state.
  int half_open_probes = 4;
  /// Probe violation rate at or below which a half-open breaker closes.
  double close_rate = 0.25;
};

class CircuitBreaker {
 public:
  enum class State { kClosed = 0, kHalfOpen = 1, kOpen = 2 };

  /// (previous state, new state, detail) — fired on every state
  /// transition.
  using TransitionListener = std::function<void(
      State from, State to, const std::string& detail)>;

  explicit CircuitBreaker(CircuitBreakerOptions options);

  /// Records the SLO outcome of a finished request and may trip/close
  /// the breaker.
  void RecordOutcome(double now, bool violated);

  /// Returns true if an arrival may be admitted. Drives the
  /// Open -> HalfOpen transition off the sim clock; in half-open only
  /// the probe batch is admitted.
  [[nodiscard]] bool AllowAdmission(double now);

  State state() const { return state_; }
  /// Violated share of the samples in the window; 0 when it is empty.
  double ViolationRate() const;
  int64_t trips() const { return trips_; }
  void set_transition_listener(TransitionListener listener) {
    listener_ = std::move(listener);
  }

 private:
  struct Sample {
    double time = 0.0;
    bool violated = false;
  };

  void Transition(State next, double now, const std::string& why);
  void Expire(double now);
  void PopOldest();

  CircuitBreakerOptions options_;
  State state_ = State::kClosed;
  std::deque<Sample> window_;  // bounded by window_sample_capacity
  int window_violated_ = 0;    // samples in window_ that violated
  double opened_at_ = 0.0;
  int probes_issued_ = 0;
  int probes_finished_ = 0;
  int probes_violated_ = 0;
  int64_t trips_ = 0;
  TransitionListener listener_;
};

const char* CircuitStateToString(CircuitBreaker::State state);

}  // namespace wlm

#endif  // WLM_OVERLOAD_CIRCUIT_BREAKER_H_
