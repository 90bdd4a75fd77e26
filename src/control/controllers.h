#ifndef WLM_CONTROL_CONTROLLERS_H_
#define WLM_CONTROL_CONTROLLERS_H_

#include <cstddef>
#include <deque>
#include <utility>

namespace wlm {

/// Proportional-Integral controller with output clamping and anti-windup,
/// as used by Parekh et al. [64] to set the throttling level of online
/// utilities from the observed performance degradation of production work.
class PiController {
 public:
  /// Output is clamped to [out_min, out_max]; the integral term freezes
  /// while the output is saturated (anti-windup).
  PiController(double kp, double ki, double out_min, double out_max);

  /// `error` is (setpoint - measurement) in the caller's convention;
  /// `dt` is the control interval. Returns the new output.
  double Update(double error, double dt);
  void Reset();

  double output() const { return output_; }
  double integral() const { return integral_; }

 private:
  double kp_;
  double ki_;
  double out_min_;
  double out_max_;
  double integral_ = 0.0;
  double output_ = 0.0;
};

/// Powley et al.'s "simple controller" [65]: a diminishing step function.
/// Moves the output a fixed step toward reducing the error; every time the
/// error changes sign the step halves, so the controller settles.
class DiminishingStepController {
 public:
  DiminishingStepController(double initial_step, double out_min,
                            double out_max, double min_step = 1e-3);

  /// Positive error pushes the output up, negative pushes it down; a small
  /// deadband (|error| below `deadband`) leaves the output unchanged.
  double Update(double error, double deadband = 0.0);
  double output() const { return output_; }
  double step() const { return step_; }

 private:
  double step_;
  double out_min_;
  double out_max_;
  double min_step_;
  double output_ = 0.0;
  int last_direction_ = 0;
};

/// Powley et al.'s "black-box model controller" [65][66]: fits a linear
/// model measurement = a + b * output over a sliding window of
/// (output, measurement) observations and inverts it to jump directly to
/// the output predicted to achieve the goal. Falls back to probing steps
/// until the model has two sufficiently distinct outputs.
class BlackBoxLinearController {
 public:
  BlackBoxLinearController(double out_min, double out_max,
                           double probe_step = 0.1, size_t window = 12);

  /// Records (current_output, measurement) then returns the next output
  /// aimed at `goal`.
  double Update(double measurement, double goal);
  double output() const { return output_; }
  /// Model parameters (valid once `model_ready()`).
  bool model_ready() const { return ready_; }
  double slope() const { return slope_; }
  double intercept() const { return intercept_; }

 private:
  void FitModel();

  double out_min_;
  double out_max_;
  double probe_step_;
  size_t window_;
  std::deque<std::pair<double, double>> observations_;  // (output, measure)
  double output_ = 0.0;
  double slope_ = 0.0;
  double intercept_ = 0.0;
  bool ready_ = false;
  int probe_direction_ = 1;
};

}  // namespace wlm

#endif  // WLM_CONTROL_CONTROLLERS_H_
