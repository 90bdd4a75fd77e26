#ifndef WLM_OVERLOAD_VIOLATION_WINDOW_H_
#define WLM_OVERLOAD_VIOLATION_WINDOW_H_

#include <cstddef>
#include <deque>

namespace wlm {

/// A sliding window of finished requests' SLO outcomes on the sim clock,
/// bounded by age and by count. It keeps a running count of the violated
/// samples, so the violation rate is O(1).
class ViolationWindow {
 public:
  void Push(double now, bool violated) {
    samples_.push_back({now, violated});
    if (violated) ++violated_;
  }

  /// Drops samples older than `seconds` before `now`.
  void Expire(double now, double seconds) {
    while (!samples_.empty() && samples_.front().time < now - seconds) {
      PopOldest();
    }
  }

  /// Drops the oldest samples until at most `capacity` remain.
  void Cap(size_t capacity) {
    while (samples_.size() > capacity) PopOldest();
  }

  void Clear() {
    samples_.clear();
    violated_ = 0;
  }

  size_t size() const { return samples_.size(); }

  /// Violated share of the samples; 0 when the window is empty.
  double Rate() const {
    if (samples_.empty()) return 0.0;
    return static_cast<double>(violated_) /
           static_cast<double>(samples_.size());
  }

 private:
  struct Sample {
    double time = 0.0;
    bool violated = false;
  };

  void PopOldest() {
    if (samples_.front().violated) --violated_;
    samples_.pop_front();
  }

  std::deque<Sample> samples_;
  size_t violated_ = 0;  // samples that violated
};

}  // namespace wlm

#endif  // WLM_OVERLOAD_VIOLATION_WINDOW_H_
