#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace wlm {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::Merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  int64_t n = count_ + other.count_;
  double delta = other.mean_ - mean_;
  double mean = mean_ + delta * other.count_ / static_cast<double>(n);
  m2_ += other.m2_ +
         delta * delta * count_ * other.count_ / static_cast<double>(n);
  mean_ = mean;
  count_ = n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void OnlineStats::Reset() { *this = OnlineStats(); }

double OnlineStats::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

Percentiles::Percentiles(size_t max_samples) : max_samples_(max_samples) {
  assert(max_samples_ > 0);
}

void Percentiles::Add(double x) {
  stats_.Add(x);
  ++total_count_;
  if (samples_.size() < max_samples_) {
    samples_.push_back(x);
  } else {
    // Vitter's Algorithm R with a deterministic LCG keyed off the count so
    // results are reproducible without threading an Rng through.
    uint64_t r = static_cast<uint64_t>(total_count_) * 6364136223846793005ULL +
                 1442695040888963407ULL;
    uint64_t slot = r % static_cast<uint64_t>(total_count_);
    if (slot < samples_.size()) samples_[slot] = x;
  }
  sorted_dirty_ = true;
}

void Percentiles::Reset() {
  total_count_ = 0;
  stats_.Reset();
  samples_.clear();
  sorted_.clear();
  sorted_dirty_ = true;
}

double Percentiles::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (sorted_dirty_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_dirty_ = false;
  }
  p = std::clamp(p, 0.0, 100.0);
  double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

double Percentiles::FractionAtOrBelow(double threshold) const {
  if (samples_.empty()) return 0.0;
  if (sorted_dirty_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_dirty_ = false;
  }
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), threshold);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

Histogram::Histogram(double max_value, int num_buckets)
    : max_value_(max_value) {
  assert(max_value > 0.0 && num_buckets > 1);
  bounds_.resize(num_buckets);
  counts_.assign(num_buckets, 0);
  // Geometric boundaries so small values get fine resolution.
  double ratio = std::pow(max_value, 1.0 / (num_buckets - 1));
  double b = max_value / std::pow(ratio, num_buckets - 1);
  for (int i = 0; i < num_buckets; ++i) {
    bounds_[i] = b;
    b *= ratio;
  }
  bounds_.back() = max_value;
}

int Histogram::BucketFor(double x) const {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  if (it == bounds_.end()) return static_cast<int>(bounds_.size()) - 1;
  return static_cast<int>(it - bounds_.begin());
}

void Histogram::Add(double x) {
  ++counts_[BucketFor(x)];
  ++count_;
  sum_ += x;
}

double Histogram::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  double target = p / 100.0 * static_cast<double>(count_);
  int64_t cum = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (static_cast<double>(cum) >= target) {
      double lower = i == 0 ? 0.0 : bounds_[i - 1];
      double upper = bounds_[i];
      if (counts_[i] == 0) return upper;
      double into = target - static_cast<double>(cum - counts_[i]);
      return lower + (upper - lower) * into / static_cast<double>(counts_[i]);
    }
  }
  return max_value_;
}

void Ewma::Add(double x) {
  if (!initialized_) {
    value_ = x;
    initialized_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

}  // namespace wlm
