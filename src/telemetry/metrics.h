#ifndef WLM_TELEMETRY_METRICS_H_
#define WLM_TELEMETRY_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wlm {

/// Label set of one metric instance, e.g. {{"workload","bi"}}. Keys are
/// sorted (and duplicates rejected) at registration, so the same logical
/// set always maps to the same series.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

const char* MetricTypeToString(MetricType type);

/// Monotonically increasing value (completions, rejections, ...).
class Counter {
 public:
  void Increment(double delta = 1.0) {
    if (delta > 0.0) value_ += delta;
  }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Point-in-time value (queue depth, utilization, ...).
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Cumulative histogram with explicit upper bounds (+Inf implied), the
/// Prometheus histogram model: `bucket_counts()[i]` counts observations
/// <= bounds[i], the final slot counts everything.
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<double> bounds);

  void Observe(double value);

  /// Bucket-wise merge: folds `other`'s per-bucket counts, sum and count
  /// into this histogram. Returns false — and changes nothing — when the
  /// bucket bounds differ; the merge is only defined over identical
  /// bounds. Exact on the integer counts, so merging registries is
  /// associative; the float `sum` is deterministic as long as callers
  /// fold in a canonical order.
  [[nodiscard]] bool MergeFrom(const HistogramMetric& other);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size bounds()+1.
  const std::vector<int64_t>& bucket_counts() const { return counts_; }
  double sum() const { return sum_; }
  int64_t count() const { return count_; }

  /// Seconds-scale latency buckets (10ms .. 5min).
  static const std::vector<double>& DefaultLatencyBuckets();

 private:
  std::vector<double> bounds_;
  std::vector<int64_t> counts_;
  double sum_ = 0.0;
  int64_t count_ = 0;
};

/// Labeled metrics registry: families keyed by name, series keyed by
/// label set — the machine-readable superset of the Monitor's ad-hoc
/// per-tag maps. Deterministic iteration order (sorted maps) so text
/// expositions are stable across runs.
class MetricsRegistry {
 public:
  /// Returns (creating on first use) the series `name{labels}`. A family's
  /// type is fixed by its first use; mixing types for one name asserts.
  /// Finding an existing series without labels allocates nothing.
  Counter& GetCounter(std::string_view name, MetricLabels labels = {});
  Gauge& GetGauge(std::string_view name, MetricLabels labels = {});
  /// `bounds` applies only when the family is created by this call;
  /// nullptr uses HistogramMetric::DefaultLatencyBuckets().
  HistogramMetric& GetHistogram(std::string_view name, MetricLabels labels = {},
                          const std::vector<double>* bounds = nullptr);

  /// Attaches `# HELP` text to a family (created lazily if absent).
  void SetHelp(const std::string& name, std::string help);

  /// Lookup without creation; nullptr when the series does not exist.
  const Counter* FindCounter(const std::string& name,
                             const MetricLabels& labels = {}) const;
  const Gauge* FindGauge(const std::string& name,
                         const MetricLabels& labels = {}) const;
  const HistogramMetric* FindHistogram(const std::string& name,
                                 const MetricLabels& labels = {}) const;

  /// Sum of every counter/gauge value in `name`'s family (0.0 when the
  /// family is missing or histogram-typed). Allocation-free — safe for
  /// per-tick sampling loops.
  double FamilyValueSum(std::string_view name) const;

  /// Get* and Find* calls so far: the registry's own work counter. Not
  /// part of any exposition.
  int64_t lookups() const { return lookups_; }

  size_t family_count() const { return families_.size(); }
  size_t series_count() const;

  /// Read-only view of one series; exactly one of the three metric
  /// pointers is non-null (matching the family type) unless the series
  /// was created but never touched.
  struct SeriesView {
    const MetricLabels* labels = nullptr;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const HistogramMetric* histogram = nullptr;
  };
  /// Read-only view of one family and all of its series.
  struct FamilyView {
    std::string name;
    MetricType type = MetricType::kCounter;
    std::string help;
    std::vector<SeriesView> series;
  };
  /// Deterministic snapshot of every family (name order) and series
  /// (serialized-label order) — the read surface federation and other
  /// export layers merge from. Views borrow from the registry; they are
  /// invalidated by any Get*/SetHelp call.
  std::vector<FamilyView> Families() const;

  /// Prometheus text exposition format 0.0.4.
  void WritePrometheus(std::ostream& out) const;

 private:
  struct Series {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
    MetricLabels labels;
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    /// False until the first Get*: SetHelp alone must not fix the type.
    bool type_fixed = false;
    std::string help;
    std::map<std::string, Series> series;  // keyed by serialized labels
  };

  Family& FamilyFor(std::string_view name, MetricType type);
  Series& SeriesFor(Family& family, MetricLabels labels);
  const Series* FindSeries(const std::string& name,
                           const MetricLabels& labels) const;

  std::map<std::string, Family, std::less<>> families_;
  mutable int64_t lookups_ = 0;
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_METRICS_H_
