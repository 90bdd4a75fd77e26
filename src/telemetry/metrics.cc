#include "telemetry/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace wlm {

namespace {

/// Canonical key for a label set: labels sorted by key, serialized as
/// k=v\x1f pairs (the separator cannot appear in our label values).
std::string SerializeLabels(const MetricLabels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    key += k;
    key += '=';
    key += v;
    key += '\x1f';
  }
  return key;
}

void SortLabels(MetricLabels* labels) {
  std::sort(labels->begin(), labels->end());
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string FormatValue(double value) {
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Trim to the shortest representation that round-trips exactly.
  for (int precision = 1; precision < 17; ++precision) {
    char probe[64];
    std::snprintf(probe, sizeof(probe), "%.*g", precision, value);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == value) return probe;
  }
  return buf;
}

std::string RenderLabels(const MetricLabels& labels,
                         const char* extra_key = nullptr,
                         const std::string& extra_value = std::string()) {
  if (labels.empty() && extra_key == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += EscapeLabelValue(v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += EscapeLabelValue(extra_value);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

const char* MetricTypeToString(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

HistogramMetric::HistogramMetric(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

void HistogramMetric::Observe(double value) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<size_t>(it - bounds_.begin())];
  sum_ += value;
  ++count_;
}

bool HistogramMetric::MergeFrom(const HistogramMetric& other) {
  if (bounds_ != other.bounds_) return false;
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  sum_ += other.sum_;
  count_ += other.count_;
  return true;
}

const std::vector<double>& HistogramMetric::DefaultLatencyBuckets() {
  // Sub-millisecond bounds resolve phase durations (lock waits, throttle
  // slices) far below the response-time scale; the tail matches long BI
  // queries. Ascending order keeps the exposition byte-stable.
  static const std::vector<double> kBuckets = {
      0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
      0.01,   0.025,   0.05,   0.1,   0.25,   0.5,
      1.0,    2.5,     5.0,    10.0,  30.0,   60.0,
      120.0,  300.0};
  return kBuckets;
}

MetricsRegistry::Family& MetricsRegistry::FamilyFor(std::string_view name,
                                                    MetricType type) {
  ++lookups_;  // once per Get*
  auto it = families_.find(name);
  if (it == families_.end()) {
    it = families_.emplace(std::string(name), Family{}).first;
  }
  if (!it->second.type_fixed) {
    it->second.type = type;
    it->second.type_fixed = true;
  }
  assert(it->second.type == type && "metric family re-used with a new type");
  return it->second;
}

MetricsRegistry::Series& MetricsRegistry::SeriesFor(Family& family,
                                                    MetricLabels labels) {
  SortLabels(&labels);
  std::string key = SerializeLabels(labels);
  auto it = family.series.find(key);
  if (it == family.series.end()) {
    Series series;
    series.labels = std::move(labels);
    it = family.series.emplace(std::move(key), std::move(series)).first;
  }
  return it->second;
}

Counter& MetricsRegistry::GetCounter(std::string_view name,
                                     MetricLabels labels) {
  Series& series = SeriesFor(FamilyFor(name, MetricType::kCounter),
                             std::move(labels));
  if (!series.counter) series.counter = std::make_unique<Counter>();
  return *series.counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name,
                                 MetricLabels labels) {
  Series& series =
      SeriesFor(FamilyFor(name, MetricType::kGauge), std::move(labels));
  if (!series.gauge) series.gauge = std::make_unique<Gauge>();
  return *series.gauge;
}

HistogramMetric& MetricsRegistry::GetHistogram(std::string_view name,
                                         MetricLabels labels,
                                         const std::vector<double>* bounds) {
  Series& series =
      SeriesFor(FamilyFor(name, MetricType::kHistogram), std::move(labels));
  if (!series.histogram) {
    series.histogram = std::make_unique<HistogramMetric>(
        bounds != nullptr ? *bounds : HistogramMetric::DefaultLatencyBuckets());
  }
  return *series.histogram;
}

void MetricsRegistry::SetHelp(const std::string& name, std::string help) {
  families_[name].help = std::move(help);
}

const MetricsRegistry::Series* MetricsRegistry::FindSeries(
    const std::string& name, const MetricLabels& labels) const {
  ++lookups_;  // once per Find*
  auto it = families_.find(name);
  if (it == families_.end()) return nullptr;
  MetricLabels sorted = labels;
  SortLabels(&sorted);
  auto sit = it->second.series.find(SerializeLabels(sorted));
  return sit == it->second.series.end() ? nullptr : &sit->second;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name,
                                            const MetricLabels& labels) const {
  const Series* series = FindSeries(name, labels);
  return series != nullptr ? series->counter.get() : nullptr;
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name,
                                        const MetricLabels& labels) const {
  const Series* series = FindSeries(name, labels);
  return series != nullptr ? series->gauge.get() : nullptr;
}

const HistogramMetric* MetricsRegistry::FindHistogram(
    const std::string& name, const MetricLabels& labels) const {
  const Series* series = FindSeries(name, labels);
  return series != nullptr ? series->histogram.get() : nullptr;
}

size_t MetricsRegistry::series_count() const {
  size_t count = 0;
  for (const auto& [name, family] : families_) count += family.series.size();
  return count;
}

double MetricsRegistry::FamilyValueSum(std::string_view name) const {
  auto it = families_.find(name);
  if (it == families_.end()) return 0.0;
  double sum = 0.0;
  for (const auto& [key, series] : it->second.series) {
    if (series.counter) sum += series.counter->value();
    if (series.gauge) sum += series.gauge->value();
  }
  return sum;
}

std::vector<MetricsRegistry::FamilyView> MetricsRegistry::Families() const {
  std::vector<FamilyView> views;
  views.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    FamilyView view;
    view.name = name;
    view.type = family.type;
    view.help = family.help;
    view.series.reserve(family.series.size());
    for (const auto& [key, series] : family.series) {
      SeriesView sv;
      sv.labels = &series.labels;
      sv.counter = series.counter.get();
      sv.gauge = series.gauge.get();
      sv.histogram = series.histogram.get();
      view.series.push_back(sv);
    }
    views.push_back(std::move(view));
  }
  return views;
}

void MetricsRegistry::WritePrometheus(std::ostream& out) const {
  for (const auto& [name, family] : families_) {
    if (family.series.empty()) continue;  // help registered, nothing observed
    if (!family.help.empty()) {
      out << "# HELP " << name << ' ' << family.help << '\n';
    }
    out << "# TYPE " << name << ' ' << MetricTypeToString(family.type)
        << '\n';
    for (const auto& [key, series] : family.series) {
      switch (family.type) {
        case MetricType::kCounter:
          out << name << RenderLabels(series.labels) << ' '
              << FormatValue(series.counter ? series.counter->value() : 0.0)
              << '\n';
          break;
        case MetricType::kGauge:
          out << name << RenderLabels(series.labels) << ' '
              << FormatValue(series.gauge ? series.gauge->value() : 0.0)
              << '\n';
          break;
        case MetricType::kHistogram: {
          if (!series.histogram) break;
          const HistogramMetric& h = *series.histogram;
          int64_t cumulative = 0;
          for (size_t i = 0; i < h.bounds().size(); ++i) {
            cumulative += h.bucket_counts()[i];
            out << name << "_bucket"
                << RenderLabels(series.labels, "le",
                                FormatValue(h.bounds()[i]))
                << ' ' << cumulative << '\n';
          }
          cumulative += h.bucket_counts().back();
          out << name << "_bucket"
              << RenderLabels(series.labels, "le", "+Inf") << ' '
              << cumulative << '\n';
          out << name << "_sum" << RenderLabels(series.labels) << ' '
              << FormatValue(h.sum()) << '\n';
          out << name << "_count" << RenderLabels(series.labels) << ' '
              << h.count() << '\n';
          break;
        }
      }
    }
  }
}

}  // namespace wlm
