#include "telemetry/federation/federation.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>
#include <utility>

namespace wlm {

namespace {

constexpr std::string_view kSourcePrefix = "wlm_";
constexpr std::string_view kTargetPrefix = "wlm_cluster_";
/// Label key carrying the source shard on per-shard gauge series.
constexpr const char* kShardLabel = "shard";
/// Label key distinguishing the min/max/sum gauge rollup series.
constexpr const char* kRollupLabel = "stat";

/// Same canonical key the registry uses internally: labels are already
/// sorted on registered series, so serializing them joins like with like.
std::string LabelKey(const MetricLabels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    key += k;
    key += '=';
    key += v;
    key += '\x1f';
  }
  return key;
}

MetricLabels WithLabel(MetricLabels labels, const char* key,
                       std::string value) {
  labels.emplace_back(key, std::move(value));
  return labels;
}

/// Per-series merge state, accumulated in ascending shard order.
struct MergedSeries {
  MetricLabels labels;
  double counter_sum = 0.0;
  /// (shard, value) per source gauge, shard ascending.
  std::vector<std::pair<int, double>> gauges;
  /// Source histograms, shard ascending; folded at emit time.
  std::vector<const HistogramMetric*> histograms;
};

struct MergedFamily {
  MetricType type = MetricType::kCounter;
  bool type_clash = false;
  std::string help;
  std::map<std::string, MergedSeries> series;  // keyed by serialized labels
};

}  // namespace

FederationStats Federate(std::vector<FederationSource> sources,
                         MetricsRegistry* out) {
  FederationStats stats;
  stats.sources = static_cast<int64_t>(sources.size());
  // Fold in ascending shard order no matter how the caller gathered the
  // sources: float accumulation picks up a canonical order, so the merge
  // is order-independent from the outside.
  std::sort(sources.begin(), sources.end(),
            [](const FederationSource& a, const FederationSource& b) {
              return a.shard < b.shard;
            });

  std::map<std::string, MergedFamily> merged;
  std::set<std::string> skipped;
  for (const FederationSource& source : sources) {
    if (source.registry == nullptr) continue;
    for (const MetricsRegistry::FamilyView& family :
         source.registry->Families()) {
      if (!family.name.starts_with(kSourcePrefix)) {
        skipped.insert(family.name);
        continue;
      }
      const std::string derived = std::string(kTargetPrefix) +
                                  family.name.substr(kSourcePrefix.size());
      auto [it, inserted] = merged.try_emplace(derived);
      MergedFamily& work = it->second;
      if (inserted) {
        work.type = family.type;
      } else if (work.type != family.type) {
        work.type_clash = true;
        continue;
      }
      if (work.help.empty()) work.help = family.help;
      for (const MetricsRegistry::SeriesView& sv : family.series) {
        MergedSeries& ms = work.series[LabelKey(*sv.labels)];
        if (ms.labels.empty() && !sv.labels->empty()) ms.labels = *sv.labels;
        switch (family.type) {
          case MetricType::kCounter:
            if (sv.counter != nullptr) ms.counter_sum += sv.counter->value();
            break;
          case MetricType::kGauge:
            ms.gauges.emplace_back(
                source.shard, sv.gauge != nullptr ? sv.gauge->value() : 0.0);
            break;
          case MetricType::kHistogram:
            if (sv.histogram != nullptr) ms.histograms.push_back(sv.histogram);
            break;
        }
      }
    }
  }

  stats.families_skipped = static_cast<int64_t>(skipped.size());
  for (const auto& [name, work] : merged) {
    if (work.type_clash) {
      ++stats.families_skipped;
      continue;
    }
    if (!work.help.empty()) out->SetHelp(name, work.help);
    ++stats.families_merged;
    for (const auto& [key, ms] : work.series) {
      switch (work.type) {
        case MetricType::kCounter:
          out->GetCounter(name, ms.labels).Increment(ms.counter_sum);
          ++stats.series_merged;
          break;
        case MetricType::kGauge: {
          double min = 0.0;
          double max = 0.0;
          double sum = 0.0;
          bool first = true;
          for (const auto& [shard, value] : ms.gauges) {
            out->GetGauge(name, WithLabel(ms.labels, kShardLabel,
                                          std::to_string(shard)))
                .Set(value);
            min = first ? value : std::min(min, value);
            max = first ? value : std::max(max, value);
            sum += value;
            first = false;
          }
          out->GetGauge(name, WithLabel(ms.labels, kRollupLabel, "min"))
              .Set(min);
          out->GetGauge(name, WithLabel(ms.labels, kRollupLabel, "max"))
              .Set(max);
          out->GetGauge(name, WithLabel(ms.labels, kRollupLabel, "sum"))
              .Set(sum);
          ++stats.series_merged;
          break;
        }
        case MetricType::kHistogram: {
          if (ms.histograms.empty()) break;
          HistogramMetric& target = out->GetHistogram(
              name, ms.labels, &ms.histograms.front()->bounds());
          for (const HistogramMetric* source : ms.histograms) {
            if (!target.MergeFrom(*source)) {
              ++stats.histogram_bound_mismatches;
            }
          }
          ++stats.series_merged;
          break;
        }
      }
    }
  }
  return stats;
}

void CopyRegistry(const MetricsRegistry& source, MetricsRegistry* out) {
  for (const MetricsRegistry::FamilyView& family : source.Families()) {
    if (!family.help.empty()) out->SetHelp(family.name, family.help);
    for (const MetricsRegistry::SeriesView& sv : family.series) {
      switch (family.type) {
        case MetricType::kCounter:
          out->GetCounter(family.name, *sv.labels)
              .Increment(sv.counter != nullptr ? sv.counter->value() : 0.0);
          break;
        case MetricType::kGauge:
          out->GetGauge(family.name, *sv.labels)
              .Set(sv.gauge != nullptr ? sv.gauge->value() : 0.0);
          break;
        case MetricType::kHistogram:
          if (sv.histogram != nullptr) {
            (void)out->GetHistogram(family.name, *sv.labels,
                                    &sv.histogram->bounds())
                .MergeFrom(*sv.histogram);
          }
          break;
      }
    }
  }
}

double FamilyValueSum(const MetricsRegistry& registry,
                      std::string_view family) {
  return registry.FamilyValueSum(family);
}

}  // namespace wlm
