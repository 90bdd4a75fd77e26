#ifndef WLM_TELEMETRY_FEDERATION_FEDERATION_H_
#define WLM_TELEMETRY_FEDERATION_FEDERATION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.h"

namespace wlm {

/// One shard's registry offered to Federate().
struct FederationSource {
  int shard = 0;
  const MetricsRegistry* registry = nullptr;
};

/// What one Federate() call did (and what it had to drop).
struct FederationStats {
  int64_t sources = 0;
  int64_t families_merged = 0;
  int64_t series_merged = 0;
  /// Histogram series skipped because two shards disagreed on bounds.
  int64_t histogram_bound_mismatches = 0;
  /// Families skipped (no source prefix, or cross-shard type clash).
  int64_t families_skipped = 0;
};

/// Merges per-shard MetricsRegistry instances into one cluster registry.
/// Only families named `wlm_*` federate, renamed `wlm_cluster_*`
/// (wlm_requests_completed_total -> wlm_cluster_requests_completed_total):
/// counters are summed, gauges become per-shard series labeled `shard`
/// plus min/max/sum rollups labeled `stat`, histograms merge bucket-wise
/// (identical bounds required). The merge is order-independent — sources
/// are folded in ascending shard order internally — so the federated
/// Prometheus exposition is byte-identical no matter how the caller
/// collected the sources. Purely passive: source registries are only
/// read. `out` is usually empty; families it already holds (e.g. the
/// dispatcher's own cluster-scope series) are left untouched unless a
/// derived family shares their name, in which case values merge under the
/// same rules.
FederationStats Federate(std::vector<FederationSource> sources,
                         MetricsRegistry* out);

/// Copies every family of `source` into `out` verbatim — no rename, no
/// shard label. The dispatcher folds its own `wlm_cluster_*` families
/// into the federated exposition with this.
void CopyRegistry(const MetricsRegistry& source, MetricsRegistry* out);

/// Sum over every series of `family` (counter values or gauge values);
/// 0.0 for histogram families. Convenience for burn-rate math over a
/// federated registry.
double FamilyValueSum(const MetricsRegistry& registry,
                      std::string_view family);

}  // namespace wlm

#endif  // WLM_TELEMETRY_FEDERATION_FEDERATION_H_
