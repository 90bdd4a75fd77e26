// Unit coverage for the cluster-observability building blocks: metric
// federation (merge semantics, order independence, byte-identical
// exposition), the bounded time-series store, and the journey log.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/journey.h"
#include "telemetry/federation/federation.h"
#include "telemetry/federation/timeseries_store.h"
#include "telemetry/metrics.h"

namespace {

using wlm::Federate;
using wlm::FederationSource;
using wlm::FederationStats;
using wlm::HistogramMetric;
using wlm::MetricsRegistry;
using wlm::TimeSeriesStore;

std::string Prometheus(const MetricsRegistry& registry) {
  std::ostringstream out;
  registry.WritePrometheus(out);
  return out.str();
}

/// A shard registry with one of each metric shape, values derived from
/// `shard` so merges are distinguishable.
void FillShard(MetricsRegistry* registry, int shard) {
  registry->SetHelp("wlm_requests_total", "Requests observed.");
  registry->GetCounter("wlm_requests_total", {{"workload", "oltp"}})
      .Increment(10.0 * (shard + 1));
  registry->GetCounter("wlm_requests_total", {{"workload", "olap"}})
      .Increment(3.0 * (shard + 1));
  registry->SetHelp("wlm_queue_depth", "Current queue depth.");
  registry->GetGauge("wlm_queue_depth").Set(2.0 + shard);
  registry->SetHelp("wlm_latency_seconds", "Latency histogram.");
  static const std::vector<double> kBounds = {0.01, 0.1, 1.0};
  auto& histogram =
      registry->GetHistogram("wlm_latency_seconds", {}, &kBounds);
  histogram.Observe(0.005 * (shard + 1));
  histogram.Observe(0.5);
  // Non-prefixed family: must not federate.
  registry->GetCounter("process_cpu_seconds_total").Increment(1.0);
}

TEST(HistogramMergeTest, MergesBucketwiseAndAccumulatesSumCount) {
  const std::vector<double> bounds = {1.0, 2.0};
  HistogramMetric a(bounds), b(bounds);
  a.Observe(0.5);
  a.Observe(1.5);
  b.Observe(1.5);
  b.Observe(10.0);
  ASSERT_TRUE(a.MergeFrom(b));
  EXPECT_EQ(a.count(), 4);
  EXPECT_DOUBLE_EQ(a.sum(), 13.5);
  ASSERT_EQ(a.bucket_counts().size(), 3u);
  EXPECT_EQ(a.bucket_counts()[0], 1);  // <= 1.0
  EXPECT_EQ(a.bucket_counts()[1], 2);  // (1.0, 2.0]
  EXPECT_EQ(a.bucket_counts()[2], 1);  // > 2.0
}

TEST(HistogramMergeTest, RejectsMismatchedBounds) {
  HistogramMetric a(std::vector<double>{1.0, 2.0});
  HistogramMetric b(std::vector<double>{1.0, 3.0});
  b.Observe(0.5);
  EXPECT_FALSE(a.MergeFrom(b));
  EXPECT_EQ(a.count(), 0);
}

TEST(HistogramMergeTest, MergeIsAssociative) {
  // (a+b)+c and a+(b+c) must agree exactly: bucket counts are integers
  // and the sums fold in a fixed order inside MergeFrom.
  const std::vector<double> bounds = {0.1, 1.0, 10.0};
  auto make = [&](std::vector<double> samples) {
    HistogramMetric h(bounds);
    for (double sample : samples) h.Observe(sample);
    return h;
  };
  HistogramMetric left_a = make({0.05, 5.0});
  HistogramMetric left_b = make({0.5, 0.7});
  const HistogramMetric c = make({20.0, 0.01, 1.0});
  ASSERT_TRUE(left_a.MergeFrom(left_b));  // (a+b)
  ASSERT_TRUE(left_a.MergeFrom(c));       // (a+b)+c

  HistogramMetric right_b = make({0.5, 0.7});
  HistogramMetric right_a = make({0.05, 5.0});
  ASSERT_TRUE(right_b.MergeFrom(c));        // (b+c)
  ASSERT_TRUE(right_a.MergeFrom(right_b));  // a+(b+c)

  EXPECT_EQ(left_a.bucket_counts(), right_a.bucket_counts());
  EXPECT_EQ(left_a.count(), right_a.count());
  EXPECT_DOUBLE_EQ(left_a.sum(), right_a.sum());
}

TEST(FederationTest, CountersSumAcrossShards) {
  MetricsRegistry shard0, shard1, cluster;
  FillShard(&shard0, 0);
  FillShard(&shard1, 1);
  const FederationStats stats =
      Federate({{0, &shard0}, {1, &shard1}}, &cluster);
  EXPECT_EQ(stats.sources, 2);
  EXPECT_EQ(stats.histogram_bound_mismatches, 0);
  const wlm::Counter* oltp = cluster.FindCounter(
      "wlm_cluster_requests_total", {{"workload", "oltp"}});
  ASSERT_NE(oltp, nullptr);
  EXPECT_DOUBLE_EQ(oltp->value(), 30.0);
  const wlm::Counter* olap = cluster.FindCounter(
      "wlm_cluster_requests_total", {{"workload", "olap"}});
  ASSERT_NE(olap, nullptr);
  EXPECT_DOUBLE_EQ(olap->value(), 9.0);
  // Non-prefixed families stay out.
  EXPECT_EQ(cluster.FindCounter("process_cpu_seconds_total"), nullptr);
  EXPECT_EQ(cluster.FindCounter("wlm_cluster_process_cpu_seconds_total"),
            nullptr);
  EXPECT_EQ(stats.families_skipped, 1);
}

TEST(FederationTest, GaugesGetPerShardSeriesAndRollups) {
  MetricsRegistry shard0, shard1, shard2, cluster;
  FillShard(&shard0, 0);  // queue_depth 2
  FillShard(&shard1, 1);  // queue_depth 3
  FillShard(&shard2, 2);  // queue_depth 4
  Federate({{0, &shard0}, {1, &shard1}, {2, &shard2}}, &cluster);
  const wlm::Gauge* per_shard =
      cluster.FindGauge("wlm_cluster_queue_depth", {{"shard", "1"}});
  ASSERT_NE(per_shard, nullptr);
  EXPECT_DOUBLE_EQ(per_shard->value(), 3.0);
  const wlm::Gauge* min =
      cluster.FindGauge("wlm_cluster_queue_depth", {{"stat", "min"}});
  const wlm::Gauge* max =
      cluster.FindGauge("wlm_cluster_queue_depth", {{"stat", "max"}});
  const wlm::Gauge* sum =
      cluster.FindGauge("wlm_cluster_queue_depth", {{"stat", "sum"}});
  ASSERT_NE(min, nullptr);
  ASSERT_NE(max, nullptr);
  ASSERT_NE(sum, nullptr);
  EXPECT_DOUBLE_EQ(min->value(), 2.0);
  EXPECT_DOUBLE_EQ(max->value(), 4.0);
  EXPECT_DOUBLE_EQ(sum->value(), 9.0);
}

TEST(FederationTest, HistogramsMergeBucketwise) {
  MetricsRegistry shard0, shard1, cluster;
  FillShard(&shard0, 0);
  FillShard(&shard1, 1);
  Federate({{0, &shard0}, {1, &shard1}}, &cluster);
  const HistogramMetric* merged =
      cluster.FindHistogram("wlm_cluster_latency_seconds");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), 4);
  EXPECT_DOUBLE_EQ(merged->sum(), 0.005 + 0.01 + 0.5 + 0.5);
}

TEST(FederationTest, MismatchedHistogramBoundsAreCountedAndSkipped) {
  MetricsRegistry shard0, shard1, cluster;
  static const std::vector<double> bounds_a = {0.1, 1.0};
  static const std::vector<double> bounds_b = {0.2, 2.0};
  shard0.GetHistogram("wlm_latency_seconds", {}, &bounds_a).Observe(0.05);
  shard1.GetHistogram("wlm_latency_seconds", {}, &bounds_b).Observe(0.05);
  const FederationStats stats =
      Federate({{0, &shard0}, {1, &shard1}}, &cluster);
  EXPECT_EQ(stats.histogram_bound_mismatches, 1);
  const HistogramMetric* merged =
      cluster.FindHistogram("wlm_cluster_latency_seconds");
  ASSERT_NE(merged, nullptr);
  // Shard 0 (lowest id) wins; shard 1's incompatible series is dropped.
  EXPECT_EQ(merged->count(), 1);
}

TEST(FederationTest, MergeOrderDoesNotChangeTheExposition) {
  // The acceptance property: federating shard registries in any
  // collection order yields a byte-identical Prometheus exposition.
  constexpr int kShards = 4;
  std::vector<MetricsRegistry> shards(kShards);
  for (int i = 0; i < kShards; ++i) FillShard(&shards[i], i);
  std::vector<FederationSource> forward, reverse, rotated;
  for (int i = 0; i < kShards; ++i) forward.push_back({i, &shards[i]});
  reverse.assign(forward.rbegin(), forward.rend());
  rotated = forward;
  std::rotate(rotated.begin(), rotated.begin() + 2, rotated.end());
  MetricsRegistry out_forward, out_reverse, out_rotated;
  Federate(forward, &out_forward);
  Federate(reverse, &out_reverse);
  Federate(rotated, &out_rotated);
  const std::string exposition = Prometheus(out_forward);
  ASSERT_FALSE(exposition.empty());
  EXPECT_EQ(exposition, Prometheus(out_reverse));
  EXPECT_EQ(exposition, Prometheus(out_rotated));
}

TEST(FederationTest, CopyRegistryReplaysEveryFamilyVerbatim) {
  MetricsRegistry source, out;
  FillShard(&source, 1);
  wlm::CopyRegistry(source, &out);
  EXPECT_EQ(Prometheus(source), Prometheus(out));
}

TEST(FederationTest, FamilyValueSumCoversCountersAndGauges) {
  MetricsRegistry registry;
  FillShard(&registry, 0);
  EXPECT_DOUBLE_EQ(wlm::FamilyValueSum(registry, "wlm_requests_total"), 13.0);
  EXPECT_DOUBLE_EQ(wlm::FamilyValueSum(registry, "wlm_queue_depth"), 2.0);
  EXPECT_DOUBLE_EQ(wlm::FamilyValueSum(registry, "wlm_latency_seconds"), 0.0);
  EXPECT_DOUBLE_EQ(wlm::FamilyValueSum(registry, "no_such_family"), 0.0);
}

TEST(TimeSeriesStoreTest, RetainsAtMostRetentionPoints) {
  TimeSeriesStore store(3);
  for (int i = 0; i < 5; ++i) {
    store.Sample("s", static_cast<double>(i), 10.0 * i);
  }
  const std::vector<wlm::TimePoint> points = store.Points("s");
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points.front().time, 2.0);
  EXPECT_DOUBLE_EQ(points.back().time, 4.0);
  EXPECT_DOUBLE_EQ(points.back().value, 40.0);
  EXPECT_EQ(store.evicted(), 2);
}

TEST(TimeSeriesStoreTest, WindowAndLatest) {
  TimeSeriesStore store(16);
  for (int i = 0; i < 10; ++i) {
    store.Sample("s", static_cast<double>(i), static_cast<double>(i));
  }
  const auto window = store.Window("s", 3.0, 6.0);
  ASSERT_EQ(window.size(), 4u);
  EXPECT_DOUBLE_EQ(window.front().time, 3.0);
  EXPECT_DOUBLE_EQ(window.back().time, 6.0);
  wlm::TimePoint latest;
  ASSERT_TRUE(store.Latest("s", &latest));
  EXPECT_DOUBLE_EQ(latest.time, 9.0);
  EXPECT_FALSE(store.Latest("missing", &latest));
}

TEST(TimeSeriesStoreTest, DeltaSinceIsTheBurnRatePrimitive) {
  TimeSeriesStore store(16);
  store.Sample("total", 0.0, 100.0);
  store.Sample("total", 1.0, 130.0);
  store.Sample("total", 2.0, 150.0);
  EXPECT_DOUBLE_EQ(store.DeltaSince("total", 0.0), 50.0);
  EXPECT_DOUBLE_EQ(store.DeltaSince("total", 0.5), 20.0);
  // Fewer than two points in the window: no delta.
  EXPECT_DOUBLE_EQ(store.DeltaSince("total", 1.5), 0.0);
  EXPECT_DOUBLE_EQ(store.DeltaSince("missing", 0.0), 0.0);
}

TEST(TimeSeriesStoreTest, JsonlOutputIsByteStable) {
  auto build = [] {
    TimeSeriesStore store(8);
    store.Sample("b", 1.0, 2.5);
    store.Sample("a", 0.5, 1.0);
    store.Sample("a", 1.5, 2.0);
    std::ostringstream out;
    store.WriteJsonl(out);
    return out.str();
  };
  const std::string first = build();
  EXPECT_EQ(first, build());
  // Series in name order, points oldest first.
  EXPECT_EQ(first,
            "{\"series\":\"a\",\"t\":0.500000,\"value\":1.000000}\n"
            "{\"series\":\"a\",\"t\":1.500000,\"value\":2.000000}\n"
            "{\"series\":\"b\",\"t\":1.000000,\"value\":2.500000}\n");
}

TEST(TimeSeriesStoreTest, AsciiRenderingIsFixedWidth) {
  TimeSeriesStore store(32);
  for (int i = 0; i < 10; ++i) {
    store.Sample("s", static_cast<double>(i), static_cast<double>(i % 4));
  }
  const std::string chart = store.FormatAscii("s", 0.0, 9.0, 20);
  EXPECT_EQ(chart.size(), 20u);
  EXPECT_EQ(store.FormatAscii("missing", 0.0, 9.0, 20),
            std::string(20, ' '));
}

TEST(JourneyLogTest, TracksLivesAcrossCausesAndCloses) {
  wlm::JourneyLog log(16);
  const uint64_t id = log.Begin(42, "oltp", 1.0);
  ASSERT_NE(id, 0u);
  const int first =
      log.OpenLife(42, /*shard=*/0, wlm::RouteCause::kPlace, 0, false, 1.0, -1);
  EXPECT_EQ(first, 0);
  log.CloseLife(42, 0, 2.0, "shed");
  const int second = log.OpenLife(42, 1, wlm::RouteCause::kShed, 1, true, 2.0,
                                  log.LatestLifeOnShard(42, 0));
  EXPECT_EQ(second, 1);
  log.CloseLife(42, 1, 3.5, "completed");
  const wlm::Journey* journey = log.Find(42);
  ASSERT_NE(journey, nullptr);
  ASSERT_EQ(journey->lives.size(), 2u);
  EXPECT_EQ(journey->lives[0].outcome, "shed");
  EXPECT_EQ(journey->lives[1].parent, 0);
  EXPECT_EQ(journey->lives[1].cause, wlm::RouteCause::kShed);
  EXPECT_TRUE(journey->lives[1].redispatch);
  EXPECT_DOUBLE_EQ(journey->FinishTime(), 3.5);
  EXPECT_EQ(journey->OpenLives(), 0);
}

TEST(JourneyLogTest, JsonlKeepsSixDecimalTimes) {
  wlm::JourneyLog log(16);
  log.Begin(42, "oltp", 1.0);
  log.OpenLife(42, 0, wlm::RouteCause::kPlace, 0, false, 1.0, -1);
  log.CloseLife(42, 0, 2.0000005, "completed");
  std::ostringstream out;
  wlm::WriteJourneysJsonl(log.journeys(), out);
  EXPECT_NE(out.str().find("\"start\":1.000000,\"end\":2.000001,"),
            std::string::npos)
      << out.str();
}

TEST(JourneyLogTest, MarkOutcomeRelabelsTheLatestLife) {
  wlm::JourneyLog log(16);
  log.Begin(7, "oltp", 0.0);
  log.OpenLife(7, 2, wlm::RouteCause::kHedge, 0, false, 1.0, -1);
  log.CloseLife(7, 2, 2.0, "killed");
  log.MarkOutcome(7, 2, 2.0, "hedge_cancelled");
  const wlm::Journey* journey = log.Find(7);
  ASSERT_NE(journey, nullptr);
  EXPECT_EQ(journey->lives[0].outcome, "hedge_cancelled");
}

TEST(JourneyLogTest, BoundedDropNew) {
  wlm::JourneyLog log(2);
  EXPECT_NE(log.Begin(1, "a", 0.0), 0u);
  EXPECT_NE(log.Begin(2, "b", 0.0), 0u);
  EXPECT_EQ(log.Begin(3, "c", 0.0), 0u);  // full: dropped, not evicted
  EXPECT_EQ(log.dropped(), 1);
  EXPECT_EQ(log.journeys().size(), 2u);
  // Re-submitting a known query reuses its journey instead of dropping.
  EXPECT_EQ(log.Begin(1, "a", 1.0), log.journeys()[0].id);
}

TEST(JourneyLogTest, ExportersAreDeterministic) {
  auto build = [] {
    wlm::JourneyLog log(8);
    log.Begin(11, "oltp", 0.5);
    log.OpenLife(11, 0, wlm::RouteCause::kPlace, 0, false, 0.5, -1);
    log.CloseLife(11, 0, 1.25, "completed");
    log.Begin(12, "olap", 0.75);
    log.OpenLife(12, 1, wlm::RouteCause::kPlace, 0, false, 0.75, -1);
    log.OpenLife(12, 2, wlm::RouteCause::kHedge, 0, false, 1.0,
                 log.LatestLifeOnShard(12, 1));
    log.CloseLife(12, 2, 1.5, "completed");
    log.MarkOutcome(12, 1, 1.5, "hedge_cancelled");
    std::ostringstream jsonl, trace;
    wlm::WriteJourneysJsonl(log.journeys(), jsonl);
    wlm::WriteJourneysChromeTrace(log.journeys(), trace);
    return jsonl.str() + "\x1e" + trace.str();
  };
  const std::string first = build();
  EXPECT_EQ(first, build());
  EXPECT_NE(first.find("\"cause\":\"hedge\""), std::string::npos);
  EXPECT_NE(first.find("\"hedge_cancelled\""), std::string::npos);
}

}  // namespace
