#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/format.h"
#include "common/head_vector.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/time_series.h"

namespace wlm {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Rejected("cost over threshold");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsRejected());
  EXPECT_EQ(s.ToString(), "Rejected: cost over threshold");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kResourceExhausted, StatusCode::kRejected,
        StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

Status FailsIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  WLM_RETURN_IF_ERROR(FailsIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Result

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

Status ConsumesResult(int x, int* out) {
  WLM_ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturn) {
  int out = 0;
  EXPECT_TRUE(ConsumesResult(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(ConsumesResult(-5, &out).ok());
}

// ------------------------------------------------------------ HeadVector

TEST(HeadVectorTest, FrontMiddleAndFilteredErasesKeepTheLiveOrder) {
  HeadVector<int> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 10; ++i) v.push_back(i);
  // Front departures only advance the head, and the departed prefix is
  // reclaimed on the way; what is left reads the same either way.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(v.front(), i);
    v.erase(v.begin());
    EXPECT_EQ(v.size(), static_cast<size_t>(9 - i));
  }
  EXPECT_EQ(std::vector<int>(v.begin(), v.end()),
            (std::vector<int>{6, 7, 8, 9}));
  v.erase(v.begin() + 2);  // 8, from the middle
  v.push_back(10);
  v.insert(v.begin() + 1, 11);
  EXPECT_EQ(v[0], 6);
  EXPECT_EQ(v.back(), 10);
  v.erase_if([](int x) { return x % 2 == 0; });
  EXPECT_EQ(v.Compacted(), (std::vector<int>{11, 7, 9}));
  while (!v.empty()) v.erase(v.begin());
  v.push_back(12);
  EXPECT_EQ(v.Compacted(), (std::vector<int>{12}));
  v.clear();
  EXPECT_EQ(v.size(), 0u);
}

// LowerBound answers as std::ranges::lower_bound over the live entries,
// whether the front qualifies (its O(1) check) or the search runs, also
// after front departures moved the head.
TEST(HeadVectorTest, LowerBoundMatchesABinarySearchOfTheLiveEntries) {
  struct Entry {
    int key;
  };
  HeadVector<Entry> v;
  EXPECT_EQ(v.LowerBound(1, &Entry::key), v.end());
  for (int key = 10; key <= 100; key += 10) v.push_back({key});
  for (int departed = 0; departed < 4; ++departed) {
    for (int key = 0; key <= 110; key += 5) {
      const auto expected =
          std::ranges::lower_bound(v.begin(), v.end(), key, {}, &Entry::key);
      EXPECT_EQ(v.LowerBound(key, &Entry::key) - v.begin(),
                expected - v.begin())
          << "key " << key << " after " << departed << " departures";
    }
    v.erase(v.begin());
  }
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Exponential(2.5));
  EXPECT_NEAR(stats.mean(), 2.5, 0.1);
}

TEST(RngTest, NormalMomentsConverge) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Normal(10.0, 3.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.15);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.15);
}

TEST(RngTest, PoissonMeanConverges) {
  Rng rng(17);
  OnlineStats small, large;
  for (int i = 0; i < 20000; ++i) small.Add(rng.Poisson(3.0));
  for (int i = 0; i < 20000; ++i) large.Add(rng.Poisson(50.0));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 50.0, 0.5);
}

TEST(RngTest, LogNormalIsPositiveAndSkewed) {
  Rng rng(19);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    double v = rng.LogNormal(0.0, 1.0);
    EXPECT_GT(v, 0.0);
    stats.Add(v);
  }
  // mean of LogNormal(0,1) = exp(0.5) ~ 1.6487
  EXPECT_NEAR(stats.mean(), std::exp(0.5), 0.12);
}

TEST(RngTest, ZipfIsSkewedTowardZero) {
  Rng rng(23);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) {
    int64_t v = rng.Zipf(100, 0.9);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
    ++counts[v];
  }
  // Key 0 should be by far the hottest.
  EXPECT_GT(counts[0], counts[50] * 5);
  EXPECT_GT(counts[0], 5000);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.BoundedPareto(1.5, 1.0, 100.0);
    EXPECT_GE(v, 1.0 - 1e-9);
    EXPECT_LE(v, 100.0 + 1e-9);
  }
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(31);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  // Child stream differs from parent continuation.
  EXPECT_NE(child.Next(), a.Next());
}

// ----------------------------------------------------------------- Stats

TEST(OnlineStatsTest, BasicMoments) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStatsTest, MergeMatchesCombined) {
  Rng rng(5);
  OnlineStats a, b, combined;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Normal(0, 1);
    combined.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(PercentilesTest, ExactOnSmallSet) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.Add(i);
  EXPECT_DOUBLE_EQ(p.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(p.Percentile(100), 100.0);
  EXPECT_NEAR(p.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(p.Percentile(90), 90.1, 1e-9);
}

TEST(PercentilesTest, FractionAtOrBelow) {
  Percentiles p;
  for (int i = 1; i <= 10; ++i) p.Add(i);
  EXPECT_DOUBLE_EQ(p.FractionAtOrBelow(5.0), 0.5);
  EXPECT_DOUBLE_EQ(p.FractionAtOrBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.FractionAtOrBelow(10.0), 1.0);
}

TEST(PercentilesTest, ReservoirKeepsDistributionRoughly) {
  Percentiles p(1000);  // smaller than stream
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) p.Add(rng.Uniform(0.0, 1.0));
  EXPECT_EQ(p.count(), 100000);
  EXPECT_NEAR(p.Percentile(50), 0.5, 0.08);
  EXPECT_NEAR(p.Percentile(95), 0.95, 0.05);
}

TEST(HistogramTest, MeanAndPercentiles) {
  Histogram h(1000.0, 64);
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  EXPECT_NEAR(h.Percentile(50), 500.0, 60.0);  // bucketized estimate
  EXPECT_NEAR(h.Percentile(99), 990.0, 60.0);
}

TEST(HistogramTest, OverflowGoesToLastBucket) {
  Histogram h(10.0, 8);
  h.Add(1e9);
  EXPECT_EQ(h.count(), 1);
  EXPECT_LE(h.Percentile(100), 10.0 + 1e-9);
}

TEST(EwmaTest, ConvergesToConstant) {
  Ewma e(0.2);
  EXPECT_TRUE(e.empty());
  for (int i = 0; i < 100; ++i) e.Add(5.0);
  EXPECT_NEAR(e.value(), 5.0, 1e-9);
}

TEST(EwmaTest, FirstValueInitializes) {
  Ewma e(0.1);
  e.Add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  e.Add(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 9.0);
}

// ------------------------------------------------------------ TimeSeries

TEST(TimeSeriesTest, RecordsAndSummarizes) {
  TimeSeries ts("x");
  ts.Record(0.0, 1.0);
  ts.Record(1.0, 3.0);
  ts.Record(2.0, 5.0);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.last_value(), 5.0);
  EXPECT_DOUBLE_EQ(ts.stats().mean(), 3.0);
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(0.5, 2.5), 4.0);
}

TEST(TimeSeriesTest, SettlingTime) {
  TimeSeries ts;
  // Oscillates, then settles into [4, 6] at t=3.
  ts.Record(0.0, 10.0);
  ts.Record(1.0, 5.0);
  ts.Record(2.0, 9.0);
  ts.Record(3.0, 5.5);
  ts.Record(4.0, 5.0);
  ts.Record(5.0, 4.5);
  EXPECT_DOUBLE_EQ(ts.SettlingTime(4.0, 6.0), 3.0);
  EXPECT_DOUBLE_EQ(ts.SettlingTime(100.0, 200.0), -1.0);
}

TEST(TimeSeriesTest, DownsampleKeepsEndpoints) {
  TimeSeries ts;
  for (int i = 0; i < 1000; ++i) ts.Record(i, i);
  auto down = ts.Downsample(10);
  ASSERT_EQ(down.size(), 10u);
  EXPECT_DOUBLE_EQ(down.front().time, 0.0);
  EXPECT_DOUBLE_EQ(down.back().time, 999.0);
}

// ---------------------------------------------------------- TablePrinter

// ---------------------------------------------------------------- Format

std::string Printf(const char* format, double value) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// Empty when the to_chars helpers print `value` exactly as printf does
/// for every format they replaced; else the first difference.
std::string FormatMismatch(double value) {
  struct Case {
    std::string printf_format;
    std::string formatted;
  };
  std::vector<Case> cases = {{"%.6g", FormatGeneral(value, 6)}};
  for (int precision : {3, 0, 2, 6}) {
    const std::string format = "%." + std::to_string(precision) + "f";
    cases.push_back({format, FormatFixed(value, precision)});
    std::string appended = "x=";
    AppendFixed(appended, value, precision);
    cases.push_back({"x=" + format, appended});
  }
  for (const Case& c : cases) {
    const std::string expected = Printf(c.printf_format.c_str(), value);
    if (c.formatted != expected) {
      return c.printf_format + " of " + Printf("%.17g", value) +
             ": printf \"" + expected + "\", helper \"" + c.formatted +
             "\"";
    }
  }
  return "";
}

TEST(FormatTest, MatchesPrintfOnEdgeCases) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double edges[] = {0.0,
                          -0.0,
                          0.125,
                          -0.125,
                          2.5,
                          -2.5,
                          0.5,
                          1.5,
                          1e6 + 0.5,
                          9.9995,
                          999999.5,
                          -999999.5,
                          1e21,
                          -1e21,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          DBL_MAX,
                          -DBL_MAX,
                          nan,
                          -nan,
                          inf,
                          -inf};
  for (double value : edges) {
    EXPECT_EQ(FormatMismatch(value), "");
  }
}

TEST(FormatTest, MatchesPrintfOnRandomDoubles) {
  // Magnitudes 1e-12..1e18 of both signs, plus exact binary fractions
  // (k / 2^j), which put many values on a rounding tie at 0-3 decimals.
  Rng rng(20181016);
  int mismatches = 0;
  std::string first;
  for (int i = 0; i < 100000; ++i) {
    const double sign = rng.Bernoulli(0.5) ? -1.0 : 1.0;
    double value = sign * rng.Uniform(1.0, 10.0) *
                   std::pow(10.0, static_cast<double>(rng.UniformInt(-12, 17)));
    if (i % 4 == 3) {
      value = static_cast<double>(rng.UniformInt(-1000000, 1000000)) /
              std::ldexp(1.0, static_cast<int>(rng.UniformInt(1, 12)));
    }
    const std::string mismatch = FormatMismatch(value);
    if (!mismatch.empty() && mismatches++ == 0) first = mismatch;
  }
  EXPECT_EQ(mismatches, 0) << "first: " << first;
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"A", "LongHeader"});
  t.AddRow({"hello", "1"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| A     | LongHeader |"), std::string::npos);
  EXPECT_NE(out.find("| hello | 1          |"), std::string::npos);
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Int(42), "42");
  EXPECT_EQ(TablePrinter::Pct(0.931, 1), "93.1%");
}

TEST(SparklineTest, ProducesOutput) {
  std::string s = Sparkline({0, 1, 2, 3, 4, 5, 6, 7}, 8);
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(s.front(), ' ');
  EXPECT_EQ(s.back(), '#');
  EXPECT_TRUE(Sparkline({}).empty());
}

}  // namespace
}  // namespace wlm
