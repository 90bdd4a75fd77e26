#include <algorithm>
#include <cctype>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "characterization/static_classifier.h"
#include "common/rng.h"
#include "core/workload_manager.h"
#include "scheduling/queue_schedulers.h"
#include "telemetry/event_log.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"
#include "telemetry/slo_watchdog.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "wlm_test_util.h"

namespace wlm {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON reader, enough to validate exporter output structurally.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    pos_ = 0;
    if (!ParseValue(out)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::Kind::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'r': *out += '\r'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) return false;
            pos_ += 4;  // validated structurally only
            *out += '?';
            break;
          default: *out += esc;
        }
      } else {
        *out += c;
      }
    }
    return false;
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) return false;
    out->kind = JsonValue::Kind::kArray;
    if (Consume(']')) return true;
    while (true) {
      JsonValue element;
      if (!ParseValue(&element)) return false;
      out->array.push_back(std::move(element));
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) return false;
    out->kind = JsonValue::Kind::kObject;
    if (Consume('}')) return true;
    while (true) {
      std::string key;
      SkipSpace();
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CounterGaugeHistogramBasics) {
  MetricsRegistry metrics;
  metrics.GetCounter("requests_total", {{"workload", "bi"}}).Increment();
  metrics.GetCounter("requests_total", {{"workload", "bi"}}).Increment(2.0);
  metrics.GetCounter("requests_total", {{"workload", "oltp"}}).Increment();
  metrics.GetGauge("queue_depth").Set(7.0);
  metrics.GetHistogram("latency_seconds").Observe(0.02);

  EXPECT_EQ(metrics.family_count(), 3u);
  EXPECT_EQ(metrics.series_count(), 4u);
  const Counter* bi = metrics.FindCounter("requests_total", {{"workload", "bi"}});
  ASSERT_NE(bi, nullptr);
  EXPECT_DOUBLE_EQ(bi->value(), 3.0);
  EXPECT_EQ(metrics.FindCounter("requests_total", {{"workload", "etl"}}),
            nullptr);
  EXPECT_DOUBLE_EQ(metrics.FindGauge("queue_depth")->value(), 7.0);
}

TEST(MetricsRegistry, CounterIgnoresNonPositiveDeltas) {
  MetricsRegistry metrics;
  Counter& c = metrics.GetCounter("ticks_total");
  c.Increment();
  c.Increment(-5.0);
  c.Increment(0.0);
  EXPECT_DOUBLE_EQ(c.value(), 1.0);
}

TEST(MetricsRegistry, LabelOrderDoesNotMatter) {
  MetricsRegistry metrics;
  metrics.GetCounter("x_total", {{"a", "1"}, {"b", "2"}}).Increment();
  metrics.GetCounter("x_total", {{"b", "2"}, {"a", "1"}}).Increment();
  EXPECT_EQ(metrics.series_count(), 1u);
  EXPECT_DOUBLE_EQ(
      metrics.FindCounter("x_total", {{"b", "2"}, {"a", "1"}})->value(), 2.0);
}

TEST(MetricsRegistry, HistogramBucketsAreCumulativeInExposition) {
  MetricsRegistry metrics;
  std::vector<double> bounds = {1.0, 2.0, 4.0};
  HistogramMetric& h = metrics.GetHistogram("resp_seconds", {}, &bounds);
  for (double v : {0.5, 1.5, 1.7, 3.0, 10.0}) h.Observe(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 16.7);

  std::ostringstream out;
  metrics.WritePrometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# TYPE resp_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("resp_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("resp_seconds_bucket{le=\"2\"} 3"), std::string::npos);
  EXPECT_NE(text.find("resp_seconds_bucket{le=\"4\"} 4"), std::string::npos);
  EXPECT_NE(text.find("resp_seconds_bucket{le=\"+Inf\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("resp_seconds_count 5"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusExpositionFormat) {
  MetricsRegistry metrics;
  metrics.SetHelp("up_total", "help text");
  metrics.GetCounter("up_total", {{"workload", "b\"i\n"}}).Increment();
  metrics.GetGauge("depth").Set(3.5);

  std::ostringstream out;
  metrics.WritePrometheus(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("# HELP up_total help text"), std::string::npos);
  EXPECT_NE(text.find("# TYPE up_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  // Label values escape double quotes and newlines.
  EXPECT_NE(text.find("up_total{workload=\"b\\\"i\\n\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("depth 3.5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, SpansOpenCloseAndClamp) {
  Tracer tracer;
  tracer.GetOrCreate(1, "bi", QueryKind::kBiQuery, 0.0);
  tracer.OpenSpan(1, SpanKind::kQueue, 0.0);
  tracer.CloseSpan(1, SpanKind::kQueue, 2.0);
  tracer.OpenSpan(1, SpanKind::kExecute, 2.0);
  tracer.OpenSpan(1, SpanKind::kThrottle, 3.0, "duty=0.5");
  // Pause recorded past the (eventual) end of the segment gets clamped.
  tracer.AddClosedSpan(1, SpanKind::kPause, 4.0, 99.0);
  tracer.CloseExecutionSegment(1, 5.0, "outcome=completed");
  tracer.FinishTrace(1, 5.0);

  const QueryTrace* trace = tracer.Find(1);
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->finished);
  std::set<SpanKind> kinds;
  double queued = 0.0;
  for (const Span& span : trace->spans) {
    kinds.insert(span.kind);
    if (span.kind == SpanKind::kQueue) queued += span.duration();
  }
  EXPECT_EQ(kinds.size(), 4u);
  ASSERT_EQ(trace->SpansOfKind(SpanKind::kThrottle).size(), 1u);
  EXPECT_DOUBLE_EQ(trace->SpansOfKind(SpanKind::kThrottle)[0]->end, 5.0);
  EXPECT_DOUBLE_EQ(trace->SpansOfKind(SpanKind::kPause)[0]->end, 5.0);
  EXPECT_DOUBLE_EQ(queued, 2.0);
  EXPECT_EQ(trace->Detail(*trace->SpansOfKind(SpanKind::kThrottle)[0]),
            "duty=0.5");
  EXPECT_EQ(trace->Detail(*trace->SpansOfKind(SpanKind::kExecute)[0]),
            "outcome=completed");
  // Spans of each kind stay within the execute segment.
  const Span* execute = trace->SpansOfKind(SpanKind::kExecute)[0];
  for (const Span& span : trace->spans) {
    if (span.kind == SpanKind::kThrottle || span.kind == SpanKind::kPause) {
      EXPECT_GE(span.start, execute->start);
      EXPECT_LE(span.end, execute->end);
    }
  }
}

TEST(Tracer, EvictsOldestFinishedTraces) {
  Tracer tracer(/*max_traces=*/2);
  for (QueryId id = 1; id <= 4; ++id) {
    tracer.GetOrCreate(id, "w", QueryKind::kOltpTransaction, 0.0);
    tracer.FinishTrace(id, 1.0);
  }
  EXPECT_EQ(tracer.Traces().size(), 2u);
  EXPECT_EQ(tracer.Find(1), nullptr);
  EXPECT_NE(tracer.Find(4), nullptr);
  EXPECT_EQ(tracer.evicted(), 2u);
}

std::vector<QueryId> TraceIds(const Tracer& tracer) {
  std::vector<QueryId> ids;
  for (const QueryTrace* trace : tracer.Traces()) ids.push_back(trace->id);
  return ids;
}

TEST(Tracer, EvictsEveryFinishedTraceWhileOverBound) {
  // Four live traces over a bound of two: no trace was finished, so none
  // could go. Once three finish, the next new trace evicts all three.
  Tracer tracer(/*max_traces=*/2);
  for (QueryId id = 1; id <= 4; ++id) {
    tracer.GetOrCreate(id, "w", QueryKind::kOltpTransaction, 0.0);
  }
  EXPECT_EQ(tracer.size(), 4u);
  for (QueryId id = 1; id <= 3; ++id) tracer.FinishTrace(id, 1.0);
  tracer.GetOrCreate(5, "w", QueryKind::kOltpTransaction, 2.0);
  EXPECT_EQ(tracer.evicted(), 3);
  EXPECT_EQ(TraceIds(tracer), (std::vector<QueryId>{4, 5}));
  // Both live, nothing finished: new traces take the parked slots and the
  // listing stays in creation (tid) order.
  tracer.GetOrCreate(6, "w", QueryKind::kOltpTransaction, 3.0);
  tracer.GetOrCreate(7, "w", QueryKind::kOltpTransaction, 3.0);
  EXPECT_EQ(TraceIds(tracer), (std::vector<QueryId>{4, 5, 6, 7}));
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.evicted(), 3);
}

TEST(Tracer, ReusedSlotEqualsAFreshTrace) {
  Tracer tracer(/*max_traces=*/1);
  QueryTrace& first = tracer.GetOrCreate(1, "bi", QueryKind::kBiQuery, 0.0);
  tracer.OpenSpan(1, SpanKind::kQueue, 0.0, "a detail past the SSO buffer");
  tracer.Instant(1, "kill", 1.0, "timeout");
  tracer.FinishTrace(1, 2.0);
  QueryTrace& reused =
      tracer.GetOrCreate(9, "oltp", QueryKind::kOltpTransaction, 3.0);
  EXPECT_EQ(&reused, &first) << "the evicted trace's slot is reused";

  Tracer fresh_tracer;
  const QueryTrace& fresh =
      fresh_tracer.GetOrCreate(9, "oltp", QueryKind::kOltpTransaction, 3.0);
  EXPECT_EQ(reused.id, fresh.id);
  EXPECT_EQ(reused.workload, fresh.workload);
  EXPECT_EQ(reused.kind, fresh.kind);
  EXPECT_EQ(reused.tid, 2);  // the second trace this tracer created
  EXPECT_EQ(fresh.tid, 1);
  EXPECT_EQ(reused.start_time, fresh.start_time);
  EXPECT_EQ(reused.finished, fresh.finished);
  EXPECT_TRUE(reused.spans.empty());
  EXPECT_TRUE(reused.instants.empty());
  EXPECT_GE(reused.spans.capacity(), 16u);
  EXPECT_TRUE(reused.texts.empty());
  EXPECT_TRUE(reused.text_ends.empty());
  EXPECT_EQ(reused.outcome.name, TraceText::kNone);
  EXPECT_EQ(tracer.Find(1), nullptr);
  EXPECT_EQ(tracer.Find(9), &reused);
}

// ---------------------------------------------------------------------------
// EventLog lookups (including eviction past max_events)
// ---------------------------------------------------------------------------

// Each test event's detail is its append index, so comparing details
// compares which events a lookup returned, and in which order.
std::vector<std::string> Details(const std::vector<WlmEvent>& events) {
  std::vector<std::string> out;
  for (const WlmEvent& e : events) out.push_back(e.detail);
  return out;
}

TEST(EventLog, IndexedLookupsMatchBruteForcePastEviction) {
  struct Case {
    size_t max_events;
    int appended;
    int queries;
  };
  // Below, at and far past the window; a one-slot window; one query
  // owning every event; more queries than the window holds.
  const Case cases[] = {{64, 40, 7},   {64, 64, 7},   {64, 320, 7},
                        {1, 50, 3},    {17, 1000, 1}, {100, 2000, 250}};
  for (const Case& c : cases) {
    SCOPED_TRACE("max_events=" + std::to_string(c.max_events) +
                 " appended=" + std::to_string(c.appended));
    EventLog log(c.max_events);
    Rng rng(c.max_events * 7919 + static_cast<uint64_t>(c.appended));
    for (int i = 0; i < c.appended; ++i) {
      WlmEvent event;
      event.time = 0.1 * i;
      event.type = static_cast<WlmEventType>(
          rng.UniformInt(0, static_cast<int64_t>(kWlmEventTypeCount) - 1));
      event.query = static_cast<QueryId>(rng.UniformInt(0, c.queries - 1));
      event.workload = (i % 2) ? "bi" : "oltp";
      event.detail = std::to_string(i);
      log.Append(event);
    }
    EXPECT_EQ(log.size(),
              std::min(c.max_events, static_cast<size_t>(c.appended)));
    EXPECT_EQ(log.total_appended(), c.appended);

    // Brute-force references from the retained window.
    for (size_t t = 0; t < kWlmEventTypeCount; ++t) {
      const WlmEventType type = static_cast<WlmEventType>(t);
      std::vector<WlmEvent> expected;
      for (const WlmEvent& e : log.events()) {
        if (e.type == type) expected.push_back(e);
      }
      EXPECT_EQ(log.CountOf(type), static_cast<int64_t>(expected.size()))
          << "type " << t;
      EXPECT_EQ(Details(log.OfType(type)), Details(expected)) << "type " << t;
    }
    for (int q = 0; q < c.queries; ++q) {
      std::vector<WlmEvent> expected;
      for (const WlmEvent& e : log.events()) {
        if (e.query == static_cast<QueryId>(q)) expected.push_back(e);
      }
      EXPECT_EQ(Details(log.ForQuery(static_cast<QueryId>(q))),
                Details(expected))
          << "query " << q;
    }
    // Window queries respect [begin, end) on the retained suffix.
    const double begin = log.events().front().time + 1.0;
    const double end = begin + 2.0;
    std::vector<WlmEvent> expected_window;
    for (const WlmEvent& e : log.events()) {
      if (e.time >= begin && e.time < end) expected_window.push_back(e);
    }
    EXPECT_EQ(Details(log.InWindow(begin, end)), Details(expected_window));
  }
}

TEST(EventLog, ClearResetsIndexes) {
  EventLog log(8);
  for (int i = 0; i < 20; ++i) {
    WlmEvent event;
    event.time = i;
    event.type = WlmEventType::kSubmitted;
    event.query = 1;
    log.Append(event);
  }
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.CountOf(WlmEventType::kSubmitted), 0);
  EXPECT_TRUE(log.ForQuery(1).empty());
  WlmEvent event;
  event.time = 100.0;
  event.type = WlmEventType::kKilled;
  event.query = 2;
  log.Append(event);
  EXPECT_EQ(log.CountOf(WlmEventType::kKilled), 1);
  EXPECT_EQ(log.ForQuery(2).size(), 1u);
}

TEST(EventLog, RingAgreesWithDequeReferenceAcrossWraps) {
  // Bounds around and off the 256-event block size: the ring's last block
  // is partial, and the window wraps several times.
  for (size_t bound : {size_t{1}, size_t{255}, size_t{257}, size_t{300},
                       size_t{700}}) {
    SCOPED_TRACE("bound=" + std::to_string(bound));
    EventLog log(bound);
    std::deque<WlmEvent> ref;
    Rng rng(bound);
    const size_t appends = 3 * bound + 13;
    for (size_t i = 0; i < appends; ++i) {
      WlmEvent event;
      event.time = 0.25 * static_cast<double>(i);
      event.type = static_cast<WlmEventType>(
          rng.UniformInt(0, static_cast<int64_t>(kWlmEventTypeCount) - 1));
      event.query = static_cast<QueryId>(rng.UniformInt(0, 9));
      event.workload = i % 3 == 0 ? "oltp" : "a workload name past SSO";
      event.detail = std::string(static_cast<size_t>(i % 40), 'd');
      log.Append(event);
      ref.push_back(event);
      if (ref.size() > bound) ref.pop_front();
      // At the start, right around each wrap, and at the end.
      const size_t n = i + 1;
      if (n > 3 && n % bound > 2 && n % bound < bound - 2 && n != appends) {
        continue;
      }
      ASSERT_EQ(log.size(), ref.size()) << "after " << n;
      ASSERT_EQ(Details(std::vector<WlmEvent>(ref.begin(), ref.end())),
                Details([&] {
                  std::vector<WlmEvent> all;
                  for (const WlmEvent& e : log.events()) all.push_back(e);
                  return all;
                }()));
      for (size_t t = 0; t < kWlmEventTypeCount; ++t) {
        const auto type = static_cast<WlmEventType>(t);
        std::vector<WlmEvent> expected;
        for (const WlmEvent& e : ref) {
          if (e.type == type) expected.push_back(e);
        }
        ASSERT_EQ(log.CountOf(type), static_cast<int64_t>(expected.size()));
        ASSERT_EQ(Details(log.OfType(type)), Details(expected));
      }
      for (QueryId q = 0; q < 10; ++q) {
        std::vector<WlmEvent> expected;
        for (const WlmEvent& e : ref) {
          if (e.query == q) expected.push_back(e);
        }
        ASSERT_EQ(Details(log.ForQuery(q)), Details(expected));
      }
      const double begin = ref.front().time + 0.5;
      const double end = begin + 0.25 * static_cast<double>(bound / 2);
      std::vector<WlmEvent> expected;
      for (const WlmEvent& e : ref) {
        if (e.time >= begin && e.time < end) expected.push_back(e);
      }
      ASSERT_EQ(Details(log.InWindow(begin, end)), Details(expected));
      ASSERT_EQ(log.events().front().workload, ref.front().workload);
      ASSERT_EQ(log.events()[ref.size() - 1].time, ref.back().time);
    }
  }
}

// ---------------------------------------------------------------------------
// Monitor series
// ---------------------------------------------------------------------------

TEST(MonitorSeries, PerTagThroughputSeriesAndIntervalReset) {
  Simulation sim;
  DatabaseEngine engine(&sim, TestEngineConfig());
  Monitor monitor(&sim, &engine, /*interval=*/1.0);
  monitor.Start();

  sim.Schedule(0.5, [&] {
    monitor.RecordCompletion("bi", 0.4, 1.0, OutcomeKind::kCompleted);
    monitor.RecordCompletion("bi", 0.2, 1.0, OutcomeKind::kCompleted);
  });
  sim.RunUntil(1.5);

  // One sample at t=1.0 has happened: 2 completions / 1s interval.
  EXPECT_DOUBLE_EQ(monitor.tag_stats("bi").last_interval_throughput, 2.0);
  EXPECT_EQ(monitor.tag_stats("bi").interval_completed, 0)
      << "interval counter must reset at the sample boundary";
  const TimeSeries* series = monitor.FindSeries("throughput:bi");
  ASSERT_NE(series, nullptr) << "per-tag series use throughput:<tag> naming";
  ASSERT_EQ(series->size(), 1u);
  EXPECT_DOUBLE_EQ(series->points()[0].value, 2.0);

  // The next interval has no completions: throughput falls back to zero.
  sim.RunUntil(2.5);
  EXPECT_DOUBLE_EQ(monitor.tag_stats("bi").last_interval_throughput, 0.0);
  ASSERT_EQ(monitor.FindSeries("throughput:bi")->size(), 2u);
  EXPECT_DOUBLE_EQ(monitor.FindSeries("throughput:bi")->points()[1].value,
                   0.0);
  // Global series exist alongside the per-tag ones.
  EXPECT_NE(monitor.FindSeries("throughput"), nullptr);
  EXPECT_NE(monitor.FindSeries("cpu_util"), nullptr);
}

// ---------------------------------------------------------------------------
// SLO watchdog
// ---------------------------------------------------------------------------

TEST(SloWatchdog, EdgeTriggeredViolationsLandInEventLog) {
  Simulation sim;
  DatabaseEngine engine(&sim, TestEngineConfig());
  Monitor monitor(&sim, &engine, 1.0);
  EventLog log;
  MetricsRegistry metrics;
  SloWatchdog watchdog(&monitor, &log, &metrics);
  watchdog.SetSlos("bi", {ServiceLevelObjective::AvgResponse(1.0)});

  SystemIndicators indicators;
  // No completions yet: no verdict either way.
  watchdog.Check(indicators);
  EXPECT_TRUE(watchdog.violations().empty());

  monitor.RecordCompletion("bi", 5.0, 1.0, OutcomeKind::kCompleted);
  watchdog.Check(indicators);
  watchdog.Check(indicators);  // still violated: no second transition event
  ASSERT_EQ(watchdog.violations().size(), 1u);
  EXPECT_EQ(watchdog.violations()[0].workload, "bi");
  EXPECT_FALSE(watchdog.violations()[0].evaluation.met);
  EXPECT_EQ(log.CountOf(WlmEventType::kSloViolation), 1);
  const Counter* samples = metrics.FindCounter(
      "wlm_slo_violation_samples_total", {{"workload", "bi"}});
  ASSERT_NE(samples, nullptr);
  EXPECT_DOUBLE_EQ(samples->value(), 2.0);

  // Recovery re-arms the edge trigger.
  for (int i = 0; i < 200; ++i) {
    monitor.RecordCompletion("bi", 0.01, 1.0, OutcomeKind::kCompleted);
  }
  watchdog.Check(indicators);
  ASSERT_EQ(watchdog.violations().size(), 1u);
  monitor.tag_stats("bi").response_times = Percentiles();
  monitor.RecordCompletion("bi", 9.0, 1.0, OutcomeKind::kCompleted);
  watchdog.Check(indicators);
  EXPECT_EQ(watchdog.violations().size(), 2u);
  EXPECT_EQ(log.CountOf(WlmEventType::kSloViolation), 2);
}

// ---------------------------------------------------------------------------
// End-to-end: manager-driven run, exporters, determinism
// ---------------------------------------------------------------------------

struct MixedRun {
  std::unique_ptr<TestRig> rig;

  explicit MixedRun(bool telemetry_enabled) {
    WlmConfig config;
    config.telemetry.enabled = telemetry_enabled;
    rig = std::make_unique<TestRig>(TestEngineConfig(), /*interval=*/0.25,
                                    config);
    WorkloadManager& wlm = rig->wlm;

    WorkloadDefinition bi;
    bi.name = "bi";
    bi.priority = BusinessPriority::kLow;
    bi.slos.push_back(ServiceLevelObjective::AvgResponse(0.5));
    wlm.DefineWorkload(bi);
    WorkloadDefinition oltp;
    oltp.name = "oltp";
    oltp.priority = BusinessPriority::kHigh;
    wlm.DefineWorkload(oltp);

    auto classifier = std::make_unique<StaticClassifier>();
    ClassificationRule bi_rule;
    bi_rule.workload = "bi";
    bi_rule.kind = QueryKind::kBiQuery;
    classifier->AddRule(bi_rule);
    ClassificationRule oltp_rule;
    oltp_rule.workload = "oltp";
    oltp_rule.kind = QueryKind::kOltpTransaction;
    classifier->AddRule(oltp_rule);
    wlm.set_classifier(std::move(classifier));
    wlm.set_scheduler(std::make_unique<PriorityScheduler>(/*mpl=*/2));

    // Two BI queries (the second queues behind MPL 2 + the OLTP stream)
    // and a burst of OLTP transactions.
    rig->sim.Schedule(0.0, [&wlm] { (void)wlm.Submit(BiSpec(1, /*cpu=*/2.0)); });
    rig->sim.Schedule(0.05, [&wlm] { (void)wlm.Submit(BiSpec(2, /*cpu=*/2.0)); });
    for (int i = 0; i < 10; ++i) {
      rig->sim.Schedule(0.1 + 0.05 * i, [&wlm, i] {
        (void)wlm.Submit(OltpSpec(static_cast<QueryId>(100 + i)));
      });
    }
    // Throttle query 1 while it runs; it spans several monitor samples.
    rig->sim.Schedule(0.5, [&wlm] { (void)wlm.ThrottleRequest(1, 0.5); });
    rig->sim.RunUntil(40.0);
  }
};

TEST(TelemetryEndToEnd, BiQueryCarriesFullSpanLifecycle) {
  MixedRun run(/*telemetry_enabled=*/true);
  Telemetry& telemetry = run.rig->wlm.telemetry();

  const QueryTrace* trace = telemetry.tracer().Find(1);
  ASSERT_NE(trace, nullptr);
  EXPECT_TRUE(trace->finished);
  // queue + admit + execute + throttle >= 4 distinct span kinds.
  std::set<SpanKind> kinds;
  for (const Span& span : trace->spans) kinds.insert(span.kind);
  EXPECT_GE(kinds.size(), 4u);
  EXPECT_FALSE(trace->SpansOfKind(SpanKind::kQueue).empty());
  EXPECT_FALSE(trace->SpansOfKind(SpanKind::kAdmit).empty());
  EXPECT_FALSE(trace->SpansOfKind(SpanKind::kExecute).empty());
  EXPECT_FALSE(trace->SpansOfKind(SpanKind::kThrottle).empty());
  for (const Span& span : trace->spans) {
    EXPECT_FALSE(span.open()) << SpanKindToString(span.kind);
    EXPECT_LE(span.start, span.end);
  }

  // Metric families cover the acceptance floor and completions tally.
  EXPECT_GE(telemetry.metrics().family_count(), 10u);
  const Counter* completed = telemetry.metrics().FindCounter(
      "wlm_requests_completed_total", {{"workload", "bi"}});
  ASSERT_NE(completed, nullptr);
  EXPECT_DOUBLE_EQ(
      completed->value(),
      static_cast<double>(run.rig->monitor.tag_stats("bi").completed));
  // The ambitious BI SLO must have tripped the watchdog.
  EXPECT_GE(telemetry.watchdog().violations().size(), 1u);
  EXPECT_GE(run.rig->wlm.event_log().CountOf(WlmEventType::kSloViolation), 1);
}

TEST(TelemetryEndToEnd, ChromeTraceExportParsesAndNests) {
  MixedRun run(/*telemetry_enabled=*/true);
  std::ostringstream out;
  WriteChromeTrace(run.rig->wlm.telemetry().tracer(), out, &run.rig->monitor);

  JsonValue root;
  ASSERT_TRUE(JsonParser(out.str()).Parse(&root)) << "trace must be valid JSON";
  ASSERT_EQ(root.kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(root.array.empty());

  size_t span_events = 0;
  // Keyed by (pid, tid): phase tiles render on their own process (pid 2)
  // so they may straddle throttle/pause spans on the query's pid-1 track.
  std::map<std::pair<int, int>, std::vector<std::pair<long long, long long>>>
      by_track;
  for (const JsonValue& event : root.array) {
    ASSERT_EQ(event.kind, JsonValue::Kind::kObject);
    const JsonValue* ph = event.Get("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(event.Get("pid"), nullptr);
    if (ph->string == "M" || ph->string == "C") continue;
    ASSERT_EQ(ph->string, "X");
    ASSERT_NE(event.Get("ts"), nullptr);
    ASSERT_NE(event.Get("dur"), nullptr);
    ASSERT_NE(event.Get("tid"), nullptr);
    ++span_events;
    long long ts = static_cast<long long>(event.Get("ts")->number);
    long long dur = static_cast<long long>(event.Get("dur")->number);
    EXPECT_GE(ts, 0);
    EXPECT_GE(dur, 0);
    if (dur > 0) {
      by_track[{static_cast<int>(event.Get("pid")->number),
                static_cast<int>(event.Get("tid")->number)}]
          .emplace_back(ts, ts + dur);
    }
  }
  EXPECT_GE(span_events, 4u);

  // Per track, spans either nest or are disjoint (never partially overlap)
  // — the invariant Perfetto's track builder needs.
  for (auto& [track, spans] : by_track) {
    std::sort(spans.begin(), spans.end());
    std::vector<std::pair<long long, long long>> stack;
    for (const auto& span : spans) {
      while (!stack.empty() && span.first >= stack.back().second) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        EXPECT_LE(span.second, stack.back().second)
            << "pid " << track.first << " tid " << track.second << ": span ["
            << span.first << ", " << span.second
            << ") straddles its parent";
      }
      stack.push_back(span);
    }
  }
}

TEST(TelemetryEndToEnd, PrometheusExportCoversLabeledFamilies) {
  MixedRun run(/*telemetry_enabled=*/true);
  std::ostringstream out;
  WritePrometheus(run.rig->wlm.telemetry().metrics(), out);
  const std::string text = out.str();

  size_t families = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) ++families;
  }
  EXPECT_GE(families, 10u);
  EXPECT_NE(text.find("wlm_requests_submitted_total{workload=\"bi\"}"),
            std::string::npos);
  EXPECT_NE(text.find("wlm_response_seconds_bucket{"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("wlm_cpu_utilization"), std::string::npos);
}

TEST(TelemetryEndToEnd, SeriesAndEventLogExportsAreWellFormed) {
  MixedRun run(/*telemetry_enabled=*/true);
  std::ostringstream jsonl;
  WriteSeriesJsonl(run.rig->monitor, jsonl);
  std::istringstream lines(jsonl.str());
  std::string line;
  size_t rows = 0;
  while (std::getline(lines, line)) {
    JsonValue row;
    ASSERT_TRUE(JsonParser(line).Parse(&row)) << line;
    ASSERT_NE(row.Get("series"), nullptr);
    ASSERT_NE(row.Get("time"), nullptr);
    ASSERT_NE(row.Get("value"), nullptr);
    ++rows;
  }
  EXPECT_GT(rows, 0u);

  std::ostringstream csv;
  WriteSeriesCsv(run.rig->monitor, csv);
  EXPECT_EQ(csv.str().rfind("series,time,value\n", 0), 0u);

  std::ostringstream events;
  WriteEventLogJsonl(run.rig->wlm.event_log(), events);
  std::istringstream event_lines(events.str());
  size_t event_rows = 0;
  while (std::getline(event_lines, line)) {
    JsonValue row;
    ASSERT_TRUE(JsonParser(line).Parse(&row)) << line;
    ASSERT_NE(row.Get("type"), nullptr);
    ++event_rows;
  }
  EXPECT_EQ(event_rows, run.rig->wlm.event_log().size());
}

// Determinism contract: every export surface must be byte-stable across two
// identical runs. Guards against hash-order iteration sneaking into an
// exporter (see DESIGN.md "Determinism contract").
// ---------------------------------------------------------------------------
// Latency decomposition: profiles, conservation, flight recorder
// ---------------------------------------------------------------------------

/// A profile store as the facade keeps one: a view of a tracer's records.
/// Begin creates the query's trace and Finalize finishes it first, as the
/// facade's hooks do.
struct TracedProfiles {
  explicit TracedProfiles(size_t bound = 8192) : tracer(bound) {}

  void Begin(QueryId id, const std::string& workload, QueryKind kind,
             double now, uint64_t journey = 0) {
    tracer.GetOrCreate(id, workload, kind, now);
    store.Begin(id, journey);
  }
  const QueryProfile* Finalize(QueryId id, WorkloadId workload_id, double now,
                               std::string_view outcome,
                               std::string_view detail) {
    tracer.FinishTrace(id, now);
    return store.Finalize(id, workload_id, now, outcome, detail);
  }

  Tracer tracer;
  ProfileStore store{&tracer};
};

TEST(ProfileStore, QueueDisciplineFlipSplitsWaitExactly) {
  TracedProfiles profiles(16);
  ProfileStore& store = profiles.store;
  profiles.Begin(7, "bi", QueryKind::kBiQuery, 0.0);
  store.OpenQueueWait(7, 0.0);
  store.SetQueueDiscipline(true, 3.0);   // FIFO -> LIFO at t=3
  store.SetQueueDiscipline(false, 5.0);  // and back at t=5
  const QueryProfile* p = profiles.Finalize(7, 0, 9.0, "shed", "codel");
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->seconds(Phase::kAdmissionQueue), 3.0 + 4.0);
  EXPECT_DOUBLE_EQ(p->seconds(Phase::kOverloadQueue), 2.0);
  EXPECT_DOUBLE_EQ(p->PhaseSum(), p->WallSeconds());
  EXPECT_EQ(p->DominantPhase(), Phase::kAdmissionQueue);
}

TEST(ProfileStore, RollupsListByWorkloadName) {
  TracedProfiles profiles(16);
  ProfileStore& store = profiles.store;
  profiles.Begin(1, "oltp", QueryKind::kOltpTransaction, 0.0);
  profiles.Begin(2, "bi", QueryKind::kBiQuery, 0.0);
  profiles.Begin(3, "oltp", QueryKind::kOltpTransaction, 0.0);
  profiles.Begin(4, "idle", QueryKind::kBiQuery, 0.0);
  store.OpenQueueWait(1, 0.0);
  store.OpenQueueWait(3, 0.0);
  ASSERT_NE(profiles.Finalize(1, 0, 1.0, "completed", ""), nullptr);
  ASSERT_NE(profiles.Finalize(2, 1, 2.0, "completed", ""), nullptr);
  ASSERT_NE(profiles.Finalize(3, 0, 4.0, "completed", ""), nullptr);
  const std::map<std::string, ClassProfileRollup> rollups = store.rollups();
  // Only finalized classes appear, in name order.
  ASSERT_EQ(rollups.size(), 2u);
  EXPECT_EQ(rollups.begin()->first, "bi");
  EXPECT_EQ(rollups.at("bi").count, 1);
  EXPECT_EQ(rollups.at("oltp").count, 2);
  const auto queue = static_cast<size_t>(Phase::kAdmissionQueue);
  EXPECT_DOUBLE_EQ(rollups.at("oltp").phase_seconds[queue], 5.0);
  EXPECT_DOUBLE_EQ(rollups.at("bi").phase_seconds[queue], 0.0);
}

TEST(ProfileStore, EvictsOldestTerminalProfilesOnly) {
  TracedProfiles profiles(2);
  ProfileStore& store = profiles.store;
  profiles.Begin(1, "w", QueryKind::kOltpTransaction, 0.0);
  profiles.Begin(2, "w", QueryKind::kOltpTransaction, 0.0);
  ASSERT_NE(profiles.Finalize(1, 0, 1.0, "completed", ""), nullptr);
  // Store is at capacity but only query 1 is terminal; query 1 goes.
  profiles.Begin(3, "w", QueryKind::kOltpTransaction, 2.0);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.evicted(), 1);
  EXPECT_EQ(store.Find(1), nullptr);
  EXPECT_NE(store.Find(2), nullptr);
  EXPECT_NE(store.Find(3), nullptr);
}

std::vector<QueryId> ProfileIds(const ProfileStore& store) {
  std::vector<QueryId> ids;
  for (const QueryProfile* profile : store.Profiles()) {
    ids.push_back(profile->id);
  }
  return ids;
}

TEST(ProfileStore, EvictsEveryTerminalProfileWhileOverBound) {
  TracedProfiles profiles(2);
  ProfileStore& store = profiles.store;
  for (QueryId id = 1; id <= 4; ++id) {
    profiles.Begin(id, "w", QueryKind::kOltpTransaction, 0.0);
  }
  EXPECT_EQ(store.size(), 4u);
  for (QueryId id = 1; id <= 3; ++id) {
    ASSERT_NE(profiles.Finalize(id, 0, 1.0, "completed", ""), nullptr);
  }
  profiles.Begin(5, "w", QueryKind::kOltpTransaction, 2.0);
  EXPECT_EQ(store.evicted(), 3);
  EXPECT_EQ(ProfileIds(store), (std::vector<QueryId>{4, 5}));
  profiles.Begin(6, "w", QueryKind::kOltpTransaction, 3.0);
  profiles.Begin(7, "w", QueryKind::kOltpTransaction, 3.0);
  EXPECT_EQ(ProfileIds(store), (std::vector<QueryId>{4, 5, 6, 7}));
  EXPECT_EQ(store.size(), 4u);
  // Newest terminal profiles, oldest finish first.
  ASSERT_NE(profiles.Finalize(6, 0, 4.0, "completed", ""), nullptr);
  ASSERT_NE(profiles.Finalize(4, 0, 5.0, "killed", "timeout"), nullptr);
  std::vector<QueryId> recent;
  for (const QueryProfile& p : store.RecentTerminal(10)) {
    recent.push_back(p.id);
  }
  EXPECT_EQ(recent, (std::vector<QueryId>{6, 4}));
  ASSERT_EQ(store.RecentTerminal(1).size(), 1u);
  EXPECT_EQ(store.RecentTerminal(1)[0].id, 4u);
}

TEST(ProfileStore, ReusedSlotEqualsAFreshProfile) {
  TracedProfiles profiles(1);
  ProfileStore& store = profiles.store;
  profiles.Begin(1, "bi", QueryKind::kBiQuery, 0.0, /*journey=*/9);
  store.OpenQueueWait(1, 0.0);
  store.MarkDispatched(1, 1.0);
  QueryOutcome outcome;
  outcome.cpu_used = 2.0;
  outcome.io_used = 30.0;
  outcome.memory_granted_mb = 64.0;
  outcome.lock_hold_seconds = 0.5;
  outcome.spill_factor = 1.5;
  outcome.buffer_hit_ratio = 0.7;
  outcome.phases.cpu_run_seconds = 2.0;
  outcome.phases.io_stall_seconds = 1.0;
  store.AccumulateSegment(1, outcome);
  store.CountRequeue(1);
  store.CountSuspend(1);
  store.OpenWait(1, Phase::kRetryBackoff, 4.0);
  const QueryProfile* first = profiles.Finalize(
      1, 0, 5.0, "killed", "a detail long enough to allocate");
  ASSERT_NE(first, nullptr);

  profiles.Begin(2, "oltp", QueryKind::kOltpTransaction, 6.0);
  const QueryProfile* reused = store.Find(2);
  ASSERT_EQ(reused, first) << "the evicted profile's slot is reused";
  TracedProfiles fresh_profiles;
  fresh_profiles.Begin(2, "oltp", QueryKind::kOltpTransaction, 6.0);
  const QueryProfile* fresh = fresh_profiles.store.Find(2);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(reused->id, fresh->id);
  EXPECT_EQ(reused->journey, fresh->journey);
  EXPECT_EQ(reused->workload, fresh->workload);
  EXPECT_EQ(reused->kind, fresh->kind);
  EXPECT_EQ(reused->arrival_time, fresh->arrival_time);
  EXPECT_EQ(reused->first_dispatch_time, fresh->first_dispatch_time);
  EXPECT_EQ(reused->finish_time, fresh->finish_time);
  EXPECT_EQ(reused->outcome, fresh->outcome);
  EXPECT_EQ(reused->detail, fresh->detail);
  EXPECT_EQ(reused->phase_seconds, fresh->phase_seconds);
  EXPECT_EQ(reused->resources.cpu_seconds, fresh->resources.cpu_seconds);
  EXPECT_EQ(reused->resources.io_ops, fresh->resources.io_ops);
  EXPECT_EQ(reused->resources.peak_memory_mb,
            fresh->resources.peak_memory_mb);
  EXPECT_EQ(reused->resources.lock_hold_seconds,
            fresh->resources.lock_hold_seconds);
  EXPECT_EQ(reused->resources.spill_factor, fresh->resources.spill_factor);
  EXPECT_EQ(reused->resources.buffer_hit_ratio,
            fresh->resources.buffer_hit_ratio);
  EXPECT_EQ(reused->run_segments, fresh->run_segments);
  EXPECT_EQ(reused->suspend_count, fresh->suspend_count);
  EXPECT_EQ(reused->requeue_count, fresh->requeue_count);
  EXPECT_EQ(store.OpenSegment(2).phase, -1) << "no wait segment carried over";
  EXPECT_EQ(store.RecentTerminal(8).size(), 0u);
}

// One record per query: past the tracer's bound, with the fault track
// holding one of its slots, the retained profiles are exactly the retained
// queries' traces, and a profile is evicted when its trace is.
TEST(TelemetryRecords, ProfilesAreRetainedAndEvictedWithTheirTraces) {
  Simulation sim;
  DatabaseEngine engine(&sim, EngineConfig());
  Monitor monitor(&sim, &engine, 1.0);
  Telemetry telemetry(&sim, &monitor);
  ASSERT_TRUE(telemetry.profiling());
  telemetry.OnFaultBegin("disk_degrade", "factor=0.5");
  QueryOutcome outcome;
  outcome.kind = OutcomeKind::kCompleted;
  outcome.cpu_used = 0.01;
  outcome.phases.cpu_run_seconds = 0.01;
  for (QueryId id = 1; id <= 9000; ++id) {
    outcome.id = id;
    telemetry.OnSubmit(id, 0, "oltp", QueryKind::kOltpTransaction);
    telemetry.OnAdmitted(id);
    telemetry.OnDispatch(id, 0, "oltp", nullptr);
    telemetry.OnRunSegment(id, outcome);
    telemetry.OnTerminal(id, 0, "oltp", WlmEventType::kCompleted, 0.01, 0.0,
                         outcome);
  }
  std::vector<QueryId> traced;
  for (const QueryTrace* trace : telemetry.tracer().Traces()) {
    if (!IsSyntheticQueryId(trace->id)) traced.push_back(trace->id);
  }
  EXPECT_EQ(traced.size(), 8191u) << "the fault track holds a slot";
  EXPECT_EQ(ProfileIds(telemetry.profiles()), traced);
  EXPECT_EQ(telemetry.profiles().evicted(), telemetry.tracer().evicted());
}

TEST(ProfileStore, ExplainOutcomeVerdicts) {
  QueryProfile p;
  EXPECT_EQ(ExplainOutcome(p), "live");
  p.outcome = "rejected";
  p.detail = "mpl gate";
  EXPECT_EQ(ExplainOutcome(p), "rejected: mpl gate");
  p.outcome = "completed";
  p.detail.clear();
  p.phase_seconds[static_cast<size_t>(Phase::kCpuRun)] = 3.0;
  p.phase_seconds[static_cast<size_t>(Phase::kLockWait)] = 1.0;
  EXPECT_EQ(ExplainOutcome(p), "healthy: 75% cpu_run");
  p.phase_seconds[static_cast<size_t>(Phase::kLockWait)] = 9.0;
  EXPECT_EQ(ExplainOutcome(p), "slow: 75% lock_wait");
  p.outcome = "killed";
  p.detail = "timeout";
  EXPECT_EQ(ExplainOutcome(p), "killed: 75% lock_wait (timeout)");
}

TEST(FlightRecorder, CooldownAndDumpBudgetSuppressTriggers) {
  FlightRecorder::Options opts;
  opts.max_postmortems = 2;
  opts.cooldown_seconds = 1.0;
  FlightRecorder recorder(opts);
  Tracer tracer;
  const ProfileStore profiles(&tracer);
  const EventLog log;
  ControllerStateSnapshot state;
  state.time = 0.0;
  recorder.Trigger("a", state, profiles, log);
  state.time = 0.5;
  recorder.Trigger("b", state, profiles, log);  // within cooldown
  state.time = 2.0;
  recorder.Trigger("c", state, profiles, log);
  state.time = 4.0;
  recorder.Trigger("d", state, profiles, log);  // dump budget spent
  ASSERT_EQ(recorder.postmortems().size(), 2u);
  EXPECT_EQ(recorder.triggers_seen(), 4);
  EXPECT_EQ(recorder.triggers_suppressed(), 2);
  EXPECT_EQ(recorder.postmortems()[0].reason, "a");
  EXPECT_EQ(recorder.postmortems()[1].reason, "c");
}

TEST(FlightRecorder, DumpHoldsNewestTerminalProfilesInFinalizeOrder) {
  FlightRecorder::Options opts;
  opts.max_profiles = 3;
  opts.cooldown_seconds = 0.0;
  FlightRecorder recorder(opts);
  TracedProfiles profiles;
  const EventLog log;
  for (QueryId id = 1; id <= 6; ++id) {
    profiles.Begin(id, "oltp", QueryKind::kOltpTransaction, 0.0);
  }
  ControllerStateSnapshot state;
  recorder.Trigger("none_finished", state, profiles.store, log);
  // Finalized out of creation order; query 6 stays live.
  double now = 1.0;
  for (QueryId id : {4, 1, 5, 2, 3}) {
    ASSERT_NE(profiles.Finalize(id, 0, now, "completed", ""), nullptr);
    now += 1.0;
  }
  state.time = now;
  recorder.Trigger("five_finished", state, profiles.store, log);

  ASSERT_EQ(recorder.postmortems().size(), 2u);
  EXPECT_TRUE(recorder.postmortems()[0].recent_profiles.empty());
  const std::vector<QueryProfile>& dumped =
      recorder.postmortems()[1].recent_profiles;
  ASSERT_EQ(dumped.size(), 3u);
  EXPECT_EQ(dumped[0].id, 5u);
  EXPECT_EQ(dumped[1].id, 2u);
  EXPECT_EQ(dumped[2].id, 3u);
  for (const QueryProfile& p : dumped) {
    EXPECT_TRUE(p.terminal()) << p.id;
  }
}

TEST(TelemetryEndToEnd, PhaseDecompositionConservesWallTime) {
  MixedRun run(/*telemetry_enabled=*/true);
  Telemetry& telemetry = run.rig->wlm.telemetry();
  const ProfileStore& profiles = telemetry.profiles();

  // Every terminal request carries a profile whose phases partition its
  // wall time exactly (the conservation invariant).
  size_t terminal_requests = 0;
  for (const Request* request : run.rig->requests.All()) {
    if (!request->terminal()) continue;
    ++terminal_requests;
    const QueryProfile* p = profiles.Find(request->spec.id);
    ASSERT_NE(p, nullptr) << "query " << request->spec.id;
    ASSERT_TRUE(p->terminal());
    EXPECT_NEAR(p->PhaseSum(), p->WallSeconds(), 1e-6)
        << "query " << p->id << " (" << p->outcome << ")";
    EXPECT_NEAR(p->WallSeconds(), request->ResponseTime(), 1e-9);
    if (p->outcome == "completed") {
      EXPECT_GE(p->run_segments, 1);
      EXPECT_GT(p->resources.cpu_seconds, 0.0);
    }
  }
  ASSERT_GE(terminal_requests, 10u);

  // The throttled BI query attributes nonzero throttled time, and its
  // resource attribution saw the engine's actual consumption.
  const QueryProfile* bi = profiles.Find(1);
  ASSERT_NE(bi, nullptr);
  EXPECT_GT(bi->seconds(Phase::kThrottled), 0.0);
  EXPECT_GT(bi->seconds(Phase::kCpuRun), 0.0);
  EXPECT_NEAR(bi->resources.cpu_seconds, 2.0, 1e-6);

  // The per-class rollup sums its members' phase vectors.
  const auto& rollups = profiles.rollups();
  ASSERT_TRUE(rollups.count("bi") > 0 && rollups.count("oltp") > 0);
  std::array<double, kPhaseCount> bi_sum{};
  int64_t bi_count = 0;
  for (const QueryProfile* p : profiles.Profiles()) {
    if (!p->terminal() || p->workload != "bi") continue;
    ++bi_count;
    for (size_t i = 0; i < kPhaseCount; ++i) bi_sum[i] += p->phase_seconds[i];
  }
  EXPECT_EQ(rollups.at("bi").count, bi_count);
  for (size_t i = 0; i < kPhaseCount; ++i) {
    EXPECT_NEAR(rollups.at("bi").phase_seconds[i], bi_sum[i], 1e-9);
  }

  // wlm_phase_seconds_total mirrors the rollups for nonzero phases.
  const Counter* cpu_run = telemetry.metrics().FindCounter(
      "wlm_phase_seconds_total",
      {{"phase", "cpu_run"}, {"workload", "bi"}});
  ASSERT_NE(cpu_run, nullptr);
  EXPECT_NEAR(cpu_run->value(),
              rollups.at("bi").phase_seconds[static_cast<size_t>(
                  Phase::kCpuRun)],
              1e-9);
}

TEST(TelemetryEndToEnd, SloViolationTripsFlightRecorder) {
  MixedRun run(/*telemetry_enabled=*/true);
  Telemetry& telemetry = run.rig->wlm.telemetry();
  ASSERT_GE(telemetry.watchdog().violations().size(), 1u);

  const FlightRecorder& recorder = telemetry.flight_recorder();
  ASSERT_GE(recorder.postmortems().size(), 1u);
  const PostMortem& dump = recorder.postmortems().front();
  EXPECT_EQ(dump.reason.rfind("slo_violation:", 0), 0u) << dump.reason;
  EXPECT_FALSE(dump.recent_profiles.empty());
  EXPECT_FALSE(dump.recent_events.empty());
  // The dump counter matches the captures (not the raw trigger count).
  const Counter* dumps =
      telemetry.metrics().FindCounter("wlm_flight_recorder_dumps_total");
  ASSERT_NE(dumps, nullptr);
  EXPECT_DOUBLE_EQ(dumps->value(),
                   static_cast<double>(recorder.postmortems().size()));

  // Both dump formats render and the JSONL side parses line by line.
  std::ostringstream jsonl;
  recorder.WriteJsonl(jsonl);
  std::istringstream lines(jsonl.str());
  std::string line;
  size_t parsed = 0;
  while (std::getline(lines, line)) {
    JsonValue value;
    ASSERT_TRUE(JsonParser(line).Parse(&value)) << line;
    ASSERT_EQ(value.kind, JsonValue::Kind::kObject);
    ASSERT_NE(value.Get("type"), nullptr);
    ++parsed;
  }
  EXPECT_GT(parsed, recorder.postmortems().size());
  std::ostringstream ascii;
  recorder.WriteAscii(ascii);
  EXPECT_NE(ascii.str().find("== post-mortem @"), std::string::npos);
}

TEST(TelemetryEndToEnd, ProfilingOffKeepsTracesButRecordsNoProfiles) {
  WlmConfig config;
  config.telemetry.profiling = false;
  TestRig rig(TestEngineConfig(), /*interval=*/0.25, config);
  rig.wlm.set_scheduler(std::make_unique<FifoScheduler>(/*mpl=*/2));
  rig.sim.Schedule(0.0,
                   [&rig] { (void)rig.wlm.Submit(OltpSpec(1)); });
  rig.sim.RunUntil(10.0);

  Telemetry& telemetry = rig.wlm.telemetry();
  EXPECT_FALSE(telemetry.profiling());
  EXPECT_EQ(telemetry.profiles().size(), 0u);
  EXPECT_TRUE(telemetry.flight_recorder().postmortems().empty());
  EXPECT_EQ(telemetry.metrics().FindCounter(
                "wlm_phase_seconds_total",
                {{"phase", "cpu_run"}, {"workload", "default"}}),
            nullptr);
  // The trace surface is unaffected.
  EXPECT_EQ(telemetry.tracer().Traces().size(), 1u);
}

TEST(TelemetryEndToEnd, ExportsAreByteStableAcrossIdenticalRuns) {
  MixedRun first(/*telemetry_enabled=*/true);
  MixedRun second(/*telemetry_enabled=*/true);

  auto capture = [](const MixedRun& run) {
    std::map<std::string, std::string> out;
    std::ostringstream prometheus;
    WritePrometheus(run.rig->wlm.telemetry().metrics(), prometheus);
    out["prometheus"] = prometheus.str();
    std::ostringstream trace;
    WriteChromeTrace(run.rig->wlm.telemetry().tracer(), trace);
    out["chrome_trace"] = trace.str();
    std::ostringstream jsonl;
    WriteSeriesJsonl(run.rig->monitor, jsonl);
    out["series_jsonl"] = jsonl.str();
    std::ostringstream csv;
    WriteSeriesCsv(run.rig->monitor, csv);
    out["series_csv"] = csv.str();
    std::ostringstream events;
    WriteEventLogJsonl(run.rig->wlm.event_log(), events);
    out["event_log_jsonl"] = events.str();
    const FlightRecorder& recorder =
        run.rig->wlm.telemetry().flight_recorder();
    std::ostringstream postmortem_jsonl;
    recorder.WriteJsonl(postmortem_jsonl);
    out["postmortem_jsonl"] = postmortem_jsonl.str();
    std::ostringstream postmortem_ascii;
    recorder.WriteAscii(postmortem_ascii);
    out["postmortem_ascii"] = postmortem_ascii.str();
    return out;
  };

  std::map<std::string, std::string> a = capture(first);
  std::map<std::string, std::string> b = capture(second);
  for (const auto& [name, text] : a) {
    EXPECT_FALSE(text.empty()) << name;
    EXPECT_EQ(text, b[name]) << name << " output differs between runs";
  }
}

/// The event log as JSONL, minus the SLO watchdog's kSloViolation lines:
/// the watchdog runs only with telemetry on, and the facade writes every
/// other line the same way on or off.
std::string EventLogWithoutSloViolations(const WorkloadManager& wlm) {
  std::ostringstream all;
  WriteEventLogJsonl(wlm.event_log(), all);
  std::istringstream lines(all.str());
  std::string kept;
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"type\":\"slo_violation\"") != std::string::npos) {
      continue;
    }
    kept += line;
    kept += '\n';
  }
  return kept;
}

TEST(TelemetryEndToEnd, DisabledTelemetryChangesNoOutcome) {
  MixedRun on(/*telemetry_enabled=*/true);
  MixedRun off(/*telemetry_enabled=*/false);

  // Identical simulated results either way: telemetry is purely passive.
  for (const char* tag : {"bi", "oltp"}) {
    const TagStats& a = on.rig->monitor.tag_stats(tag);
    const TagStats& b = off.rig->monitor.tag_stats(tag);
    EXPECT_EQ(a.completed, b.completed) << tag;
    EXPECT_DOUBLE_EQ(a.response_times.mean(), b.response_times.mean()) << tag;
  }
  // The event log is written either way, byte for byte the same.
  EXPECT_GE(on.rig->wlm.event_log().CountOf(WlmEventType::kSloViolation), 1);
  EXPECT_EQ(off.rig->wlm.event_log().CountOf(WlmEventType::kSloViolation), 0);
  const std::string on_log = EventLogWithoutSloViolations(on.rig->wlm);
  EXPECT_GT(on_log.size(), 0u);
  EXPECT_EQ(on_log, EventLogWithoutSloViolations(off.rig->wlm));
  // And the disabled side recorded nothing else.
  EXPECT_EQ(off.rig->wlm.telemetry().tracer().Traces().size(), 0u);
  EXPECT_EQ(off.rig->wlm.telemetry().metrics().family_count(), 0u);
}

/// Refuses utility statements at arrival (the run's kRejected source).
/// One scripted run that makes the facade write every event type it owns:
/// submit/dispatch/complete, a rejection, a kill-and-resubmit, a suspend
/// and resume, throttle/pause/reprioritize, a deadlock victim, a fault
/// window with a fault retry and a deadline-denied retry, and overload
/// protection (breaker trip, half-open and close, brownout steps, sheds).
struct EveryEventRun {
  std::unique_ptr<TestRig> rig;

  explicit EveryEventRun(bool telemetry_enabled) {
    EngineConfig engine = TestEngineConfig();
    engine.deadlock_check_period = 0.1;
    WlmConfig config;
    config.telemetry.enabled = telemetry_enabled;
    config.resubmit_deadlock_victims = false;
    config.resilience.enabled = true;
    config.overload.enabled = true;
    config.overload.codel.target_seconds = 100.0;  // no CoDel sheds
    config.overload.deadline_shedding = false;
    config.overload.deadline_slack = 0.0;  // explicit deadlines only
    config.overload.breaker_options.window_seconds = 10.0;
    config.overload.breaker_options.min_samples = 4;
    config.overload.breaker_options.open_seconds = 2.0;
    config.overload.breaker_options.half_open_probes = 2;
    config.overload.breaker_options.close_rate = 0.0;
    config.overload.brownout_options.max_level = 1;  // sheds background only
    rig = std::make_unique<TestRig>(engine, /*interval=*/0.25, config);
    WorkloadManager& wlm = rig->wlm;

    WorkloadDefinition bi;
    bi.name = "bi";
    bi.priority = BusinessPriority::kLow;
    bi.slos.push_back(ServiceLevelObjective::AvgResponse(0.5));
    wlm.DefineWorkload(bi);
    WorkloadDefinition oltp;
    oltp.name = "oltp";
    oltp.priority = BusinessPriority::kHigh;
    wlm.DefineWorkload(oltp);
    auto classifier = std::make_unique<StaticClassifier>();
    ClassificationRule bi_rule;
    bi_rule.workload = "bi";
    bi_rule.kind = QueryKind::kBiQuery;
    classifier->AddRule(bi_rule);
    ClassificationRule oltp_rule;
    oltp_rule.workload = "oltp";
    oltp_rule.kind = QueryKind::kOltpTransaction;
    classifier->AddRule(oltp_rule);
    wlm.set_classifier(std::move(classifier));
    wlm.AddAdmissionController(std::make_unique<RejectUtilities>());

    auto at = [this](double time, std::function<void()> fn) {
      rig->sim.Schedule(time, std::move(fn));
    };
    // Execution control on a long BI query and a long OLTP transaction.
    at(0.0, [&wlm] { (void)wlm.Submit(BiSpec(1, /*cpu=*/3.0, /*io=*/100.0)); });
    at(0.0, [&wlm] { (void)wlm.Submit(OltpSpec(2, /*cpu=*/2.0)); });
    at(0.0, [&wlm] {
      QuerySpec utility = OltpSpec(3);
      utility.kind = QueryKind::kUtility;
      (void)wlm.Submit(utility);
    });
    at(0.2, [&wlm] { (void)wlm.ThrottleRequest(1, 0.5); });
    at(0.3, [&wlm] { (void)wlm.PauseRequest(1, 0.1); });
    at(0.4, [&wlm] {
      (void)wlm.SetRequestPriority(1, BusinessPriority::kMedium);
    });
    at(0.5, [&wlm] { (void)wlm.KillRequest(2, /*resubmit=*/true); });
    at(0.6, [&wlm] {
      (void)wlm.SuspendRequest(1, SuspendStrategy::kDumpState);
    });
    // A lock-order cycle: the youngest member is the deadlock victim.
    at(0.0, [&wlm] {
      QuerySpec blocker = OltpSpec(20, /*cpu=*/0.3);
      blocker.locks = {{1, true}, {2, true}};
      QuerySpec a = OltpSpec(21, /*cpu=*/3.0);
      a.locks = {{1, true}, {2, true}};
      QuerySpec b = OltpSpec(22, /*cpu=*/3.0);
      b.locks = {{2, true}, {1, true}};
      (void)wlm.Submit(blocker);
      (void)wlm.Submit(a);
      (void)wlm.Submit(b);
    });
    // A fault window: one abort retries after backoff, one is denied
    // because its deadline is out of reach.
    at(1.0, [&wlm] { wlm.NotifyFaultBegin("cpu_slowdown", "factor=2"); });
    at(1.1, [&wlm] {
      (void)wlm.Submit(OltpSpec(10, /*cpu=*/1.0));
      QuerySpec doomed = OltpSpec(11, /*cpu=*/1.0);
      doomed.deadline_seconds = 0.3;
      (void)wlm.Submit(doomed);
    });
    at(1.2, [&wlm] {
      (void)wlm.AbortRequestByFault(10, "injected");
      (void)wlm.AbortRequestByFault(11, "injected");
    });
    at(2.0, [&wlm] { wlm.NotifyFaultEnd("cpu_slowdown", 1.0); });
    // Overload: four missed deadlines trip the BI breaker and step the
    // brownout up; arrivals while it is open are shed; healthy probes
    // after the cool-down close it again.
    for (QueryId id = 30; id < 34; ++id) {
      at(3.0, [&wlm, id] {
        QuerySpec late = BiSpec(id, /*cpu=*/0.05, /*io=*/10.0);
        late.deadline_seconds = 0.001;
        (void)wlm.Submit(late);
      });
    }
    at(4.0, [&wlm] { (void)wlm.Submit(BiSpec(40, 0.05, 10.0)); });
    for (QueryId id = 41; id < 43; ++id) {
      at(6.0, [&wlm, id] { (void)wlm.Submit(BiSpec(id, 0.05, 10.0)); });
    }
    rig->sim.RunUntil(20.0);
  }
};

TEST(TelemetryEndToEnd, EveryFacadeEventIsLoggedTheSameWithTelemetryOff) {
  EveryEventRun on(/*telemetry_enabled=*/true);
  EveryEventRun off(/*telemetry_enabled=*/false);

  // With telemetry off the facade still writes every event type it owns.
  const EventLog& log = off.rig->wlm.event_log();
  for (WlmEventType type :
       {WlmEventType::kSubmitted, WlmEventType::kRejected,
        WlmEventType::kDispatched, WlmEventType::kCompleted,
        WlmEventType::kKilled, WlmEventType::kAborted,
        WlmEventType::kResubmitted, WlmEventType::kSuspended,
        WlmEventType::kResumed, WlmEventType::kThrottled,
        WlmEventType::kPaused, WlmEventType::kReprioritized,
        WlmEventType::kFaultInjected, WlmEventType::kFaultRecovered,
        WlmEventType::kShed, WlmEventType::kRetryDenied,
        WlmEventType::kBreakerTripped, WlmEventType::kBreakerHalfOpen,
        WlmEventType::kBreakerClosed, WlmEventType::kBrownoutStepped}) {
    EXPECT_GE(log.CountOf(type), 1) << WlmEventTypeToString(type);
  }
  // Both resubmission paths: kill-and-resubmit and fault retry.
  int after_kill = 0;
  int fault_retry = 0;
  for (const WlmEvent& event : log.OfType(WlmEventType::kResubmitted)) {
    after_kill += event.detail == "after kill";
    fault_retry += event.detail.rfind("fault retry", 0) == 0;
  }
  EXPECT_EQ(after_kill, 1);
  EXPECT_EQ(fault_retry, 1);

  EXPECT_EQ(EventLogWithoutSloViolations(on.rig->wlm),
            EventLogWithoutSloViolations(off.rig->wlm));
}

// ---------------------------------------------------------------------------
// Metric handles: each series is looked up once, on its first use
// ---------------------------------------------------------------------------

/// The series a registry exposes: exposition lines without their values.
std::vector<std::string> SeriesOf(const MetricsRegistry& metrics) {
  std::ostringstream out;
  WritePrometheus(metrics, out);
  std::vector<std::string> series;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    series.push_back(line.substr(0, line.rfind(' ')));
  }
  return series;
}

/// OLTP transactions on one workload, evenly spaced over 10 s, then a
/// drain to 15 s. The arrival count is the only input that varies.
struct OltpRun {
  std::unique_ptr<TestRig> rig;

  explicit OltpRun(int queries) {
    rig = std::make_unique<TestRig>();
    WorkloadManager& wlm = rig->wlm;
    WorkloadDefinition oltp;
    oltp.name = "oltp";
    wlm.DefineWorkload(oltp);
    auto classifier = std::make_unique<StaticClassifier>();
    ClassificationRule rule;
    rule.workload = "oltp";
    rule.kind = QueryKind::kOltpTransaction;
    classifier->AddRule(rule);
    wlm.set_classifier(std::move(classifier));
    wlm.set_scheduler(std::make_unique<FifoScheduler>(/*mpl=*/4));
    for (int i = 0; i < queries; ++i) {
      rig->sim.ScheduleAt(10.0 * i / queries, [&wlm, i] {
        (void)wlm.Submit(OltpSpec(static_cast<QueryId>(i + 1)));
      });
    }
    rig->sim.RunUntil(15.0);
  }
};

// Each call site that used to snprintf a number keeps its exact text;
// FormatTest checks the formatter itself against printf.
TEST(ExportFormats, CallSitesKeepPrintfText) {
  Simulation sim;
  DatabaseEngine engine(&sim, TestEngineConfig());
  Monitor monitor(&sim, &engine, 1.0);
  Telemetry telemetry(&sim, &monitor);
  telemetry.OnSubmit(1, 0, "oltp", QueryKind::kOltpTransaction);
  telemetry.OnAdmitted(1);
  telemetry.OnDispatch(1, 0, "oltp", nullptr);
  telemetry.OnThrottle(1, 0, "oltp", 0.25);
  QueryOutcome outcome;
  outcome.id = 1;
  outcome.cpu_used = 1.23456;
  outcome.io_used = 12.5;  // a tie: printf's %.0f rounds it to even
  outcome.spill_factor = 1.5;
  outcome.buffer_hit_ratio = 0.255;
  telemetry.OnTerminal(1, 0, "oltp", WlmEventType::kCompleted, 0.5, 0.0,
                       outcome);
  const QueryTrace* trace = telemetry.tracer().Find(1);
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->SpansOfKind(SpanKind::kExecute).size(), 1u);
  EXPECT_EQ(trace->Detail(*trace->SpansOfKind(SpanKind::kExecute)[0]),
            "outcome=completed cpu=1.235 io=12 spill=1.50 buffer_hit=0.26");
  ASSERT_EQ(trace->instants.size(), 1u);
  EXPECT_EQ(trace->Text(trace->instants[0].name), "throttle");
  EXPECT_EQ(trace->Text(trace->instants[0].detail), "duty=0.250");
  const std::vector<WlmEvent> throttled =
      telemetry.event_log().OfType(WlmEventType::kThrottled);
  ASSERT_EQ(throttled.size(), 1u);
  EXPECT_EQ(throttled[0].detail, "duty=0.250000");

  EventLog log;
  log.Append({1234.56789, WlmEventType::kSubmitted, 7, "bi", ""});
  log.Append({0.000012345, WlmEventType::kSubmitted, 8, "bi", ""});
  std::ostringstream jsonl;
  WriteEventLogJsonl(log, jsonl);
  EXPECT_NE(jsonl.str().find("{\"time\":1234.57,"), std::string::npos);
  EXPECT_NE(jsonl.str().find("{\"time\":1.2345e-05,"), std::string::npos);

  FlightRecorder recorder;
  ControllerStateSnapshot state;
  state.time = 2.5;
  state.cpu_utilization = 0.1234567;
  recorder.Trigger("test", state, telemetry.profiles(), log);
  std::ostringstream dump;
  recorder.WriteJsonl(dump);
  EXPECT_NE(dump.str().find("\"time\":2.500000,"), std::string::npos);
  EXPECT_NE(dump.str().find("\"cpu_utilization\":0.123457,"),
            std::string::npos);
}

TEST(TelemetryHandles, RegistryLookupsDoNotGrowWithQueries) {
  OltpRun light(500);
  OltpRun heavy(1000);
  ASSERT_EQ(light.rig->wlm.counters("oltp").completed, 500);
  ASSERT_EQ(heavy.rig->wlm.counters("oltp").completed, 1000);
  const MetricsRegistry& a = light.rig->wlm.telemetry().metrics();
  const MetricsRegistry& b = heavy.rig->wlm.telemetry().metrics();
  EXPECT_EQ(SeriesOf(a), SeriesOf(b));
  // Twice the queries, the same registry work: every per-query series is
  // resolved once and then reached through its handle.
  EXPECT_GT(a.lookups(), 0);
  EXPECT_EQ(a.lookups(), b.lookups());
}

TEST(TelemetryHandles, SeriesAppearOnlyOnFirstUse) {
  TestRig rig;
  WorkloadManager& wlm = rig.wlm;
  for (const char* name : {"oltp", "idle"}) {
    WorkloadDefinition def;
    def.name = name;
    wlm.DefineWorkload(def);
  }
  auto classifier = std::make_unique<StaticClassifier>();
  ClassificationRule rule;
  rule.workload = "oltp";
  rule.kind = QueryKind::kOltpTransaction;
  classifier->AddRule(rule);
  wlm.set_classifier(std::move(classifier));
  wlm.set_scheduler(std::make_unique<FifoScheduler>(/*mpl=*/1));
  rig.sim.Schedule(0.0, [&wlm] { (void)wlm.Submit(OltpSpec(1, /*cpu=*/1.0)); });
  rig.sim.Schedule(0.0, [&wlm] { (void)wlm.Submit(OltpSpec(2)); });
  rig.sim.RunUntil(0.2);

  const MetricsRegistry& metrics = wlm.telemetry().metrics();
  const MetricLabels oltp = {{"workload", "oltp"}};
  EXPECT_NE(metrics.FindCounter("wlm_requests_submitted_total", oltp),
            nullptr);
  EXPECT_EQ(metrics.FindCounter("wlm_requests_killed_total", oltp), nullptr);
  ASSERT_TRUE(wlm.KillRequest(1, /*resubmit=*/false).ok());
  const Counter* killed =
      metrics.FindCounter("wlm_requests_killed_total", oltp);
  ASSERT_NE(killed, nullptr);
  EXPECT_EQ(killed->value(), 1.0);
  rig.sim.RunUntil(2.0);

  // The defined workload that no query reached has only the occupancy
  // gauges every monitor sample sets; no lifecycle series.
  for (const std::string& series : SeriesOf(metrics)) {
    if (series.find("workload=\"idle\"") == std::string::npos) continue;
    EXPECT_TRUE(series.rfind("wlm_queue_depth{", 0) == 0 ||
                series.rfind("wlm_running{", 0) == 0)
        << series;
  }
}

}  // namespace
}  // namespace wlm
