#include "telemetry/exporters.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

#include "common/format.h"

namespace wlm {

namespace {

/// Simulated seconds -> integer trace microseconds.
long long ToMicros(double seconds) {
  return std::llround(seconds * 1e6);
}

void WriteEvent(std::ostream& out, bool& first, const std::string& json) {
  if (!first) out << ",\n";
  first = false;
  out << json;
}

template <typename Int>
void AppendInt(std::string& out, Int value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

std::string FormatDouble(double value) { return FormatGeneral(value, 6); }

/// Appends `value` escaped as JsonEscape does.
void AppendJsonEscaped(std::string& out, std::string_view value) {
  for (char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string JsonEscape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  AppendJsonEscaped(out, value);
  return out;
}

void WriteChromeTrace(const Tracer& tracer, std::ostream& out,
                      const Monitor* monitor) {
  out << "[\n";
  bool first = true;
  WriteEvent(out, first,
             R"({"name":"process_name","ph":"M","pid":1,"tid":0,)"
             R"("args":{"name":"wlm"}})");
  WriteEvent(out, first,
             R"({"name":"process_name","ph":"M","pid":2,"tid":0,)"
             R"("args":{"name":"wlm phases"}})");

  // Each event, and each span or instant text, is rendered into a buffer
  // reused for the whole export.
  std::string json;
  std::string text;
  for (const QueryTrace* trace : tracer.Traces()) {
    const std::string category = JsonEscape(trace->workload);
    json.assign(R"({"name":"thread_name","ph":"M","pid":1,"tid":)");
    AppendInt(json, trace->tid);
    json += R"(,"args":{"name":"q)";
    AppendInt(json, trace->id);
    json += " [";
    json += category;
    json += R"(]"}})";
    WriteEvent(out, first, json);

    for (const Span& span : trace->spans) {
      const double end = span.open() ? span.start : span.end;
      // Phase tiles partition a segment; they can straddle throttle/pause
      // windows on the query's own track, so they render as a parallel
      // "phase lane" process where each query still keeps its tid.
      const bool phase = span.kind == SpanKind::kPhase;
      text.clear();
      trace->AppendDetail(text, span);
      json.assign("{\"name\":\"");
      if (phase && !text.empty()) {
        AppendJsonEscaped(json, text);
      } else {
        json += SpanKindToString(span.kind);
      }
      json += "\",\"cat\":\"";
      json += category;
      json += "\",\"ph\":\"X\",\"ts\":";
      AppendInt(json, ToMicros(span.start));
      json += ",\"dur\":";
      AppendInt(json, std::max(0LL, ToMicros(end) - ToMicros(span.start)));
      json += phase ? ",\"pid\":2,\"tid\":" : ",\"pid\":1,\"tid\":";
      AppendInt(json, trace->tid);
      json += ",\"args\":{\"query\":";
      AppendInt(json, trace->id);
      if (!text.empty()) {
        json += ",\"detail\":\"";
        AppendJsonEscaped(json, text);
        json += '"';
      }
      json += "}}";
      WriteEvent(out, first, json);
    }
    for (const TraceInstant& instant : trace->instants) {
      text.clear();
      trace->AppendText(text, instant.name);
      json.assign("{\"name\":\"");
      AppendJsonEscaped(json, text);
      json += "\",\"cat\":\"";
      json += category;
      json += "\",\"ph\":\"X\",\"ts\":";
      AppendInt(json, ToMicros(instant.time));
      json += ",\"dur\":0,\"pid\":1,\"tid\":";
      AppendInt(json, trace->tid);
      json += ",\"args\":{\"query\":";
      AppendInt(json, trace->id);
      if (instant.detail != 0) {
        text.clear();
        trace->AppendText(text, instant.detail);
        json += ",\"detail\":\"";
        AppendJsonEscaped(json, text);
        json += '"';
      }
      json += "}}";
      WriteEvent(out, first, json);
    }
  }

  if (monitor != nullptr) {
    for (const auto& [name, series] : monitor->all_series()) {
      for (const TimePoint& point : series.points()) {
        json.assign("{\"name\":\"");
        AppendJsonEscaped(json, name);
        json += "\",\"ph\":\"C\",\"ts\":";
        AppendInt(json, ToMicros(point.time));
        json += ",\"pid\":1,\"args\":{\"value\":";
        json += FormatDouble(point.value);
        json += "}}";
        WriteEvent(out, first, json);
      }
    }
  }
  out << "\n]\n";
}

void WritePrometheus(const MetricsRegistry& metrics, std::ostream& out) {
  metrics.WritePrometheus(out);
}

void WriteSeriesJsonl(const Monitor& monitor, std::ostream& out) {
  for (const auto& [name, series] : monitor.all_series()) {
    for (const TimePoint& point : series.points()) {
      out << "{\"series\":\"" << JsonEscape(name)
          << "\",\"time\":" << FormatDouble(point.time)
          << ",\"value\":" << FormatDouble(point.value) << "}\n";
    }
  }
}

void WriteSeriesCsv(const Monitor& monitor, std::ostream& out) {
  out << "series,time,value\n";
  for (const auto& [name, series] : monitor.all_series()) {
    for (const TimePoint& point : series.points()) {
      out << name << ',' << FormatDouble(point.time) << ','
          << FormatDouble(point.value) << '\n';
    }
  }
}

void WriteEventLogJsonl(const EventLog& log, std::ostream& out) {
  std::string line;  // reused for every event
  log.ForEach([&](double time, WlmEventType type, QueryId query,
                  std::string_view workload, std::string_view detail) {
    line.assign("{\"time\":");
    line += FormatDouble(time);
    line += ",\"type\":\"";
    line += WlmEventTypeToString(type);
    line += "\",\"query\":";
    AppendInt(line, query);
    line += ",\"workload\":\"";
    AppendJsonEscaped(line, workload);
    line += "\",\"detail\":\"";
    AppendJsonEscaped(line, detail);
    line += "\"}\n";
    out << line;
  });
}

}  // namespace wlm
