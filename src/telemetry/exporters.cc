#include "telemetry/exporters.h"

#include <algorithm>
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

std::string FormatDouble(double value) { return FormatGeneral(value, 6); }

}  // namespace

std::string JsonEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
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

  for (const QueryTrace* trace : tracer.Traces()) {
    std::string thread = R"({"name":"thread_name","ph":"M","pid":1,"tid":)";
    thread += std::to_string(trace->tid);
    thread += R"(,"args":{"name":"q)";
    thread += std::to_string(trace->id);
    thread += " [";
    thread += JsonEscape(trace->workload);
    thread += R"(]"}})";
    WriteEvent(out, first, thread);

    for (const Span& span : trace->spans) {
      const double end = span.open() ? span.start : span.end;
      // Phase tiles partition a segment; they can straddle throttle/pause
      // windows on the query's own track, so they render as a parallel
      // "phase lane" process where each query still keeps its tid.
      const bool phase = span.kind == SpanKind::kPhase;
      std::string json = "{\"name\":\"";
      if (phase && !span.detail.empty()) {
        json += JsonEscape(span.detail);
      } else {
        json += SpanKindToString(span.kind);
      }
      json += "\",\"cat\":\"";
      json += JsonEscape(trace->workload);
      json += "\",\"ph\":\"X\",\"ts\":";
      json += std::to_string(ToMicros(span.start));
      json += ",\"dur\":";
      json += std::to_string(
          std::max(0LL, ToMicros(end) - ToMicros(span.start)));
      json += phase ? ",\"pid\":2,\"tid\":" : ",\"pid\":1,\"tid\":";
      json += std::to_string(trace->tid);
      json += ",\"args\":{\"query\":";
      json += std::to_string(trace->id);
      if (!span.detail.empty()) {
        json += ",\"detail\":\"";
        json += JsonEscape(span.detail);
        json += '"';
      }
      json += "}}";
      WriteEvent(out, first, json);
    }
    for (const TraceInstant& instant : trace->instants) {
      std::string json = "{\"name\":\"";
      json += JsonEscape(instant.name);
      json += "\",\"cat\":\"";
      json += JsonEscape(trace->workload);
      json += "\",\"ph\":\"X\",\"ts\":";
      json += std::to_string(ToMicros(instant.time));
      json += ",\"dur\":0,\"pid\":1,\"tid\":";
      json += std::to_string(trace->tid);
      json += ",\"args\":{\"query\":";
      json += std::to_string(trace->id);
      if (!instant.detail.empty()) {
        json += ",\"detail\":\"";
        json += JsonEscape(instant.detail);
        json += '"';
      }
      json += "}}";
      WriteEvent(out, first, json);
    }
  }

  if (monitor != nullptr) {
    for (const auto& [name, series] : monitor->all_series()) {
      for (const TimePoint& point : series.points()) {
        std::string json = "{\"name\":\"";
        json += JsonEscape(name);
        json += "\",\"ph\":\"C\",\"ts\":";
        json += std::to_string(ToMicros(point.time));
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
  for (const WlmEvent& event : log.events()) {
    out << "{\"time\":" << FormatDouble(event.time) << ",\"type\":\""
        << WlmEventTypeToString(event.type)
        << "\",\"query\":" << event.query << ",\"workload\":\""
        << JsonEscape(event.workload) << "\",\"detail\":\""
        << JsonEscape(event.detail) << "\"}\n";
  }
}

}  // namespace wlm
