#ifndef WLM_TELEMETRY_EXPORTERS_H_
#define WLM_TELEMETRY_EXPORTERS_H_

#include <ostream>
#include <string>
#include <string_view>

#include "engine/monitor.h"
#include "telemetry/event_log.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace wlm {

/// Chrome trace-event JSON (the array form), loadable in Perfetto and
/// chrome://tracing. Simulated seconds become trace microseconds. Each
/// query renders as one thread (tid = creation order) of pid 1 carrying
/// its lifecycle spans as complete ("X") events; instants are zero-length
/// "X" events. When `monitor` is non-null its time series are added as
/// counter ("C") tracks.
void WriteChromeTrace(const Tracer& tracer, std::ostream& out,
                      const Monitor* monitor = nullptr);

/// Prometheus text exposition 0.0.4 of every registered metric.
void WritePrometheus(const MetricsRegistry& metrics, std::ostream& out);

/// Every monitor series as JSONL: one {"series","time","value"} object
/// per point, series in name order, points in time order.
void WriteSeriesJsonl(const Monitor& monitor, std::ostream& out);

/// Every monitor series as long-form CSV: series,time,value.
void WriteSeriesCsv(const Monitor& monitor, std::ostream& out);

/// The retained event-log window as JSONL, oldest first.
void WriteEventLogJsonl(const EventLog& log, std::ostream& out);

/// Escapes a string for inclusion in a JSON string literal (no quotes).
std::string JsonEscape(std::string_view value);

}  // namespace wlm

#endif  // WLM_TELEMETRY_EXPORTERS_H_
