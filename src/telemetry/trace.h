#ifndef WLM_TELEMETRY_TRACE_H_
#define WLM_TELEMETRY_TRACE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "engine/types.h"
#include "telemetry/record_slots.h"

namespace wlm {

/// Phases of a request's life the tracer times. Span kinds on one query
/// either follow each other (queue / execute segments) or nest inside an
/// execute segment (throttle, pause, lock-wait, suspend-flush), which is
/// what lets the Chrome trace exporter emit them as stacked slices.
enum class SpanKind {
  kQueue,          // waiting in the manager's queue for dispatch
  kAdmit,          // admission decision (instantaneous in simulated time)
  kExecute,        // one engine execution segment (dispatch -> outcome)
  kThrottle,       // constant-throttle window (duty < 1)
  kPause,          // interrupt-throttle pause
  kLockWait,       // lock acquisition wait at the start of a segment
  kSuspendFlush,   // suspend requested -> state flush finished
  kSuspendedWait,  // suspended, waiting in the queue for resume
  kFault,          // fault window on the synthetic fault track (query 0)
  kOverload,       // overload episode (breaker open window, brownout
                   // level) on the synthetic overload track
  kPhase,          // latency-decomposition tile (detail = phase name);
                   // tiles partition a queue or execute segment and render
                   // on their own pid so they never straddle inner spans
};

/// Number of SpanKind values (keep in sync with the enum).
inline constexpr size_t kSpanKindCount = 11;

const char* SpanKindToString(SpanKind kind);

/// One timed phase of a query. `end < 0` means still open.
struct Span {
  SpanKind kind = SpanKind::kQueue;
  double start = 0.0;
  double end = -1.0;
  std::string detail;

  bool open() const { return end < 0.0; }
  double duration() const { return open() ? 0.0 : end - start; }
};

/// Point event on a query's timeline (kill issued, priority change, ...).
struct TraceInstant {
  double time = 0.0;
  std::string name;
  std::string detail;
};

/// Full lifecycle record of one request: every span and instant, in the
/// order they were opened. This is the per-query view the Monitor's
/// aggregate series cannot give.
struct QueryTrace {
  QueryId id = 0;
  std::string workload;
  QueryKind kind = QueryKind::kBiQuery;
  /// Display track for the Chrome trace exporter, assigned in creation
  /// (submission) order.
  int tid = 0;
  double start_time = 0.0;
  bool finished = false;
  std::vector<Span> spans;
  std::vector<TraceInstant> instants;

  /// Spans of one kind, in open order.
  std::vector<const Span*> SpansOfKind(SpanKind kind) const;
  /// Number of distinct span kinds present.
  size_t DistinctKinds() const;
  /// Sum of closed-span durations of one kind.
  double TotalOfKind(SpanKind kind) const;
};

/// Accumulates QueryTraces, bounded by `max_traces`: once the limit is
/// reached the oldest *finished* trace is evicted per new trace (live
/// queries are never dropped; their count is bounded by the MPL anyway).
/// An evicted trace's slot is reused in place (RecordSlots).
class Tracer {
 public:
  explicit Tracer(size_t max_traces = 8192);

  /// Creates (or returns) the trace of `id`.
  QueryTrace& GetOrCreate(QueryId id, const std::string& workload,
                          QueryKind kind, double now);
  const QueryTrace* Find(QueryId id) const;

  void OpenSpan(QueryId id, SpanKind kind, double now,
                std::string detail = "");
  /// Closes the most recent open span of `kind`; no-op when none is open.
  /// `append_detail` is appended to the span's detail.
  void CloseSpan(QueryId id, SpanKind kind, double now,
                 const std::string& append_detail = "");
  /// Records an already-closed span (used when the duration is only known
  /// after the fact, e.g. lock waits reported with the outcome).
  void AddClosedSpan(QueryId id, SpanKind kind, double start, double end,
                     std::string detail = "");
  /// Records a batch of already-closed spans with a single trace lookup
  /// (the per-segment phase tiles would otherwise pay one tree walk
  /// each). Spans are moved from; entries with end < start are skipped.
  void AddClosedSpans(QueryId id, Span* spans, size_t count);
  void Instant(QueryId id, std::string name, double now,
               std::string detail = "");

  /// Closes the open execute span (appending `append_detail`) and closes
  /// or clamps the inner throttle/pause/lock-wait spans to `now`, so a
  /// pre-recorded pause window never outlives the segment it belongs to.
  void CloseExecutionSegment(QueryId id, double now,
                             const std::string& append_detail);

  /// Terminal bookkeeping: closes every open span at `now` and clamps any
  /// span end past `now` back to it (a pre-recorded pause window may
  /// outlive a kill), keeping the trace nestable.
  void FinishTrace(QueryId id, double now);

  /// All traces, in creation (tid) order.
  std::vector<const QueryTrace*> Traces() const;
  size_t size() const { return traces_.size(); }
  int64_t evicted() const { return traces_.evicted(); }

 private:
  int next_tid_ = 1;
  // Every hook finds its trace here. Traces() restores tid order.
  RecordSlots<QueryTrace> traces_;
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_TRACE_H_
