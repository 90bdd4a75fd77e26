#ifndef WLM_TELEMETRY_TRACE_H_
#define WLM_TELEMETRY_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/types.h"
#include "telemetry/profile.h"
#include "telemetry/record_slots.h"

namespace wlm {

/// Phases of a request's life the tracer times. Span kinds on one query
/// either follow each other (queue / execute segments) or nest inside an
/// execute segment (throttle, pause, lock-wait, suspend-flush), which is
/// what lets the Chrome trace exporter emit them as stacked slices.
enum class SpanKind : uint8_t {
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
                   // tiles partition a query's wait and execute segments
                   // and render on their own pid so they never straddle
                   // inner spans
};

const char* SpanKindToString(SpanKind kind);

/// The static texts spans and instants carry, as codes of one closed table
/// (TraceTextToString). Codes, not interned pointers: a caller may format
/// a name into a stack buffer, whose address means nothing later.
enum class TraceText : uint8_t {
  kNone,
  // Span details.
  kAdmitted,
  kResumed,
  kResubmit,
  kBrownout,
  kOutcomeSuspended,
  kOutcomeResubmitted,
  kOutcomeFaultAbort,
  kOutcomeCompleted,
  kOutcomeKilled,
  kOutcomeAborted,
  // Instant names.
  kThrottle,
  kReprioritize,
  kEscalate,
  kShed,
  kRetryDenied,
  kFaultBegin,
  kFaultEnd,
  kFaultAbort,
  kFaultRetry,
  kBreakerClosed,
  kBreakerHalfOpen,
  kBreakerOpen,
  kQueueLifo,
  kQueueFifo,
  /// The first of the ten phase names (PhaseToString), in Phase order.
  kPhase,
};

const char* TraceTextToString(TraceText text);

/// A phase tile's name.
inline TraceText PhaseText(Phase phase) {
  return static_cast<TraceText>(static_cast<size_t>(TraceText::kPhase) +
                                static_cast<size_t>(phase));
}

/// A span's or an instant's text, as a small integer: empty (0), a
/// TraceText code, the trace's terminal outcome (kOutcomeText), or an entry
/// of the trace's own text storage (kStoredText + index). QueryTrace
/// renders it.
using TextRef = uint16_t;
inline constexpr TextRef kOutcomeText = 0x7fff;
inline constexpr TextRef kStoredText = 0x8000;

/// A text handed to the tracer: a static text, or free-form text the trace
/// copies into its own storage. Empty either way means no text.
struct TextArg {
  TextArg() = default;
  TextArg(TraceText static_text) : code(static_text) {}
  TextArg(std::string_view free_text) : text(free_text) {}
  TextArg(const std::string& free_text) : text(free_text) {}
  TextArg(const char* free_text) : text(free_text) {}

  TraceText code = TraceText::kNone;
  std::string_view text;
};

/// One timed phase of a query. `end < 0` means still open. Its detail
/// renders as `head`, then `tail` after a space when both are non-empty
/// (QueryTrace::Detail).
struct Span {
  SpanKind kind = SpanKind::kQueue;
  TextRef head = 0;
  TextRef tail = 0;
  double start = 0.0;
  double end = -1.0;

  bool open() const { return end < 0.0; }
  double duration() const { return open() ? 0.0 : end - start; }
};

/// Point event on a query's timeline (kill issued, priority change, ...).
struct TraceInstant {
  double time = 0.0;
  TextRef name = 0;
  TextRef detail = 0;
};

/// A query's terminal outcome as its last execute span's detail shows it:
/// the outcome's name, then "cpu=%.3f io=%.0f spill=%.2f buffer_hit=%.2f",
/// formatted when read.
struct TraceOutcome {
  TraceText name = TraceText::kNone;
  double cpu = 0.0;
  double io = 0.0;
  double spill = 0.0;
  double buffer_hit = 0.0;
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
  /// What kOutcomeText renders.
  TraceOutcome outcome;
  /// Free-form texts, back to back; entry i ends at text_ends[i].
  std::string texts;
  std::vector<uint32_t> text_ends;

  /// Spans of one kind, in open order.
  std::vector<const Span*> SpansOfKind(SpanKind kind) const;
  /// Appends the text `ref` stands for.
  void AppendText(std::string& out, TextRef ref) const;
  /// Appends `span`'s detail.
  void AppendDetail(std::string& out, const Span& span) const;
  std::string Text(TextRef ref) const;
  std::string Detail(const Span& span) const;
};

/// One query's telemetry record: its trace and, once ProfileStore::Begin
/// ran for it (profiling on), its profile.
struct QueryRecord : QueryTrace {
  bool profiled = false;
  QueryProfile profile;
  /// The profile's open wait segment; phase -1 when none is open.
  ProfileStore::WaitSegment wait;
};

/// Accumulates one QueryRecord per query, bounded by `max_traces`: once the
/// limit is reached the oldest *finished* record is evicted per new one
/// (live queries are never dropped; their count is bounded by the MPL
/// anyway). An evicted record's slot is reused in place (RecordSlots).
class Tracer {
 public:
  explicit Tracer(size_t max_traces = 8192);

  /// Creates (or returns) the trace of `id`.
  QueryTrace& GetOrCreate(QueryId id, const std::string& workload,
                          QueryKind kind, double now);
  const QueryTrace* Find(QueryId id) const;

  void OpenSpan(QueryId id, SpanKind kind, double now, TextArg head = {});
  /// Closes the most recent open span of `kind`, giving it `tail`; no-op
  /// when none is open.
  void CloseSpan(QueryId id, SpanKind kind, double now, TextArg tail = {});
  /// Records an already-closed span (used when the duration is only known
  /// after the fact, e.g. lock waits reported with the outcome).
  void AddClosedSpan(QueryId id, SpanKind kind, double start, double end,
                     TextArg head = {});
  void Instant(QueryId id, TextArg name, double now, TextArg detail = {});

  /// Closes the open execute span (giving it `tail`) and closes or clamps
  /// the inner throttle/pause/lock-wait spans to `now`, so a pre-recorded
  /// pause window never outlives the segment it belongs to.
  void CloseExecutionSegment(QueryId id, double now, TextArg tail);
  /// The same, ending the segment with the query's terminal outcome.
  void CloseExecutionSegment(QueryId id, double now,
                             const TraceOutcome& outcome);

  /// Terminal bookkeeping: closes every open span at `now` and clamps any
  /// span end past `now` back to it (a pre-recorded pause window may
  /// outlive a kill), keeping the trace nestable.
  void FinishTrace(QueryId id, double now);

  /// All traces, in creation (tid) order.
  std::vector<const QueryTrace*> Traces() const;
  size_t size() const { return records_.size(); }
  int64_t evicted() const { return records_.evicted(); }

  /// The records, which ProfileStore reads and writes the profiles of.
  RecordSlots<QueryRecord>& records() { return records_; }

 private:
  void CloseSegment(QueryTrace* trace, double now, TextRef tail);

  int next_tid_ = 1;
  // Every hook finds its query's record here. Traces() restores tid order.
  RecordSlots<QueryRecord> records_;
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_TRACE_H_
