#include "telemetry/trace.h"

#include <algorithm>

#include "common/format.h"

namespace wlm {

const char* SpanKindToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQueue:
      return "queue";
    case SpanKind::kAdmit:
      return "admit";
    case SpanKind::kExecute:
      return "execute";
    case SpanKind::kThrottle:
      return "throttle";
    case SpanKind::kPause:
      return "pause";
    case SpanKind::kLockWait:
      return "lock-wait";
    case SpanKind::kSuspendFlush:
      return "suspend-flush";
    case SpanKind::kSuspendedWait:
      return "suspended";
    case SpanKind::kFault:
      return "fault";
    case SpanKind::kOverload:
      return "overload";
    case SpanKind::kPhase:
      return "phase";
  }
  return "?";
}

const char* TraceTextToString(TraceText text) {
  switch (text) {
    case TraceText::kNone:
      return "";
    case TraceText::kAdmitted:
      return "admitted";
    case TraceText::kResumed:
      return "resumed";
    case TraceText::kResubmit:
      return "resubmit";
    case TraceText::kBrownout:
      return "brownout";
    case TraceText::kOutcomeSuspended:
      return "outcome=suspended";
    case TraceText::kOutcomeResubmitted:
      return "outcome=resubmitted";
    case TraceText::kOutcomeFaultAbort:
      return "outcome=fault_abort";
    case TraceText::kOutcomeCompleted:
      return "outcome=completed";
    case TraceText::kOutcomeKilled:
      return "outcome=killed";
    case TraceText::kOutcomeAborted:
      return "outcome=aborted";
    case TraceText::kThrottle:
      return "throttle";
    case TraceText::kReprioritize:
      return "reprioritize";
    case TraceText::kEscalate:
      return "escalate";
    case TraceText::kShed:
      return "shed";
    case TraceText::kRetryDenied:
      return "retry_denied";
    case TraceText::kFaultBegin:
      return "fault_begin";
    case TraceText::kFaultEnd:
      return "fault_end";
    case TraceText::kFaultAbort:
      return "fault_abort";
    case TraceText::kFaultRetry:
      return "fault_retry";
    case TraceText::kBreakerClosed:
      return "breaker_closed";
    case TraceText::kBreakerHalfOpen:
      return "breaker_half_open";
    case TraceText::kBreakerOpen:
      return "breaker_open";
    case TraceText::kQueueLifo:
      return "queue_lifo";
    case TraceText::kQueueFifo:
      return "queue_fifo";
    case TraceText::kPhase:
      break;
  }
  const auto phase =
      static_cast<size_t>(text) - static_cast<size_t>(TraceText::kPhase);
  return phase < kPhaseCount ? PhaseToString(static_cast<Phase>(phase)) : "?";
}

static_assert(sizeof(Span) == 24, "a span is three words");
static_assert(sizeof(TraceInstant) == 16, "an instant is two words");

namespace {

/// The i-th entry of the trace's text storage.
std::string_view StoredText(const QueryTrace& trace, size_t i) {
  const uint32_t begin = i == 0 ? 0 : trace.text_ends[i - 1];
  return std::string_view(trace.texts).substr(begin,
                                              trace.text_ends[i] - begin);
}

/// The reference for `text` on `trace`: its code, or a stored copy of
/// free-form text. A trace stores each distinct text once, so a
/// long-lived synthetic track repeating a few texts stays small; past
/// kOutcomeText distinct texts a new one is dropped.
TextRef Resolve(QueryTrace& trace, const TextArg& text) {
  if (text.text.empty()) return static_cast<TextRef>(text.code);
  const size_t count = trace.text_ends.size();
  for (size_t i = count; i-- > 0;) {
    if (StoredText(trace, i) == text.text) {
      return static_cast<TextRef>(kStoredText + i);
    }
  }
  if (count >= kOutcomeText) return 0;
  trace.texts += text.text;
  trace.text_ends.push_back(static_cast<uint32_t>(trace.texts.size()));
  return static_cast<TextRef>(kStoredText + count);
}

}  // namespace

std::vector<const Span*> QueryTrace::SpansOfKind(SpanKind kind) const {
  std::vector<const Span*> out;
  for (const Span& span : spans) {
    if (span.kind == kind) out.push_back(&span);
  }
  return out;
}

void QueryTrace::AppendText(std::string& out, TextRef ref) const {
  if (ref >= kStoredText) {
    out += StoredText(*this, ref - kStoredText);
  } else if (ref == kOutcomeText) {
    out += TraceTextToString(outcome.name);
    out += " cpu=";
    AppendFixed(out, outcome.cpu, 3);
    out += " io=";
    AppendFixed(out, outcome.io, 0);
    out += " spill=";
    AppendFixed(out, outcome.spill, 2);
    out += " buffer_hit=";
    AppendFixed(out, outcome.buffer_hit, 2);
  } else {
    out += TraceTextToString(static_cast<TraceText>(ref));
  }
}

void QueryTrace::AppendDetail(std::string& out, const Span& span) const {
  AppendText(out, span.head);
  if (span.head != 0 && span.tail != 0) out += ' ';
  AppendText(out, span.tail);
}

std::string QueryTrace::Text(TextRef ref) const {
  std::string out;
  AppendText(out, ref);
  return out;
}

std::string QueryTrace::Detail(const Span& span) const {
  std::string out;
  AppendDetail(out, span);
  return out;
}

Tracer::Tracer(size_t max_traces) : records_(max_traces) {}

QueryTrace& Tracer::GetOrCreate(QueryId id, const std::string& workload,
                                QueryKind kind, double now) {
  if (QueryRecord* existing = records_.Find(id)) return *existing;
  QueryRecord& trace = records_.Create(id);
  trace.profiled = false;
  trace.id = id;
  trace.workload = workload;
  trace.kind = kind;
  trace.tid = next_tid_++;
  trace.start_time = now;
  trace.finished = false;
  trace.spans.clear();
  trace.instants.clear();
  trace.outcome = TraceOutcome();
  trace.texts.clear();
  trace.text_ends.clear();
  // A healthy query records ~8 spans plus up to 6 phase tiles; one
  // up-front reservation spares every trace the realloc-and-move churn
  // of growing through 1/2/4/8/16. A reused slot already has it.
  trace.spans.reserve(16);
  return trace;
}

const QueryTrace* Tracer::Find(QueryId id) const { return records_.Find(id); }

void Tracer::OpenSpan(QueryId id, SpanKind kind, double now, TextArg head) {
  QueryTrace* trace = records_.Find(id);
  if (trace == nullptr) return;
  trace->spans.push_back({kind, Resolve(*trace, head), 0, now, -1.0});
}

void Tracer::CloseSpan(QueryId id, SpanKind kind, double now, TextArg tail) {
  QueryTrace* trace = records_.Find(id);
  if (trace == nullptr) return;
  auto& spans = trace->spans;
  for (auto rit = spans.rbegin(); rit != spans.rend(); ++rit) {
    if (rit->kind == kind && rit->open()) {
      rit->end = std::max(now, rit->start);
      rit->tail = Resolve(*trace, tail);
      return;
    }
  }
}

void Tracer::AddClosedSpan(QueryId id, SpanKind kind, double start,
                           double end, TextArg head) {
  QueryTrace* trace = records_.Find(id);
  if (trace == nullptr || end < start) return;
  trace->spans.push_back({kind, Resolve(*trace, head), 0, start, end});
}

void Tracer::Instant(QueryId id, TextArg name, double now, TextArg detail) {
  QueryTrace* trace = records_.Find(id);
  if (trace == nullptr) return;
  const TextRef name_ref = Resolve(*trace, name);
  trace->instants.push_back({now, name_ref, Resolve(*trace, detail)});
}

void Tracer::CloseExecutionSegment(QueryId id, double now, TextArg tail) {
  QueryTrace* trace = records_.Find(id);
  if (trace == nullptr) return;
  CloseSegment(trace, now, Resolve(*trace, tail));
}

void Tracer::CloseExecutionSegment(QueryId id, double now,
                                   const TraceOutcome& outcome) {
  QueryTrace* trace = records_.Find(id);
  if (trace == nullptr) return;
  trace->outcome = outcome;
  CloseSegment(trace, now, kOutcomeText);
}

void Tracer::CloseSegment(QueryTrace* trace, double now, TextRef tail) {
  Span* execute = nullptr;
  for (Span& span : trace->spans) {
    if (span.kind == SpanKind::kExecute && span.open()) execute = &span;
    if (span.kind != SpanKind::kThrottle && span.kind != SpanKind::kPause &&
        span.kind != SpanKind::kLockWait) {
      continue;
    }
    if (span.open() || span.end > now) span.end = std::max(span.start, now);
  }
  if (execute != nullptr) {
    execute->end = std::max(now, execute->start);
    execute->tail = tail;
  }
}

void Tracer::FinishTrace(QueryId id, double now) {
  QueryTrace* trace = records_.Find(id);
  if (trace == nullptr || trace->finished) return;
  for (Span& span : trace->spans) {
    if (span.open() || span.end > now) span.end = std::max(span.start, now);
  }
  trace->finished = true;
  records_.Finish(id);
}

std::vector<const QueryTrace*> Tracer::Traces() const {
  std::vector<const QueryTrace*> out;
  out.reserve(records_.size());
  records_.ForEach([&out](const QueryTrace& trace) { out.push_back(&trace); });
  std::ranges::sort(out, {}, &QueryTrace::tid);
  return out;
}

}  // namespace wlm
