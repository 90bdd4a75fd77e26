#include "telemetry/trace.h"

#include <algorithm>
#include <array>

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

std::vector<const Span*> QueryTrace::SpansOfKind(SpanKind kind) const {
  std::vector<const Span*> out;
  for (const Span& span : spans) {
    if (span.kind == kind) out.push_back(&span);
  }
  return out;
}

size_t QueryTrace::DistinctKinds() const {
  std::array<bool, kSpanKindCount> seen{};
  size_t distinct = 0;
  for (const Span& span : spans) {
    auto index = static_cast<size_t>(span.kind);
    if (!seen[index]) {
      seen[index] = true;
      ++distinct;
    }
  }
  return distinct;
}

double QueryTrace::TotalOfKind(SpanKind kind) const {
  double total = 0.0;
  for (const Span& span : spans) {
    if (span.kind == kind && !span.open()) total += span.duration();
  }
  return total;
}

Tracer::Tracer(size_t max_traces) : traces_(max_traces) {}

QueryTrace& Tracer::GetOrCreate(QueryId id, const std::string& workload,
                                QueryKind kind, double now) {
  if (QueryTrace* existing = traces_.Find(id)) return *existing;
  QueryTrace& trace = traces_.Create(id);
  trace.id = id;
  trace.workload = workload;
  trace.kind = kind;
  trace.tid = next_tid_++;
  trace.start_time = now;
  trace.finished = false;
  trace.spans.clear();
  trace.instants.clear();
  // A healthy query records ~8 spans plus up to 6 phase tiles; one
  // up-front reservation spares every trace the realloc-and-move churn
  // of growing through 1/2/4/8/16. A reused slot already has it.
  trace.spans.reserve(16);
  return trace;
}

const QueryTrace* Tracer::Find(QueryId id) const { return traces_.Find(id); }

void Tracer::OpenSpan(QueryId id, SpanKind kind, double now,
                      std::string detail) {
  QueryTrace* trace = traces_.Find(id);
  if (trace == nullptr) return;
  Span span;
  span.kind = kind;
  span.start = now;
  span.detail = std::move(detail);
  trace->spans.push_back(std::move(span));
}

void Tracer::CloseSpan(QueryId id, SpanKind kind, double now,
                       const std::string& append_detail) {
  QueryTrace* trace = traces_.Find(id);
  if (trace == nullptr) return;
  auto& spans = trace->spans;
  for (auto rit = spans.rbegin(); rit != spans.rend(); ++rit) {
    if (rit->kind == kind && rit->open()) {
      rit->end = std::max(now, rit->start);
      if (!append_detail.empty()) {
        if (!rit->detail.empty()) rit->detail += ' ';
        rit->detail += append_detail;
      }
      return;
    }
  }
}

void Tracer::AddClosedSpan(QueryId id, SpanKind kind, double start,
                           double end, std::string detail) {
  QueryTrace* trace = traces_.Find(id);
  if (trace == nullptr || end < start) return;
  Span span;
  span.kind = kind;
  span.start = start;
  span.end = end;
  span.detail = std::move(detail);
  trace->spans.push_back(std::move(span));
}

void Tracer::AddClosedSpans(QueryId id, Span* spans, size_t count) {
  QueryTrace* trace = traces_.Find(id);
  if (trace == nullptr) return;
  for (size_t i = 0; i < count; ++i) {
    if (spans[i].end < spans[i].start) continue;
    trace->spans.push_back(std::move(spans[i]));
  }
}

void Tracer::Instant(QueryId id, std::string name, double now,
                     std::string detail) {
  QueryTrace* trace = traces_.Find(id);
  if (trace == nullptr) return;
  TraceInstant instant;
  instant.time = now;
  instant.name = std::move(name);
  instant.detail = std::move(detail);
  trace->instants.push_back(std::move(instant));
}

void Tracer::CloseExecutionSegment(QueryId id, double now,
                                   const std::string& append_detail) {
  QueryTrace* trace = traces_.Find(id);
  if (trace == nullptr) return;
  for (Span& span : trace->spans) {
    if (span.kind != SpanKind::kThrottle && span.kind != SpanKind::kPause &&
        span.kind != SpanKind::kLockWait) {
      continue;
    }
    if (span.open() || span.end > now) span.end = std::max(span.start, now);
  }
  CloseSpan(id, SpanKind::kExecute, now, append_detail);
}

void Tracer::FinishTrace(QueryId id, double now) {
  QueryTrace* trace = traces_.Find(id);
  if (trace == nullptr || trace->finished) return;
  for (Span& span : trace->spans) {
    if (span.open() || span.end > now) span.end = std::max(span.start, now);
  }
  trace->finished = true;
  traces_.Finish(id);
}

std::vector<const QueryTrace*> Tracer::Traces() const {
  std::vector<const QueryTrace*> out;
  out.reserve(traces_.size());
  traces_.ForEach([&out](const QueryTrace& trace) { out.push_back(&trace); });
  std::sort(out.begin(), out.end(),
            [](const QueryTrace* a, const QueryTrace* b) {
              return a->tid < b->tid;
            });
  return out;
}

}  // namespace wlm
