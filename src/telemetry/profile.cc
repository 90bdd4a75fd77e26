#include "telemetry/profile.h"

#include <algorithm>

#include "common/format.h"
#include "telemetry/trace.h"

namespace wlm {

const char* PhaseToString(Phase phase) {
  switch (phase) {
    case Phase::kAdmissionQueue:
      return "admission_queue";
    case Phase::kOverloadQueue:
      return "overload_queue";
    case Phase::kLockWait:
      return "lock_wait";
    case Phase::kCpuRun:
      return "cpu_run";
    case Phase::kIoStall:
      return "io_stall";
    case Phase::kMemoryStall:
      return "memory_stall";
    case Phase::kThrottled:
      return "throttled";
    case Phase::kSuspendFlush:
      return "suspend_flush";
    case Phase::kSuspendedWait:
      return "suspended_wait";
    case Phase::kRetryBackoff:
      return "retry_backoff";
  }
  return "?";
}

double QueryProfile::PhaseSum() const {
  double sum = 0.0;
  for (double seconds : phase_seconds) sum += seconds;
  return sum;
}

double QueryProfile::PhaseShare(Phase phase) const {
  double sum = PhaseSum();
  return sum > 0.0 ? seconds(phase) / sum : 0.0;
}

Phase QueryProfile::DominantPhase() const {
  size_t best = 0;
  for (size_t i = 1; i < kPhaseCount; ++i) {
    if (phase_seconds[i] > phase_seconds[best]) best = i;
  }
  return static_cast<Phase>(best);
}

std::string ExplainOutcome(const QueryProfile& profile) {
  if (!profile.terminal()) return "live";
  if (profile.outcome == "rejected" || profile.outcome == "shed") {
    std::string out = profile.outcome + ": ";
    out += profile.detail.empty() ? "admission" : profile.detail;
    return out;
  }
  Phase dominant = profile.DominantPhase();
  double share = profile.PhaseShare(dominant);
  std::string suffix = FormatFixed(share * 100.0, 0);
  suffix += "% ";
  suffix += PhaseToString(dominant);
  if (profile.outcome == "completed") {
    const char* verdict =
        (dominant == Phase::kCpuRun || dominant == Phase::kIoStall)
            ? "healthy"
            : "slow";
    return std::string(verdict) + ": " + suffix;
  }
  // killed / aborted: lead with the outcome, keep the decomposition.
  std::string out = profile.outcome + ": " + suffix;
  if (!profile.detail.empty()) out += " (" + profile.detail + ")";
  return out;
}

namespace {

/// The record of `id` when it carries a profile.
QueryRecord* ProfiledRecord(Tracer* tracer, QueryId id) {
  QueryRecord* record = tracer->records().Find(id);
  return record != nullptr && record->profiled ? record : nullptr;
}

/// Settles the record's open wait segment (if any) into its bucket, and
/// tiles it on the record's trace as a kPhase span: every wait that ends,
/// however it ends, is tiled.
void Settle(Tracer* tracer, QueryRecord* record, double now) {
  if (record->wait.phase < 0) return;
  const Phase phase = static_cast<Phase>(record->wait.phase);
  record->profile.phase_seconds[static_cast<size_t>(phase)] +=
      std::max(0.0, now - record->wait.start);
  if (now > record->wait.start) {
    tracer->AddClosedSpan(record->id, SpanKind::kPhase, record->wait.start,
                          now, PhaseText(phase));
  }
  record->wait.phase = -1;
}

}  // namespace

ProfileStore::ProfileStore(Tracer* tracer) : tracer_(tracer) {}

void ProfileStore::Begin(QueryId id, uint64_t journey) {
  QueryRecord* record = tracer_->records().Find(id);
  if (record == nullptr || record->profiled) return;
  QueryProfile& p = record->profile;
  p.id = id;
  p.journey = journey;
  p.workload = record->workload;
  p.kind = record->kind;
  p.arrival_time = record->start_time;
  p.first_dispatch_time = -1.0;
  p.finish_time = -1.0;
  p.outcome.clear();
  p.detail.clear();
  p.phase_seconds.fill(0.0);
  p.resources = ResourceAttribution();
  p.run_segments = 0;
  p.suspend_count = 0;
  p.requeue_count = 0;
  record->profiled = true;
  record->wait = WaitSegment();
  ++begun_;
}

void ProfileStore::OpenWait(QueryId id, Phase phase, double now) {
  QueryRecord* record = ProfiledRecord(tracer_, id);
  if (record == nullptr) return;
  Settle(tracer_, record, now);
  record->wait = {static_cast<int>(phase), now};
}

void ProfileStore::OpenQueueWait(QueryId id, double now) {
  OpenWait(id, queue_lifo_ ? Phase::kOverloadQueue : Phase::kAdmissionQueue,
           now);
}

void ProfileStore::SetQueueDiscipline(bool lifo, double now) {
  if (lifo == queue_lifo_) return;
  queue_lifo_ = lifo;
  const int admission = static_cast<int>(Phase::kAdmissionQueue);
  const int overload = static_cast<int>(Phase::kOverloadQueue);
  tracer_->records().ForEach([&](QueryRecord& record) {
    if (!record.profiled ||
        (record.wait.phase != admission && record.wait.phase != overload)) {
      return;
    }
    Settle(tracer_, &record, now);
    record.wait = {lifo ? overload : admission, now};
  });
}

void ProfileStore::AccumulateSegment(QueryId id, const QueryOutcome& outcome) {
  QueryRecord* record = ProfiledRecord(tracer_, id);
  if (record == nullptr) return;
  QueryProfile& p = record->profile;
  const ExecPhaseTotals& phases = outcome.phases;
  auto add = [&p](Phase phase, double seconds) {
    p.phase_seconds[static_cast<size_t>(phase)] += seconds;
  };
  add(Phase::kLockWait, phases.lock_wait_seconds);
  add(Phase::kCpuRun, phases.cpu_run_seconds);
  add(Phase::kIoStall, phases.io_stall_seconds);
  add(Phase::kMemoryStall, phases.memory_stall_seconds);
  add(Phase::kThrottled, phases.throttled_seconds);
  add(Phase::kSuspendFlush, phases.suspend_flush_seconds);
  p.resources.cpu_seconds += outcome.cpu_used;
  p.resources.io_ops += outcome.io_used;
  p.resources.peak_memory_mb =
      std::max(p.resources.peak_memory_mb, outcome.memory_granted_mb);
  p.resources.lock_hold_seconds += outcome.lock_hold_seconds;
  p.resources.spill_factor =
      std::max(p.resources.spill_factor, outcome.spill_factor);
  p.resources.buffer_hit_ratio =
      std::max(p.resources.buffer_hit_ratio, outcome.buffer_hit_ratio);
  ++p.run_segments;
}

void ProfileStore::MarkDispatched(QueryId id, double now) {
  QueryRecord* record = ProfiledRecord(tracer_, id);
  if (record == nullptr) return;
  Settle(tracer_, record, now);
  if (record->profile.first_dispatch_time < 0.0) {
    record->profile.first_dispatch_time = now;
  }
}

void ProfileStore::CountRequeue(QueryId id) {
  QueryRecord* record = ProfiledRecord(tracer_, id);
  if (record != nullptr) ++record->profile.requeue_count;
}

void ProfileStore::CountSuspend(QueryId id) {
  QueryRecord* record = ProfiledRecord(tracer_, id);
  if (record != nullptr) ++record->profile.suspend_count;
}

const QueryProfile* ProfileStore::Finalize(QueryId id, WorkloadId workload_id,
                                           double now,
                                           std::string_view outcome,
                                           std::string_view detail) {
  QueryRecord* record = ProfiledRecord(tracer_, id);
  if (record == nullptr || record->profile.terminal()) return nullptr;
  Settle(tracer_, record, now);
  QueryProfile& p = record->profile;
  p.finish_time = now;
  p.outcome.assign(outcome);
  p.detail.assign(detail);

  if (workload_id >= rollups_.size()) rollups_.resize(workload_id + 1);
  NamedRollup& named = rollups_[workload_id];
  if (named.rollup.count == 0) named.workload = p.workload;
  ClassProfileRollup& rollup = named.rollup;
  ++rollup.count;
  for (size_t i = 0; i < kPhaseCount; ++i) {
    rollup.phase_seconds[i] += p.phase_seconds[i];
  }
  rollup.resources.cpu_seconds += p.resources.cpu_seconds;
  rollup.resources.io_ops += p.resources.io_ops;
  rollup.resources.peak_memory_mb = std::max(
      rollup.resources.peak_memory_mb, p.resources.peak_memory_mb);
  rollup.resources.lock_hold_seconds += p.resources.lock_hold_seconds;
  rollup.resources.spill_factor =
      std::max(rollup.resources.spill_factor, p.resources.spill_factor);
  rollup.resources.buffer_hit_ratio =
      std::max(rollup.resources.buffer_hit_ratio, p.resources.buffer_hit_ratio);
  return &p;
}

std::map<std::string, ClassProfileRollup> ProfileStore::rollups() const {
  std::map<std::string, ClassProfileRollup> out;
  for (const NamedRollup& named : rollups_) {
    if (named.rollup.count > 0) out.emplace(named.workload, named.rollup);
  }
  return out;
}

const QueryProfile* ProfileStore::Find(QueryId id) const {
  const QueryRecord* record = ProfiledRecord(tracer_, id);
  return record == nullptr ? nullptr : &record->profile;
}

ProfileStore::WaitSegment ProfileStore::OpenSegment(QueryId id) const {
  const QueryRecord* record = ProfiledRecord(tracer_, id);
  return record == nullptr ? WaitSegment() : record->wait;
}

std::vector<QueryProfile> ProfileStore::RecentTerminal(size_t n) const {
  std::vector<QueryProfile> out;
  for (const QueryRecord* record : tracer_->records().NewestFinished(n)) {
    if (record->profiled) out.push_back(record->profile);
  }
  return out;
}

std::vector<const QueryProfile*> ProfileStore::Profiles() const {
  std::vector<const QueryRecord*> ordered;
  tracer_->records().ForEach([&ordered](const QueryRecord& record) {
    if (record.profiled) ordered.push_back(&record);
  });
  std::ranges::sort(ordered, {}, &QueryRecord::tid);
  std::vector<const QueryProfile*> out;
  out.reserve(ordered.size());
  for (const QueryRecord* record : ordered) out.push_back(&record->profile);
  return out;
}

size_t ProfileStore::size() const {
  size_t count = 0;
  tracer_->records().ForEach([&count](const QueryRecord& record) {
    if (record.profiled) ++count;
  });
  return count;
}

}  // namespace wlm
