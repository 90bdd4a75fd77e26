#include "telemetry/profile.h"

#include <algorithm>

#include "common/format.h"

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

ProfileStore::ProfileStore(size_t max_profiles) : profiles_(max_profiles) {}

void ProfileStore::Begin(QueryId id, const std::string& workload,
                         QueryKind kind, double now, uint64_t journey) {
  if (profiles_.Find(id) != nullptr) return;
  Entry& entry = profiles_.Create(id);
  QueryProfile& p = entry.profile;
  p.id = id;
  p.journey = journey;
  p.workload = workload;
  p.kind = kind;
  p.arrival_time = now;
  p.first_dispatch_time = -1.0;
  p.finish_time = -1.0;
  p.outcome.clear();
  p.detail.clear();
  p.phase_seconds.fill(0.0);
  p.resources = ResourceAttribution();
  p.run_segments = 0;
  p.suspend_count = 0;
  p.requeue_count = 0;
  entry.order = next_order_++;
  entry.open_phase = -1;
  entry.open_start = 0.0;
}

void ProfileStore::OpenWait(QueryId id, Phase phase, double now) {
  Entry* entry = profiles_.Find(id);
  if (entry == nullptr) return;
  SettleEntry(entry, now);
  entry->open_phase = static_cast<int>(phase);
  entry->open_start = now;
}

void ProfileStore::OpenQueueWait(QueryId id, double now) {
  OpenWait(id, queue_lifo_ ? Phase::kOverloadQueue : Phase::kAdmissionQueue,
           now);
}

void ProfileStore::Settle(QueryId id, double now) {
  SettleEntry(profiles_.Find(id), now);
}

void ProfileStore::SettleEntry(Entry* entry, double now) {
  if (entry == nullptr || entry->open_phase < 0) return;
  double waited = std::max(0.0, now - entry->open_start);
  entry->profile.phase_seconds[static_cast<size_t>(entry->open_phase)] +=
      waited;
  entry->open_phase = -1;
}

void ProfileStore::SetQueueDiscipline(bool lifo, double now) {
  if (lifo == queue_lifo_) return;
  queue_lifo_ = lifo;
  const int admission = static_cast<int>(Phase::kAdmissionQueue);
  const int overload = static_cast<int>(Phase::kOverloadQueue);
  profiles_.ForEach([&](Entry& entry) {
    if (entry.open_phase != admission && entry.open_phase != overload) {
      return;
    }
    SettleEntry(&entry, now);
    entry.open_phase = lifo ? overload : admission;
    entry.open_start = now;
  });
}

void ProfileStore::AccumulateSegment(QueryId id, const QueryOutcome& outcome) {
  Entry* entry = profiles_.Find(id);
  if (entry == nullptr) return;
  QueryProfile& p = entry->profile;
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

ProfileStore::WaitSegment ProfileStore::MarkDispatched(QueryId id,
                                                       double now) {
  Entry* entry = profiles_.Find(id);
  if (entry == nullptr) return {};
  const WaitSegment settled{entry->open_phase, entry->open_start};
  SettleEntry(entry, now);
  if (entry->profile.first_dispatch_time < 0.0) {
    entry->profile.first_dispatch_time = now;
  }
  return settled;
}

void ProfileStore::CountRequeue(QueryId id) {
  Entry* entry = profiles_.Find(id);
  if (entry != nullptr) ++entry->profile.requeue_count;
}

void ProfileStore::CountSuspend(QueryId id) {
  Entry* entry = profiles_.Find(id);
  if (entry != nullptr) ++entry->profile.suspend_count;
}

const QueryProfile* ProfileStore::Finalize(QueryId id, WorkloadId workload_id,
                                           double now,
                                           std::string_view outcome,
                                           std::string_view detail) {
  Entry* entry = profiles_.Find(id);
  if (entry == nullptr || entry->profile.terminal()) return nullptr;
  SettleEntry(entry, now);
  QueryProfile& p = entry->profile;
  p.finish_time = now;
  p.outcome.assign(outcome);
  p.detail.assign(detail);
  profiles_.Finish(id);

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
  const Entry* entry = profiles_.Find(id);
  return entry == nullptr ? nullptr : &entry->profile;
}

ProfileStore::WaitSegment ProfileStore::OpenSegment(QueryId id) const {
  const Entry* entry = profiles_.Find(id);
  if (entry == nullptr || entry->open_phase < 0) return {};
  return {entry->open_phase, entry->open_start};
}

std::vector<QueryProfile> ProfileStore::RecentTerminal(size_t n) const {
  const std::vector<const Entry*> newest = profiles_.NewestFinished(n);
  std::vector<QueryProfile> out;
  out.reserve(newest.size());
  for (const Entry* entry : newest) out.push_back(entry->profile);
  return out;
}

std::vector<const QueryProfile*> ProfileStore::Profiles() const {
  std::vector<const Entry*> ordered;
  ordered.reserve(profiles_.size());
  profiles_.ForEach([&ordered](const Entry& entry) {
    ordered.push_back(&entry);
  });
  std::sort(ordered.begin(), ordered.end(),
            [](const Entry* a, const Entry* b) { return a->order < b->order; });
  std::vector<const QueryProfile*> out;
  out.reserve(ordered.size());
  for (const Entry* entry : ordered) out.push_back(&entry->profile);
  return out;
}

}  // namespace wlm
