#include "telemetry/profile.h"

#include <algorithm>
#include <cstdio>

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
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), "%.0f%% %s", share * 100.0,
                PhaseToString(dominant));
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

ProfileStore::ProfileStore(size_t max_profiles)
    : max_profiles_(max_profiles) {}

void ProfileStore::Reserve() { profiles_.reserve(max_profiles_); }

ProfileStore::Entry* ProfileStore::FindEntry(QueryId id) {
  auto it = profiles_.find(id);
  return it == profiles_.end() ? nullptr : &it->second;
}

void ProfileStore::Begin(QueryId id, const std::string& workload,
                         QueryKind kind, double now, uint64_t journey) {
  if (profiles_.count(id) > 0) return;
  while (profiles_.size() >= max_profiles_ && !finished_order_.empty()) {
    profiles_.erase(finished_order_.front());
    finished_order_.pop_front();
    ++evicted_;
  }
  Entry entry;
  entry.profile.id = id;
  entry.profile.journey = journey;
  entry.profile.workload = workload;
  entry.profile.kind = kind;
  entry.profile.arrival_time = now;
  entry.order = next_order_++;
  profiles_.emplace(id, std::move(entry));
}

void ProfileStore::OpenWait(QueryId id, Phase phase, double now) {
  Entry* entry = FindEntry(id);
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
  SettleEntry(FindEntry(id), now);
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
  for (auto& [id, entry] : profiles_) {
    if (entry.open_phase != admission && entry.open_phase != overload) {
      continue;
    }
    SettleEntry(&entry, now);
    entry.open_phase = lifo ? overload : admission;
    entry.open_start = now;
  }
}

void ProfileStore::AccumulateSegment(QueryId id, const QueryOutcome& outcome) {
  Entry* entry = FindEntry(id);
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
  Entry* entry = FindEntry(id);
  if (entry == nullptr) return {};
  const WaitSegment settled{entry->open_phase, entry->open_start};
  SettleEntry(entry, now);
  if (entry->profile.first_dispatch_time < 0.0) {
    entry->profile.first_dispatch_time = now;
  }
  return settled;
}

void ProfileStore::CountRequeue(QueryId id) {
  Entry* entry = FindEntry(id);
  if (entry != nullptr) ++entry->profile.requeue_count;
}

void ProfileStore::CountSuspend(QueryId id) {
  Entry* entry = FindEntry(id);
  if (entry != nullptr) ++entry->profile.suspend_count;
}

const QueryProfile* ProfileStore::Finalize(QueryId id, double now,
                                           const std::string& outcome,
                                           const std::string& detail) {
  Entry* entry = FindEntry(id);
  if (entry == nullptr || entry->profile.terminal()) return nullptr;
  SettleEntry(entry, now);
  QueryProfile& p = entry->profile;
  p.finish_time = now;
  p.outcome = outcome;
  p.detail = detail;
  finished_order_.push_back(id);

  ClassProfileRollup& rollup = rollups_[p.workload];
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

const QueryProfile* ProfileStore::Find(QueryId id) const {
  auto it = profiles_.find(id);
  return it == profiles_.end() ? nullptr : &it->second.profile;
}

ProfileStore::WaitSegment ProfileStore::OpenSegment(QueryId id) const {
  auto it = profiles_.find(id);
  if (it == profiles_.end() || it->second.open_phase < 0) return {};
  return {it->second.open_phase, it->second.open_start};
}

std::vector<QueryProfile> ProfileStore::RecentTerminal(size_t n) const {
  const size_t take = std::min(n, finished_order_.size());
  std::vector<QueryProfile> out;
  out.reserve(take);
  for (auto it = finished_order_.end() - static_cast<std::ptrdiff_t>(take);
       it != finished_order_.end(); ++it) {
    out.push_back(profiles_.at(*it).profile);
  }
  return out;
}

std::vector<const QueryProfile*> ProfileStore::Profiles() const {
  std::vector<std::pair<int64_t, const QueryProfile*>> ordered;
  ordered.reserve(profiles_.size());
  for (const auto& [id, entry] : profiles_) {
    ordered.emplace_back(entry.order, &entry.profile);
  }
  std::sort(ordered.begin(), ordered.end());
  std::vector<const QueryProfile*> out;
  out.reserve(ordered.size());
  for (const auto& [order, profile] : ordered) out.push_back(profile);
  return out;
}

}  // namespace wlm
