#include "engine/memory_governor.h"

#include <algorithm>
#include <cassert>

namespace wlm {

MemoryGovernor::MemoryGovernor(double total_mb, double spill_penalty)
    : total_mb_(total_mb), spill_penalty_(spill_penalty) {
  assert(total_mb_ >= 0.0);
  assert(spill_penalty_ >= 0.0);
}

void MemoryGovernor::SetPressureMb(double mb) {
  pressure_mb_ = std::max(0.0, mb);
}

void MemoryGovernor::SetGroupQuota(const std::string& group,
                                   MemoryQuota quota) {
  quotas_[group] = quota;
}

void MemoryGovernor::SetGroupAlias(const std::string& tag,
                                   const std::string& group) {
  aliases_[tag] = group;
}

const std::string& MemoryGovernor::GroupFor(const std::string& tag) const {
  auto it = aliases_.find(tag);
  return it == aliases_.end() ? tag : it->second;
}

double MemoryGovernor::GroupUsed(const std::string& group) const {
  auto it = group_used_.find(group);
  return it == group_used_.end() ? 0.0 : it->second;
}

double MemoryGovernor::AvailableFor(const std::string& group) const {
  // Other groups' unfilled MIN reservations are off-limits.
  double reserved_elsewhere = 0.0;
  for (const auto& [other, quota] : quotas_) {
    if (other == group) continue;
    reserved_elsewhere += std::max(0.0, quota.min_mb - GroupUsed(other));
  }
  double available =
      std::max(0.0, free_mb() - pressure_mb_ - reserved_elsewhere);
  auto quota = quotas_.find(group);
  if (quota != quotas_.end()) {
    double headroom =
        std::max(0.0, quota->second.max_mb - GroupUsed(group));
    available = std::min(available, headroom);
  }
  return available;
}

MemoryGrant MemoryGovernor::Grant(const std::string& tag,
                                  double requested_mb) {
  MemoryGrant grant;
  if (requested_mb <= 0.0) return grant;
  const std::string& group = GroupFor(tag);
  grant.granted_mb =
      std::clamp(requested_mb, 0.0, AvailableFor(group));
  used_mb_ += grant.granted_mb;
  group_used_[group] += grant.granted_mb;
  double shortfall = 1.0 - grant.granted_mb / requested_mb;
  grant.spill_factor = 1.0 + spill_penalty_ * shortfall;
  return grant;
}

void MemoryGovernor::Release(const std::string& tag, double granted_mb) {
  used_mb_ = std::max(0.0, used_mb_ - granted_mb);
  const std::string& group = GroupFor(tag);
  auto it = group_used_.find(group);
  // An idle group keeps its entry at exactly 0.0, which reads as a missing
  // one does, so its next grant re-inserts nothing.
  if (it != group_used_.end()) {
    it->second = std::max(0.0, it->second - granted_mb);
  }
}

}  // namespace wlm
