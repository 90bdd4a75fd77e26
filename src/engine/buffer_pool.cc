#include "engine/buffer_pool.h"

#include <algorithm>

namespace wlm {

BufferPool::BufferPool(int64_t capacity_pages, double max_hit_ratio)
    : capacity_pages_(capacity_pages), max_hit_ratio_(max_hit_ratio) {}

void BufferPool::SetGroupPriority(const std::string& tag, double weight) {
  group_priority_[tag] = std::max(1e-6, weight);
}

double BufferPool::GroupPriority(const std::string& tag) const {
  auto it = group_priority_.find(tag);
  return it == group_priority_.end() ? 1.0 : it->second;
}

double BufferPool::HitRatioFor(const std::string& tag,
                               double working_pages) const {
  if (!enabled() || working_pages <= 0.0) return 0.0;
  // Weighted split of the pool across groups with demand.
  double weight_sum = 0.0;
  bool tag_active = group_working_.count(tag) > 0;
  for (const auto& [group, working] : group_working_) {
    if (working > 0.0) weight_sum += GroupPriority(group);
  }
  if (!tag_active) weight_sum += GroupPriority(tag);
  if (weight_sum <= 0.0) return 0.0;
  double group_pages = static_cast<double>(capacity_pages_) *
                       GroupPriority(tag) / weight_sum;
  double group_working = working_pages;
  auto it = group_working_.find(tag);
  if (it != group_working_.end()) group_working = it->second;
  if (group_working <= 0.0) return 0.0;
  // Pages within the group are spread in proportion to working sets, so
  // every member of the group sees the same ratio.
  return std::min(max_hit_ratio_, group_pages / group_working);
}

double BufferPool::Register(QueryId id, const std::string& tag,
                            double working_pages) {
  if (!enabled()) return 0.0;
  working_pages = std::max(0.0, working_pages);
  Unregister(id);  // idempotence
  members_[id] = Member{tag, working_pages};
  group_working_[tag] += working_pages;
  double ratio = HitRatioFor(tag, working_pages);
  double avoided = working_pages * ratio;
  avoided_ops_ += avoided;
  return ratio;
}

void BufferPool::Unregister(QueryId id) {
  auto it = members_.find(id);
  if (it == members_.end()) return;
  auto group = group_working_.find(it->second.tag);
  if (group != group_working_.end()) {
    group->second = std::max(0.0, group->second - it->second.working_pages);
    if (group->second <= 0.0) group_working_.erase(group);
  }
  members_.erase(it);
}

}  // namespace wlm
