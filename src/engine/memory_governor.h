#ifndef WLM_ENGINE_MEMORY_GOVERNOR_H_
#define WLM_ENGINE_MEMORY_GOVERNOR_H_

#include <limits>
#include <string>
#include <unordered_map>

namespace wlm {

/// Result of a work-memory grant request.
struct MemoryGrant {
  double granted_mb = 0.0;
  /// I/O inflation the query suffers because it must spill: 1.0 when fully
  /// granted, up to 1 + spill_penalty when granted nothing.
  double spill_factor = 1.0;
};

/// Per-quota-group reservation and cap (SQL Server resource pools reserve
/// MIN and cap at MAX for *memory* as well as CPU [50]).
struct MemoryQuota {
  double min_mb = 0.0;
  double max_mb = std::numeric_limits<double>::infinity();
};

/// Work-memory pool. Queries request their working-set size at dispatch;
/// when the pool is over-committed they receive partial grants and pay a
/// proportional spill penalty (extra I/O). This is the primary mechanism
/// that makes over-admission degrade throughput — the knee-and-decline
/// curve the paper's admission-control discussion (Section 3.2) describes.
///
/// Optional quota groups add resource-pool semantics: a group's MIN is
/// reserved (other groups cannot take it even when idle) and its MAX caps
/// its total consumption. Tags map to quota groups via SetGroupAlias, so
/// several workload groups can share one pool's quota.
class MemoryGovernor {
 public:
  /// `spill_penalty` scales how brutal spilling is: a query granted half of
  /// its request runs with io multiplied by (1 + 0.5 * spill_penalty).
  explicit MemoryGovernor(double total_mb, double spill_penalty = 3.0);

  /// Grants min(requested, available-for-tag) MB and computes the spill
  /// factor. A zero request returns a full (1.0) grant. The untagged
  /// overload behaves like a tag with no quota (it still respects other
  /// groups' reservations).
  MemoryGrant Grant(double requested_mb) { return Grant("", requested_mb); }
  MemoryGrant Grant(const std::string& tag, double requested_mb);
  /// Returns a previous grant to the pool.
  void Release(double granted_mb) { Release("", granted_mb); }
  void Release(const std::string& tag, double granted_mb);

  /// Fault-injection hook: reserves `mb` of the pool as unavailable
  /// (models an external memory-pressure spike). New grants shrink
  /// accordingly — and spill harder — while the pressure lasts; memory
  /// already granted is unaffected. Clamped to >= 0; 0 clears.
  void SetPressureMb(double mb);
  double pressure_mb() const { return pressure_mb_; }

  /// Installs a quota for `group` (replacing any previous one).
  void SetGroupQuota(const std::string& group, MemoryQuota quota);
  /// Routes a tag into a quota group (e.g. several workload groups into
  /// one resource pool).
  void SetGroupAlias(const std::string& tag, const std::string& group);

  double total_mb() const { return total_mb_; }
  double used_mb() const { return used_mb_; }
  double free_mb() const { return total_mb_ - used_mb_; }
  double utilization() const {
    return total_mb_ > 0.0 ? used_mb_ / total_mb_ : 0.0;
  }
  double spill_penalty() const { return spill_penalty_; }
  /// Memory currently used by a quota group.
  double GroupUsed(const std::string& group) const;

 private:
  const std::string& GroupFor(const std::string& tag) const;
  /// MB available to `group`: pool free space minus the unfilled MIN
  /// reservations of *other* groups, capped by the group's own MAX
  /// headroom.
  double AvailableFor(const std::string& group) const;

  double total_mb_;
  double spill_penalty_;
  double used_mb_ = 0.0;
  double pressure_mb_ = 0.0;
  std::unordered_map<std::string, MemoryQuota> quotas_;
  std::unordered_map<std::string, std::string> aliases_;
  std::unordered_map<std::string, double> group_used_;
};

}  // namespace wlm

#endif  // WLM_ENGINE_MEMORY_GOVERNOR_H_
