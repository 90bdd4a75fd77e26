#ifndef WLM_ENGINE_BUFFER_POOL_H_
#define WLM_ENGINE_BUFFER_POOL_H_

#include <string>
#include <unordered_map>

#include "engine/types.h"

namespace wlm {

/// Buffer-pool model with per-group page priorities — the engine surface
/// behind DB2's service-class *buffer pool priority* ("increasing the
/// buffer pool priority potentially increases the proportion of pages in
/// use by the requests in a particular service class" [30]).
///
/// Model: the pool's pages are divided across groups in proportion to
/// their priority weights (only groups with registered working sets
/// count); within a group, pages go to members in proportion to their
/// working sets. A query's hit ratio is its page share over its working
/// set, capped at `max_hit_ratio`. Hits avoid device I/O, so a better
/// ratio directly shrinks a query's effective I/O demand.
class BufferPool {
 public:
  /// `capacity_pages` <= 0 disables the pool (hit ratio 0 for everyone).
  explicit BufferPool(int64_t capacity_pages, double max_hit_ratio = 0.9);

  [[nodiscard]] bool enabled() const { return capacity_pages_ > 0; }
  int64_t capacity_pages() const { return capacity_pages_; }

  /// Relative page priority of a group (default 1.0).
  void SetGroupPriority(const std::string& tag, double weight);
  double GroupPriority(const std::string& tag) const;

  /// Registers a query's working set and returns its hit ratio under the
  /// allocation that includes it.
  double Register(QueryId id, const std::string& tag, double working_pages);
  void Unregister(QueryId id);

  /// Current hit ratio a (hypothetical or registered) member of `tag`
  /// with `working_pages` would get.
  double HitRatioFor(const std::string& tag, double working_pages) const;

  size_t registered_count() const { return members_.size(); }

 private:
  struct Member {
    std::string tag;
    double working_pages;
  };

  int64_t capacity_pages_;
  double max_hit_ratio_;
  std::unordered_map<QueryId, Member> members_;
  std::unordered_map<std::string, double> group_priority_;
  std::unordered_map<std::string, double> group_working_;  // sum of members
};

}  // namespace wlm

#endif  // WLM_ENGINE_BUFFER_POOL_H_
