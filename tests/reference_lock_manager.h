#ifndef WLM_TESTS_REFERENCE_LOCK_MANAGER_H_
#define WLM_TESTS_REFERENCE_LOCK_MANAGER_H_

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "engine/lock_manager.h"
#include "engine/types.h"

namespace wlm {

/// The lock table as it stood before LockManager recycled its storage:
/// per-key holder hash maps, std::deque wait queues and per-transaction
/// key -> grant-time maps, allocated and freed on every use. The
/// differential sweep checks LockManager against it; nothing in the
/// library uses it.
class ReferenceLockManager {
 public:
  using GrantCallback = std::function<void(TxnId, LockKey)>;

  ReferenceLockManager() = default;
  ReferenceLockManager(const ReferenceLockManager&) = delete;
  ReferenceLockManager& operator=(const ReferenceLockManager&) = delete;

  void set_grant_callback(GrantCallback cb) { grant_cb_ = std::move(cb); }
  void set_time_source(std::function<double()> now) {
    time_source_ = std::move(now);
  }

  [[nodiscard]] bool Acquire(TxnId txn, LockKey key, LockMode mode);
  void ReleaseAll(TxnId txn);
  [[nodiscard]] bool IsBlocked(TxnId txn) const;
  std::vector<TxnId> FindDeadlockVictims() const;
  double ConflictRatio() const;
  /// Sum over `txn`'s held locks of (now - grant time), in hash order.
  double HeldSeconds(TxnId txn, double now) const;
  size_t total_locks_held() const;
  size_t blocked_txn_count() const { return waiting_on_.size(); }
  size_t txn_count() const { return txn_locks_.size(); }

 private:
  struct Waiter {
    TxnId txn;
    LockMode mode;
  };
  struct LockState {
    std::unordered_map<TxnId, LockMode> holders;
    std::deque<Waiter> queue;
  };

  void GrantWaiters(LockKey key);
  static bool Compatible(const LockState& state, TxnId txn, LockMode mode);
  void RecordGrant(TxnId txn, LockKey key);

  std::unordered_map<LockKey, LockState> table_;
  std::unordered_map<TxnId, std::unordered_map<LockKey, double>> txn_locks_;
  std::unordered_map<TxnId, LockKey> waiting_on_;
  GrantCallback grant_cb_;
  std::function<double()> time_source_;
};

}  // namespace wlm

#endif  // WLM_TESTS_REFERENCE_LOCK_MANAGER_H_
