#ifndef WLM_ENGINE_LOCK_MANAGER_H_
#define WLM_ENGINE_LOCK_MANAGER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/types.h"

namespace wlm {

/// Lock modes: shared (readers) and exclusive (writers).
enum class LockMode { kShared, kExclusive };

/// Strict two-phase locking lock table with FIFO grant queues, wait-for
/// graph deadlock detection and the Moenkeberg & Weikum conflict-ratio
/// metric [56] that the conflict-ratio admission controller thresholds on.
///
/// Storage is recycled: requests come from one pool with a free list, and
/// a key or transaction that leaves the table parks its hash node on a
/// spare list for the next one. A warm table acquires, waits, grants and
/// releases without allocating.
class LockManager {
 public:
  /// Called when a previously queued request is granted.
  using GrantCallback = std::function<void(TxnId, LockKey)>;

  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  void set_grant_callback(GrantCallback cb) { grant_cb_ = std::move(cb); }

  /// Clock used to timestamp grants for hold-time attribution. Without
  /// one (direct unit-test usage) grants are untimed and ReleaseAll
  /// reports 0.
  void set_time_source(std::function<double()> now) {
    time_source_ = std::move(now);
  }

  /// Requests `key` in `mode` for `txn`. Returns true if granted
  /// immediately; false if the request was queued (the grant callback fires
  /// later). Re-acquiring a held key (same or weaker mode) is a no-op grant;
  /// upgrade shared->exclusive is supported and queues if other holders
  /// exist.
  [[nodiscard]] bool Acquire(TxnId txn, LockKey key, LockMode mode);

  /// Releases everything `txn` holds and cancels its queued requests,
  /// granting any newly compatible waiters. Returns the lock-hold
  /// footprint released: the sum over `txn`'s held locks of (now - grant
  /// time), 0 without a time source.
  double ReleaseAll(TxnId txn);

  /// True if `txn` currently waits on some key.
  [[nodiscard]] bool IsBlocked(TxnId txn) const;

  /// Detects wait-for cycles. Returns one victim per cycle, chosen as the
  /// youngest (largest id) transaction in the cycle. The caller aborts the
  /// victims (via ReleaseAll plus its own bookkeeping).
  std::vector<TxnId> FindDeadlockVictims() const;

  /// Moenkeberg & Weikum conflict ratio: (#locks held by all transactions)
  /// / (#locks held by transactions that are not blocked). 1.0 when nothing
  /// is blocked; rising past ~1.3 signals lock thrashing.
  double ConflictRatio() const;

  /// Counters for the monitor.
  size_t total_locks_held() const;
  size_t blocked_txn_count() const;
  size_t txn_count() const { return txn_locks_.size(); }

 private:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  // A holder or a waiter of one key. Every request lives in requests_,
  // linked by index into its key's holder or waiter list; a holder is also
  // linked into its transaction's list of held keys. Freed requests are
  // reused, so the pool only grows when more requests are live at once
  // than ever before.
  struct Request {
    TxnId txn;
    LockKey key;
    LockMode mode;
    double granted_at;   // holders: when first granted (0 when untimed)
    uint32_t next;       // the key's next holder or waiter
    uint32_t next_held;  // holders: the txn's next held key, in grant order
  };
  struct LockState {
    uint32_t holders = kNone;  // in no particular order
    uint32_t waiters = kNone;  // granted from the front
    uint32_t last_waiter = kNone;
  };
  struct HeldKeys {
    uint32_t first = kNone;  // in grant order
    uint32_t last = kNone;
    uint32_t count = 0;
  };
  using Table = std::unordered_map<LockKey, LockState>;
  using TxnLocks = std::unordered_map<TxnId, HeldKeys>;
  using WaitsOn = std::unordered_map<TxnId, LockKey>;

  uint32_t NewRequest(TxnId txn, LockKey key, LockMode mode);
  void FreeRequest(uint32_t i);
  // Unlinks and frees `txn`'s requests from the list that starts at
  // `*head`. Returns the list's last remaining request, or kNone.
  uint32_t RemoveRequests(uint32_t* head, TxnId txn);
  uint32_t FindHolder(const LockState& state, TxnId txn) const;
  bool Compatible(const LockState& state, TxnId txn, LockMode mode) const;
  // Makes request `i` a holder of `state`, granted now.
  void AddHolder(LockState& state, uint32_t i);
  // Grants from the front of the entry's queue while compatible, parks
  // the entry if nothing holds or waits on it any more, then fires the
  // grant callbacks.
  void GrantWaiters(Table::iterator it);

  std::vector<Request> requests_;
  uint32_t free_requests_ = kNone;  // linked through Request::next
  Table table_;
  // txn -> the keys it holds
  TxnLocks txn_locks_;
  // txn -> key it waits for (each txn waits on at most one key because
  // acquisition is sequential). FindDeadlockVictims walks it, and its hash
  // order decides which victims are found first.
  WaitsOn waiting_on_;
  // Nodes that left the maps above, parked for reuse: a list never holds
  // more nodes than its map has held at one time.
  std::vector<Table::node_type> spare_states_;
  std::vector<TxnLocks::node_type> spare_txns_;
  std::vector<WaitsOn::node_type> spare_waits_;
  // Kept for their capacity: GrantWaiters' granted transactions and
  // ReleaseAll's sorted keys.
  std::vector<TxnId> granted_;
  std::vector<LockKey> release_keys_;
  GrantCallback grant_cb_;
  std::function<double()> time_source_;
};

}  // namespace wlm

#endif  // WLM_ENGINE_LOCK_MANAGER_H_
