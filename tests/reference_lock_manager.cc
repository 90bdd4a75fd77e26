#include "tests/reference_lock_manager.h"

#include <algorithm>
#include <unordered_set>

namespace wlm {

bool ReferenceLockManager::Compatible(const LockState& state, TxnId txn,
                                      LockMode mode) {
  for (const auto& [holder, held_mode] : state.holders) {
    if (holder == txn) continue;  // own locks never conflict
    if (mode == LockMode::kExclusive || held_mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

void ReferenceLockManager::RecordGrant(TxnId txn, LockKey key) {
  // try_emplace: an upgrade or re-acquire keeps the original grant time.
  txn_locks_[txn].try_emplace(key,
                              time_source_ ? time_source_() : 0.0);
}

bool ReferenceLockManager::Acquire(TxnId txn, LockKey key, LockMode mode) {
  LockState& state = table_[key];

  auto held = state.holders.find(txn);
  if (held != state.holders.end()) {
    if (held->second == LockMode::kExclusive || mode == LockMode::kShared) {
      return true;  // already strong enough
    }
    // Upgrade request: fall through to the compatibility check (own lock is
    // skipped there).
  }

  // FIFO fairness: a new request must also wait behind queued waiters so
  // writers are not starved (unless it's an upgrade, which jumps the queue
  // to avoid trivially self-induced deadlocks).
  bool is_upgrade = held != state.holders.end();
  bool must_queue = !Compatible(state, txn, mode) ||
                    (!is_upgrade && !state.queue.empty());
  if (!must_queue) {
    state.holders[txn] = mode;
    RecordGrant(txn, key);
    return true;
  }

  if (is_upgrade) {
    state.queue.push_front(Waiter{txn, mode});
  } else {
    state.queue.push_back(Waiter{txn, mode});
  }
  waiting_on_[txn] = key;
  return false;
}

void ReferenceLockManager::GrantWaiters(LockKey key) {
  auto it = table_.find(key);
  if (it == table_.end()) return;
  LockState& state = it->second;
  std::vector<Waiter> granted;
  while (!state.queue.empty()) {
    const Waiter w = state.queue.front();  // a copy: pop_front frees it
    if (!Compatible(state, w.txn, w.mode)) break;
    state.holders[w.txn] = w.mode;
    RecordGrant(w.txn, key);
    waiting_on_.erase(w.txn);
    granted.push_back(w);
    state.queue.pop_front();
    // Only one exclusive grant can proceed; shared grants continue.
    if (w.mode == LockMode::kExclusive) break;
  }
  if (state.holders.empty() && state.queue.empty()) table_.erase(it);
  if (grant_cb_) {
    for (const Waiter& w : granted) grant_cb_(w.txn, key);
  }
}

void ReferenceLockManager::ReleaseAll(TxnId txn) {
  // Cancel a pending wait, if any.
  auto wait_it = waiting_on_.find(txn);
  if (wait_it != waiting_on_.end()) {
    LockKey key = wait_it->second;
    auto table_it = table_.find(key);
    if (table_it != table_.end()) {
      auto& q = table_it->second.queue;
      q.erase(std::remove_if(q.begin(), q.end(),
                             [txn](const Waiter& w) { return w.txn == txn; }),
              q.end());
    }
    waiting_on_.erase(wait_it);
    // The head of the queue may now be grantable (e.g. a cancelled upgrade).
    GrantWaiters(key);
  }

  auto locks_it = txn_locks_.find(txn);
  if (locks_it == txn_locks_.end()) return;
  std::vector<LockKey> keys;
  keys.reserve(locks_it->second.size());
  for (const auto& [key, granted_at] : locks_it->second) {
    (void)granted_at;
    keys.push_back(key);
  }
  txn_locks_.erase(locks_it);
  // Deterministic release order.
  std::sort(keys.begin(), keys.end());
  for (LockKey key : keys) {
    auto table_it = table_.find(key);
    if (table_it == table_.end()) continue;
    table_it->second.holders.erase(txn);
    GrantWaiters(key);
    table_it = table_.find(key);
    if (table_it != table_.end() && table_it->second.holders.empty() &&
        table_it->second.queue.empty()) {
      table_.erase(table_it);
    }
  }
}

bool ReferenceLockManager::IsBlocked(TxnId txn) const {
  return waiting_on_.count(txn) > 0;
}

std::vector<TxnId> ReferenceLockManager::FindDeadlockVictims() const {
  // Build wait-for edges: waiter -> every holder of the key it waits on.
  std::unordered_map<TxnId, std::vector<TxnId>> edges;
  for (const auto& [txn, key] : waiting_on_) {
    auto it = table_.find(key);
    if (it == table_.end()) continue;
    for (const auto& [holder, mode] : it->second.holders) {
      (void)mode;
      if (holder != txn) edges[txn].push_back(holder);
    }
  }
  for (auto& [txn, targets] : edges) {
    (void)txn;
    std::sort(targets.begin(), targets.end());
  }

  std::vector<TxnId> victims;
  std::unordered_set<TxnId> dead;  // already chosen as victims
  // Iterative DFS cycle detection from each waiting txn.
  std::unordered_set<TxnId> visited;
  for (const auto& [start, key] : waiting_on_) {
    (void)key;
    if (visited.count(start) || dead.count(start)) continue;
    // path-based DFS
    std::unordered_map<TxnId, size_t> on_path;  // txn -> index in path
    std::vector<std::pair<TxnId, size_t>> frames{{start, 0}};
    on_path[start] = 0;
    std::vector<TxnId> path{start};
    while (!frames.empty()) {
      auto& [node, edge_idx] = frames.back();
      auto edge_it = edges.find(node);
      if (edge_it == edges.end() || edge_idx >= edge_it->second.size()) {
        visited.insert(node);
        on_path.erase(node);
        path.pop_back();
        frames.pop_back();
        continue;
      }
      TxnId next = edge_it->second[edge_idx++];
      if (dead.count(next)) continue;
      auto cyc = on_path.find(next);
      if (cyc != on_path.end()) {
        // Cycle: path[cyc->second .. end]. Victim = youngest (largest id).
        TxnId victim = next;
        for (size_t i = cyc->second; i < path.size(); ++i) {
          victim = std::max(victim, path[i]);
        }
        victims.push_back(victim);
        dead.insert(victim);
        continue;
      }
      if (visited.count(next)) continue;
      frames.emplace_back(next, 0);
      on_path[next] = path.size();
      path.push_back(next);
    }
  }
  return victims;
}

double ReferenceLockManager::ConflictRatio() const {
  size_t total = 0;
  size_t active = 0;
  for (const auto& [txn, keys] : txn_locks_) {
    total += keys.size();
    if (!IsBlocked(txn)) active += keys.size();
  }
  if (active == 0) return total == 0 ? 1.0 : static_cast<double>(total + 1);
  return static_cast<double>(total) / static_cast<double>(active);
}

size_t ReferenceLockManager::total_locks_held() const {
  size_t total = 0;
  for (const auto& [txn, keys] : txn_locks_) {
    (void)txn;
    total += keys.size();
  }
  return total;
}

double ReferenceLockManager::HeldSeconds(TxnId txn, double now) const {
  if (!time_source_) return 0.0;
  auto it = txn_locks_.find(txn);
  if (it == txn_locks_.end()) return 0.0;
  double total = 0.0;
  for (const auto& [key, granted_at] : it->second) {
    (void)key;
    total += std::max(0.0, now - granted_at);
  }
  return total;
}

}  // namespace wlm
