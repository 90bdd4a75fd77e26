#include "engine/lock_manager.h"

#include <algorithm>
#include <unordered_set>

namespace wlm {

namespace {

// map[key], except that a new entry reuses a parked node from `spare`
// when there is one.
template <typename Map>
typename Map::mapped_type& Entry(Map& map,
                                 std::vector<typename Map::node_type>& spare,
                                 const typename Map::key_type& key) {
  auto it = map.find(key);
  if (it != map.end()) return it->second;
  if (spare.empty()) return map.try_emplace(key).first->second;
  typename Map::node_type node = std::move(spare.back());
  spare.pop_back();
  node.key() = key;
  node.mapped() = typename Map::mapped_type{};
  return map.insert(std::move(node)).position->second;
}

}  // namespace

uint32_t LockManager::NewRequest(TxnId txn, LockKey key, LockMode mode) {
  uint32_t i = free_requests_;
  if (i == kNone) {
    i = static_cast<uint32_t>(requests_.size());
    requests_.emplace_back();
  } else {
    free_requests_ = requests_[i].next;
  }
  requests_[i] = Request{txn, key, mode, 0.0, kNone, kNone};
  return i;
}

void LockManager::FreeRequest(uint32_t i) {
  requests_[i].next = free_requests_;
  free_requests_ = i;
}

uint32_t LockManager::RemoveRequests(uint32_t* head, TxnId txn) {
  uint32_t last = kNone;
  uint32_t* link = head;
  while (*link != kNone) {
    const uint32_t i = *link;
    if (requests_[i].txn == txn) {
      *link = requests_[i].next;
      FreeRequest(i);
    } else {
      last = i;
      link = &requests_[i].next;
    }
  }
  return last;
}

uint32_t LockManager::FindHolder(const LockState& state, TxnId txn) const {
  for (uint32_t i = state.holders; i != kNone; i = requests_[i].next) {
    if (requests_[i].txn == txn) return i;
  }
  return kNone;
}

bool LockManager::Compatible(const LockState& state, TxnId txn,
                             LockMode mode) const {
  for (uint32_t i = state.holders; i != kNone; i = requests_[i].next) {
    const Request& holder = requests_[i];
    if (holder.txn == txn) continue;  // own locks never conflict
    if (mode == LockMode::kExclusive || holder.mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

void LockManager::AddHolder(LockState& state, uint32_t i) {
  Request& request = requests_[i];
  request.granted_at = time_source_ ? time_source_() : 0.0;
  request.next = state.holders;
  request.next_held = kNone;
  state.holders = i;
  HeldKeys& held = Entry(txn_locks_, spare_txns_, request.txn);
  if (held.last == kNone) {
    held.first = i;
  } else {
    requests_[held.last].next_held = i;
  }
  held.last = i;
  ++held.count;
}

bool LockManager::Acquire(TxnId txn, LockKey key, LockMode mode) {
  LockState& state = Entry(table_, spare_states_, key);

  const uint32_t held = FindHolder(state, txn);
  if (held != kNone && (requests_[held].mode == LockMode::kExclusive ||
                        mode == LockMode::kShared)) {
    return true;  // already strong enough
  }

  // FIFO fairness: a new request must also wait behind queued waiters so
  // writers are not starved (unless it's an upgrade, which jumps the queue
  // to avoid trivially self-induced deadlocks). The compatibility check
  // skips the upgrader's own lock.
  const bool is_upgrade = held != kNone;
  const bool must_queue = !Compatible(state, txn, mode) ||
                          (!is_upgrade && state.waiters != kNone);
  if (!must_queue) {
    if (is_upgrade) {
      requests_[held].mode = mode;  // keeps the original grant time
    } else {
      AddHolder(state, NewRequest(txn, key, mode));
    }
    return true;
  }

  const uint32_t w = NewRequest(txn, key, mode);
  if (is_upgrade) {
    requests_[w].next = state.waiters;
    state.waiters = w;
    if (state.last_waiter == kNone) state.last_waiter = w;
  } else {
    if (state.last_waiter == kNone) {
      state.waiters = w;
    } else {
      requests_[state.last_waiter].next = w;
    }
    state.last_waiter = w;
  }
  Entry(waiting_on_, spare_waits_, txn) = key;
  return false;
}

void LockManager::GrantWaiters(Table::iterator it) {
  const LockKey key = it->first;
  LockState& state = it->second;
  // A grant callback may re-enter the lock manager, so the buffer is
  // taken out of the member while the callbacks run.
  std::vector<TxnId> granted;
  granted.swap(granted_);
  while (state.waiters != kNone) {
    const uint32_t w = state.waiters;
    const TxnId txn = requests_[w].txn;
    const LockMode mode = requests_[w].mode;
    if (!Compatible(state, txn, mode)) break;
    state.waiters = requests_[w].next;
    if (state.waiters == kNone) state.last_waiter = kNone;
    const uint32_t held = FindHolder(state, txn);
    if (held != kNone) {
      requests_[held].mode = mode;  // an upgrade keeps its grant time
      FreeRequest(w);
    } else {
      AddHolder(state, w);
    }
    auto wait = waiting_on_.find(txn);
    if (wait != waiting_on_.end()) {
      spare_waits_.push_back(waiting_on_.extract(wait));
    }
    granted.push_back(txn);
    // Only one exclusive grant can proceed; shared grants continue.
    if (mode == LockMode::kExclusive) break;
  }
  if (state.holders == kNone && state.waiters == kNone) {
    spare_states_.push_back(table_.extract(it));
  }
  if (grant_cb_) {
    for (TxnId txn : granted) grant_cb_(txn, key);
  }
  granted.clear();
  granted_.swap(granted);
}

double LockManager::ReleaseAll(TxnId txn) {
  // Cancel a pending wait, if any.
  auto wait = waiting_on_.find(txn);
  if (wait != waiting_on_.end()) {
    LockKey key = wait->second;
    spare_waits_.push_back(waiting_on_.extract(wait));
    auto table_it = table_.find(key);
    if (table_it != table_.end()) {
      LockState& state = table_it->second;
      state.last_waiter = RemoveRequests(&state.waiters, txn);
      // The head of the queue may now be grantable (e.g. a cancelled
      // upgrade).
      GrantWaiters(table_it);
    }
  }

  auto locks_it = txn_locks_.find(txn);
  if (locks_it == txn_locks_.end()) return 0.0;
  // Taken out of the member while grant callbacks may re-enter.
  std::vector<LockKey> keys;
  keys.swap(release_keys_);
  const double now = time_source_ ? time_source_() : 0.0;
  double hold_seconds = 0.0;
  for (uint32_t i = locks_it->second.first; i != kNone;
       i = requests_[i].next_held) {
    const Request& lock = requests_[i];
    keys.push_back(lock.key);
    if (time_source_) hold_seconds += std::max(0.0, now - lock.granted_at);
  }
  spare_txns_.push_back(txn_locks_.extract(locks_it));
  // Deterministic release order.
  std::sort(keys.begin(), keys.end());
  for (LockKey key : keys) {
    auto table_it = table_.find(key);
    if (table_it == table_.end()) continue;
    RemoveRequests(&table_it->second.holders, txn);
    GrantWaiters(table_it);
  }
  keys.clear();
  release_keys_.swap(keys);
  return hold_seconds;
}

bool LockManager::IsBlocked(TxnId txn) const {
  return waiting_on_.contains(txn);
}

std::vector<TxnId> LockManager::FindDeadlockVictims() const {
  // Build wait-for edges: waiter -> every holder of the key it waits on.
  std::unordered_map<TxnId, std::vector<TxnId>> edges;
  for (const auto& [txn, key] : waiting_on_) {
    auto it = table_.find(key);
    if (it == table_.end()) continue;
    for (uint32_t i = it->second.holders; i != kNone;
         i = requests_[i].next) {
      if (requests_[i].txn != txn) edges[txn].push_back(requests_[i].txn);
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

double LockManager::ConflictRatio() const {
  size_t total = 0;
  size_t active = 0;
  for (const auto& [txn, held] : txn_locks_) {
    total += held.count;
    if (!IsBlocked(txn)) active += held.count;
  }
  if (active == 0) return total == 0 ? 1.0 : static_cast<double>(total + 1);
  return static_cast<double>(total) / static_cast<double>(active);
}

size_t LockManager::total_locks_held() const {
  size_t total = 0;
  for (const auto& [txn, held] : txn_locks_) {
    (void)txn;
    total += held.count;
  }
  return total;
}

size_t LockManager::blocked_txn_count() const { return waiting_on_.size(); }

}  // namespace wlm
