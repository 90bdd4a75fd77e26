#ifndef WLM_TELEMETRY_RECORD_SLOTS_H_
#define WLM_TELEMETRY_RECORD_SLOTS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/id_index.h"
#include "engine/types.h"

namespace wlm {

/// The tracer's bounded per-query records (one per query: its trace and,
/// while profiling, its profile) in slots that are reused in place, found
/// through one IdIndex.
///
/// Eviction: creating a record while `bound` or more are live first
/// evicts finished records, oldest finish first, for as long as that
/// still holds and one is finished. Live records are never dropped. The
/// new record takes the last evicted slot; slots evicted before it go on a
/// free list, and otherwise a free slot or a new one is used.
///
/// Slots live in fixed blocks of kBlockSlots, so their addresses stay put
/// as the store grows, and a block holds many slots where std::deque would
/// allocate one node per record-sized slot. The finished FIFO and the
/// free list are threaded through the slots, so an empty store has
/// allocated nothing.
///
/// The last id looked up is remembered with its slot (Create, the only
/// writer of the index, remembers the id it creates), so the lookups one
/// lifecycle hook makes for its query probe the index once.
template <typename Record>
class RecordSlots {
 public:
  explicit RecordSlots(size_t bound) : bound_(bound) {}

  Record* Find(QueryId id) {
    if (id != memo_id_) {
      memo_id_ = id;
      memo_slot_ = index_.Find(id);
    }
    return memo_slot_ == IdIndex::kNone ? nullptr : &At(memo_slot_).record;
  }
  const Record* Find(QueryId id) const {
    const uint32_t slot = index_.Find(id);
    return slot == IdIndex::kNone ? nullptr : &At(slot).record;
  }

  /// A slot for `id`, which must not be live. The slot still holds the
  /// record that used it last: the caller resets every field, which keeps
  /// the capacity of the record's strings and vectors.
  Record& Create(QueryId id) {
    uint32_t slot = IdIndex::kNone;
    while (index_.size() >= bound_ && finished_head_ != IdIndex::kNone) {
      if (slot != IdIndex::kNone) PushFree(slot);
      slot = finished_head_;
      finished_head_ = At(slot).next;
      if (finished_head_ == IdIndex::kNone) finished_tail_ = IdIndex::kNone;
      --finished_;
      index_.Erase(At(slot).id);
      At(slot).live = false;
      ++evicted_;
    }
    if (slot == IdIndex::kNone && free_head_ != IdIndex::kNone) {
      slot = free_head_;
      free_head_ = At(slot).next;
    }
    if (slot == IdIndex::kNone) {
      slot = static_cast<uint32_t>(count_++);
      if (slot % kBlockSlots == 0) {
        blocks_.push_back(std::make_unique<Slot[]>(kBlockSlots));
      }
    }
    Slot& s = At(slot);
    s.id = id;
    s.live = true;
    s.next = IdIndex::kNone;
    index_.Insert(id, slot);
    memo_id_ = id;
    memo_slot_ = slot;
    return s.record;
  }

  /// Queues the live record of `id` for eviction. Call once, when the
  /// record becomes final.
  void Finish(QueryId id) {
    if (Find(id) == nullptr) return;
    const uint32_t slot = memo_slot_;
    if (finished_tail_ == IdIndex::kNone) {
      finished_head_ = slot;
    } else {
      At(finished_tail_).next = slot;
    }
    finished_tail_ = slot;
    ++finished_;
  }

  /// Calls `fn(record)` on every live record, in slot order (not creation
  /// order: listings sort).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t i = 0; i < count_; ++i) {
      Slot& s = At(i);
      if (s.live) fn(s.record);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < count_; ++i) {
      const Slot& s = At(i);
      if (s.live) fn(s.record);
    }
  }

  /// The newest `n` finished records still retained, oldest finish first.
  std::vector<const Record*> NewestFinished(size_t n) const {
    std::vector<const Record*> out;
    out.reserve(n < finished_ ? n : finished_);
    size_t skip = finished_ > n ? finished_ - n : 0;
    for (uint32_t slot = finished_head_; slot != IdIndex::kNone;
         slot = At(slot).next) {
      if (skip > 0) {
        --skip;
      } else {
        out.push_back(&At(slot).record);
      }
    }
    return out;
  }

  /// Live records.
  size_t size() const { return index_.size(); }
  int64_t evicted() const { return evicted_; }

 private:
  struct Slot {
    Record record;
    QueryId id = 0;
    bool live = false;
    // Next slot in the finished FIFO while live, or on the free list.
    uint32_t next = IdIndex::kNone;
  };

  void PushFree(uint32_t slot) {
    At(slot).next = free_head_;
    free_head_ = slot;
  }

  static constexpr size_t kBlockSlots = 64;

  Slot& At(size_t i) const {
    return blocks_[i / kBlockSlots][i % kBlockSlots];
  }

  size_t bound_;
  std::vector<std::unique_ptr<Slot[]>> blocks_;
  size_t count_ = 0;  // slots ever created, live or free
  IdIndex index_;
  // The last id looked up and its slot (kNone: not live).
  QueryId memo_id_ = 0;
  uint32_t memo_slot_ = IdIndex::kNone;
  uint32_t finished_head_ = IdIndex::kNone;
  uint32_t finished_tail_ = IdIndex::kNone;
  size_t finished_ = 0;
  uint32_t free_head_ = IdIndex::kNone;
  int64_t evicted_ = 0;
};

}  // namespace wlm

#endif  // WLM_TELEMETRY_RECORD_SLOTS_H_
