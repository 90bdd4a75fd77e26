#ifndef WLM_COMMON_ID_INDEX_H_
#define WLM_COMMON_ID_INDEX_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wlm {

/// Finds the slot of a 64-bit id (a QueryId) in a store that keeps its
/// records in a slot array. Open addressing over a power-of-two table: a
/// multiplicative (Fibonacci) hash picks the home bucket from the top bits,
/// so no lookup divides; collisions probe linearly; the load stays at most
/// 1/2, so probes are short and an empty bucket always ends one. Erase
/// shifts the following run of the cluster back instead of leaving a
/// tombstone, so a store that inserts and evicts forever never degrades.
///
/// There is deliberately no iteration: hash order must never reach an
/// output, so every listing walks the owner's slots instead.
class IdIndex {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// The slot of `id`, or kNone.
  uint32_t Find(uint64_t id) const {
    if (size_ == 0) return kNone;
    for (size_t i = Home(id);; i = (i + 1) & Mask()) {
      const Bucket& bucket = buckets_[i];
      if (bucket.slot == kNone) return kNone;
      if (bucket.id == id) return bucket.slot;
    }
  }

  /// Maps `id` to `slot` (< kNone), replacing any earlier mapping.
  void Insert(uint64_t id, uint32_t slot) {
    if ((size_ + 1) * 2 > buckets_.size()) Grow();
    size_t i = Home(id);
    for (; buckets_[i].slot != kNone; i = (i + 1) & Mask()) {
      if (buckets_[i].id == id) {
        buckets_[i].slot = slot;
        return;
      }
    }
    buckets_[i] = {id, slot};
    ++size_;
  }

  /// Removes the mapping of `id` and returns the slot it named; kNone (and
  /// a no-op) when there is none.
  uint32_t Erase(uint64_t id) {
    if (size_ == 0) return kNone;
    size_t hole = Home(id);
    while (buckets_[hole].slot != kNone && buckets_[hole].id != id) {
      hole = (hole + 1) & Mask();
    }
    const uint32_t erased = buckets_[hole].slot;
    if (erased == kNone) return kNone;
    // Backward shift: an entry further along the cluster moves into the
    // hole unless its home lies cyclically after the hole, where a probe
    // for it would stop at the hole and miss it.
    for (size_t j = (hole + 1) & Mask(); buckets_[j].slot != kNone;
         j = (j + 1) & Mask()) {
      const size_t probed = (j - Home(buckets_[j].id)) & Mask();
      if (probed >= ((j - hole) & Mask())) {
        buckets_[hole] = buckets_[j];
        hole = j;
      }
    }
    buckets_[hole].slot = kNone;
    --size_;
    return erased;
  }

  size_t size() const { return size_; }

 private:
  // Packed to 12 bytes: at load 1/2 the table holds two buckets per
  // entry, so padding to 16 would cost a third more memory per record.
#pragma pack(push, 4)
  struct Bucket {
    uint64_t id = 0;
    uint32_t slot = kNone;  // kNone marks an empty bucket
  };
#pragma pack(pop)

  size_t Mask() const { return buckets_.size() - 1; }
  size_t Home(uint64_t id) const {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// Doubles the table (16 buckets at first) and re-homes every entry.
  void Grow() {
    std::vector<Bucket> old = std::exchange(
        buckets_, std::vector<Bucket>(buckets_.empty() ? 16
                                                       : 2 * buckets_.size()));
    shift_ = 64;
    for (size_t n = buckets_.size(); n > 1; n >>= 1) --shift_;
    for (const Bucket& bucket : old) {
      if (bucket.slot == kNone) continue;
      size_t i = Home(bucket.id);
      while (buckets_[i].slot != kNone) i = (i + 1) & Mask();
      buckets_[i] = bucket;
    }
  }

  std::vector<Bucket> buckets_;
  int shift_ = 64;  // 64 - log2(buckets_.size())
  size_t size_ = 0;
};

/// A set of 64-bit ids that only grows, kept as bits in pages of 4096 ids
/// found through an IdIndex keyed by page number. Ids a generator hands out
/// in rising order share pages, so n of them cost about n/8 bytes and a
/// lookup touches a small page table and one page; a scattered id costs a
/// 512-byte page of its own.
class IdSet {
 public:
  bool Contains(uint64_t id) const {
    const uint32_t page = pages_index_.Find(id >> kPageBits);
    return page != IdIndex::kNone &&
           ((pages_[page][Word(id)] >> Bit(id)) & 1) != 0;
  }

  void Insert(uint64_t id) {
    uint32_t page = pages_index_.Find(id >> kPageBits);
    if (page == IdIndex::kNone) {
      page = static_cast<uint32_t>(pages_.size());
      pages_.emplace_back();  // zeroed
      pages_index_.Insert(id >> kPageBits, page);
    }
    pages_[page][Word(id)] |= uint64_t{1} << Bit(id);
  }

 private:
  static constexpr int kPageBits = 12;
  using Page = std::array<uint64_t, (size_t{1} << kPageBits) / 64>;

  static size_t Word(uint64_t id) {
    return static_cast<size_t>(id & ((uint64_t{1} << kPageBits) - 1)) / 64;
  }
  static int Bit(uint64_t id) { return static_cast<int>(id % 64); }

  std::vector<Page> pages_;
  IdIndex pages_index_;
};

}  // namespace wlm

#endif  // WLM_COMMON_ID_INDEX_H_
