#ifndef WLM_COMMON_HEAD_VECTOR_H_
#define WLM_COMMON_HEAD_VECTOR_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace wlm {

/// A vector whose front entry leaves in O(1) amortized. A departed front
/// entry only advances `head_`; the departed prefix is reclaimed in one
/// erase once it outnumbers the live entries, so memory stays bounded by
/// the live count however many entries pass through. Any other entry
/// leaves by an ordinary erase. Indices and iterators cover the live
/// entries only.
template <typename T>
class HeadVector {
 public:
  using iterator = typename std::vector<T>::iterator;
  using const_iterator = typename std::vector<T>::const_iterator;

  iterator begin() { return items_.begin() + Head(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin() + Head(); }
  const_iterator end() const { return items_.end(); }
  size_t size() const { return items_.size() - head_; }
  [[nodiscard]] bool empty() const { return items_.size() == head_; }
  const T& operator[](size_t i) const { return items_[head_ + i]; }
  const T& front() const { return items_[head_]; }
  const T& back() const { return items_.back(); }

  void push_back(const T& value) { items_.push_back(value); }
  void insert(iterator pos, const T& value) { items_.insert(pos, value); }
  void erase(iterator pos) {
    if (pos != begin()) {
      items_.erase(pos);
      return;
    }
    ++head_;
    if (2 * head_ >= items_.size()) Compact();
  }
  /// Erases every live entry `pred` holds for; the rest keep their order.
  template <typename Pred>
  void erase_if(Pred pred) {
    items_.erase(std::remove_if(begin(), end(), pred), end());
  }
  void clear() {
    items_.clear();
    head_ = 0;
  }
  /// The first live entry whose `proj` is not below `key`, for entries
  /// that ascend by `proj`: the front in O(1) when it is that entry (a
  /// FIFO queue takes from there), else a binary search.
  template <typename Key, typename Proj>
  iterator LowerBound(const Key& key, Proj proj) {
    if (!empty() && !(std::invoke(proj, front()) < key)) return begin();
    return std::ranges::lower_bound(begin(), end(), key, {}, proj);
  }
  /// The live entries as one vector, the departed prefix reclaimed first.
  const std::vector<T>& Compacted() {
    Compact();
    return items_;
  }

 private:
  std::ptrdiff_t Head() const { return static_cast<std::ptrdiff_t>(head_); }
  void Compact() {
    items_.erase(items_.begin(), begin());
    head_ = 0;
  }

  std::vector<T> items_;
  size_t head_ = 0;
};

}  // namespace wlm

#endif  // WLM_COMMON_HEAD_VECTOR_H_
