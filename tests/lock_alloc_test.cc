// A warm lock table allocates nothing: acquires, waits, upgrades, grants
// through the callback and releases reuse the storage earlier traffic left
// behind. This binary replaces the global operator new
// (tests/counting_new.h) to count heap allocations inside a window of
// contended traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/rng.h"
#include "engine/lock_manager.h"
#include "tests/counting_new.h"

namespace wlm {
namespace {

// The engine's lock traffic: kSlots concurrent transactions, each locking
// three Zipf keys out of 200 and continuing from the grant callback when a
// request waits. Some also read another slot's private key, and some take
// their own slot's key shared and then upgrade it, so upgrades queue ahead
// of readers. Every transaction acquires in ascending key order (the
// shared and exclusive requests of an upgrade are adjacent), so the
// wait-for graph stays acyclic and no deadlock needs resolving.
class Traffic {
 public:
  static constexpr size_t kSlots = 16;

  explicit Traffic(LockManager* lm) : lm_(lm), rng_(12345) {
    lm_->set_grant_callback([this](TxnId txn, LockKey) { OnGranted(txn); });
    lm_->set_time_source([this] { return now_; });
    for (size_t slot = 0; slot < kSlots; ++slot) Begin(slot);
  }

  // Commits one transaction that holds all its locks and begins another
  // in its slot. False if no transaction holds all its locks.
  bool Round() {
    now_ += 0.001;
    size_t ready = 0;
    for (const Txn& txn : slots_) ready += txn.Ready() ? 1 : 0;
    if (ready == 0) return false;
    auto pick = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(ready) - 1));
    for (size_t slot = 0; slot < kSlots; ++slot) {
      if (!slots_[slot].Ready()) continue;
      if (pick-- > 0) continue;
      (void)lm_->ReleaseAll(slots_[slot].id);
      Begin(slot);
      return true;
    }
    return false;
  }

  int64_t waits() const { return waits_; }
  int64_t upgrades() const { return upgrades_; }
  int64_t callback_grants() const { return callback_grants_; }

 private:
  static constexpr LockKey kPrivateKeys = 1000;  // slot s owns 1000 + s

  struct Step {
    LockKey key;
    LockMode mode;
  };
  struct Txn {
    TxnId id = 0;
    std::array<Step, 6> steps{};
    size_t count = 0;
    size_t cursor = 0;
    bool Ready() const { return cursor == count; }
  };

  void Begin(size_t slot) {
    Txn& txn = slots_[slot];
    txn.id = next_id_++;
    txn.count = 0;
    txn.cursor = 0;
    auto add = [&txn](LockKey key, LockMode mode) {
      txn.steps[txn.count++] = {key, mode};
    };
    for (int i = 0; i < 3; ++i) {
      auto key = static_cast<LockKey>(rng_.Zipf(200, 0.8) + 1);
      auto end = txn.steps.begin() + txn.count;
      if (std::find_if(txn.steps.begin(), end, [key](const Step& s) {
            return s.key == key;
          }) != end) {
        continue;
      }
      add(key, rng_.Bernoulli(0.3) ? LockMode::kExclusive : LockMode::kShared);
    }
    if (rng_.Bernoulli(0.3)) {
      auto other = static_cast<size_t>(rng_.UniformInt(0, kSlots - 1));
      if (other != slot) add(kPrivateKeys + other, LockMode::kShared);
    }
    if (rng_.Bernoulli(0.3)) {
      add(kPrivateKeys + slot, LockMode::kShared);
      add(kPrivateKeys + slot, LockMode::kExclusive);
    }
    // Ascending keys; an upgrade's shared request sorts first.
    std::sort(txn.steps.begin(), txn.steps.begin() + txn.count,
              [](const Step& a, const Step& b) {
                return a.key != b.key ? a.key < b.key : a.mode < b.mode;
              });
    Continue(txn);
  }

  void Continue(Txn& txn) {
    while (!txn.Ready()) {
      const Step& step = txn.steps[txn.cursor];
      if (step.mode == LockMode::kExclusive && txn.cursor > 0 &&
          txn.steps[txn.cursor - 1].key == step.key) {
        ++upgrades_;
      }
      if (!lm_->Acquire(txn.id, step.key, step.mode)) {
        ++waits_;
        return;  // OnGranted resumes
      }
      ++txn.cursor;
    }
  }

  void OnGranted(TxnId id) {
    ++callback_grants_;
    for (Txn& txn : slots_) {
      if (txn.id != id) continue;
      ++txn.cursor;
      Continue(txn);
      return;
    }
  }

  LockManager* lm_;
  Rng rng_;
  double now_ = 0.0;
  TxnId next_id_ = 1;
  std::array<Txn, kSlots> slots_{};
  int64_t waits_ = 0;
  int64_t upgrades_ = 0;
  int64_t callback_grants_ = 0;
};

TEST(WarmLockTable, AcquireWaitUpgradeGrantReleaseAllocateNothing) {
  LockManager lm;
  Traffic traffic(&lm);
  for (int round = 0; round < 20000; ++round) ASSERT_TRUE(traffic.Round());

  const int64_t waits = traffic.waits();
  const int64_t upgrades = traffic.upgrades();
  const int64_t callback_grants = traffic.callback_grants();
  bool flowing = true;
  g_allocations = 0;
  g_counting = true;
  for (int round = 0; round < 2000 && flowing; ++round) {
    flowing = traffic.Round();
  }
  g_counting = false;

  ASSERT_TRUE(flowing);
  EXPECT_EQ(g_allocations, 0);
  // The counted window saw the traffic this test is about.
  EXPECT_GT(traffic.waits() - waits, 200);
  EXPECT_GT(traffic.upgrades() - upgrades, 200);
  EXPECT_GT(traffic.callback_grants() - callback_grants, 200);
}

}  // namespace
}  // namespace wlm
