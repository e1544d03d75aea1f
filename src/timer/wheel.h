// Hierarchical timing wheel (Varghese & Lauck), the ordered structure behind
// the sharded timer engine in timer.cc.
//
// Four levels of 64 slots over an abstract tick counter: level 0 resolves
// single ticks, level L buckets runs of 64^L ticks. Arming is O(1) — pick the
// lowest level whose window still covers the expiry and push onto that slot's
// intrusive list. Expiry is batched: advancing the wheel splices whole due
// slots out and cascades a higher-level slot down one level each time the
// lower levels wrap, so a timer is touched at most kLevels times in its life
// instead of paying a log-n reorder per arm/cancel like the old binary heap.
//
// The wheel is deliberately clock- and thread-free: it counts abstract ticks
// (the engine maps one tick to 2^20 ns ≈ 1.05 ms) and the caller serializes
// access (one spinlock per shard). That keeps this file exhaustively unit
// testable — tests/timer_wheel_test.cc drives cascade boundaries tick by tick
// with no timers and no threads.
//
// Guarantees relied on by the engine:
//   * A node spliced out by Advance(now) satisfies prev_tick < expiry_tick'
//     <= now, where expiry_tick' = max(expiry_tick, insert_tick + 1) — never
//     early, and exactly on time for any expiry within the 64^4-tick horizon
//     (~5.1 hours); beyond-horizon nodes park in the farthest top-level slot
//     and re-bucket as the horizon reaches them.
//   * Advance fast-forwards over empty tick runs via NextEventTick, so an
//     idle wheel costs O(levels) per sweep no matter how long it slept.
//   * Remove is O(1) and keeps the occupancy bitmaps, and so NextEventTick,
//     exact.

#ifndef SUNMT_SRC_TIMER_WHEEL_H_
#define SUNMT_SRC_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>

namespace sunmt {

// Intrusive circular-list node; embed as the FIRST member so the engine can
// cast node pointers back to entries.
struct WheelNode {
  WheelNode* next = nullptr;
  WheelNode* prev = nullptr;
  uint64_t expiry_tick = 0;
};

inline void WheelListInit(WheelNode* sentinel) {
  sentinel->next = sentinel;
  sentinel->prev = sentinel;
}
inline bool WheelListEmpty(const WheelNode* sentinel) {
  return sentinel->next == sentinel;
}
inline void WheelListPushBack(WheelNode* sentinel, WheelNode* node) {
  node->prev = sentinel->prev;
  node->next = sentinel;
  sentinel->prev->next = node;
  sentinel->prev = node;
}
inline void WheelListRemove(WheelNode* node) {
  node->prev->next = node->next;
  node->next->prev = node->prev;
  node->next = nullptr;
  node->prev = nullptr;
}
// Moves every node of `src` to the tail of `dst`; `src` is left empty.
inline void WheelListSpliceTail(WheelNode* dst, WheelNode* src) {
  if (WheelListEmpty(src)) {
    return;
  }
  WheelNode* first = src->next;
  WheelNode* last = src->prev;
  first->prev = dst->prev;
  dst->prev->next = first;
  last->next = dst;
  dst->prev = last;
  WheelListInit(src);
}

class TimingWheel {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;  // 64
  static constexpr uint64_t kSlotMask = kSlots - 1;
  static constexpr uint64_t kNoEvent = ~0ull;

  TimingWheel() {
    for (int level = 0; level < kLevels; ++level) {
      for (int slot = 0; slot < kSlots; ++slot) {
        WheelListInit(&slots_[level][slot]);
      }
    }
  }

  uint64_t cur_tick() const { return cur_tick_; }
  size_t size() const { return size_; }
  uint64_t cascades() const { return cascades_; }

  // Sets the starting tick. Only valid while the wheel is empty (the engine
  // calls it once at construction so boot-time monotonic clocks don't force a
  // multi-day fast-forward on the first sweep).
  void InitCurTick(uint64_t tick) { cur_tick_ = tick; }

  // Buckets `node` by node->expiry_tick. An expiry at or before the current
  // tick buckets at cur+1 (the next processed tick) — the stored expiry is
  // not modified, so the node still reports as due the moment it emerges.
  void Insert(WheelNode* node) {
    uint64_t bucket = node->expiry_tick;
    if (bucket <= cur_tick_) {
      bucket = cur_tick_ + 1;
    }
    int level;
    int slot;
    PickBucket(bucket, &level, &slot);
    WheelListPushBack(&slots_[level][slot], node);
    occupied_[level] |= 1ull << slot;
    ++size_;
  }

  // Detaches a bucketed node (the engine's cancel) in O(1). A removal that
  // leaves a slot's sentinel alone clears that slot's occupancy bit.
  void Remove(WheelNode* node) {
    WheelNode* rest = node->next;
    bool emptied = node->prev == rest;  // true only for {sentinel, node}
    WheelListRemove(node);
    --size_;
    if (emptied) {
      // `rest` is the sentinel; its index in slots_ names level and slot.
      auto i = static_cast<size_t>(rest - &slots_[0][0]);
      occupied_[i / kSlots] &= ~(1ull << (i % kSlots));
    }
  }

  // Advances to `now_tick`, splicing every due node onto `out`. Empty tick
  // runs are skipped via NextEventTick.
  void Advance(uint64_t now_tick, WheelNode* out) {
    while (cur_tick_ < now_tick) {
      uint64_t next = NextEventTick();
      if (next > now_tick) {
        cur_tick_ = now_tick;
        return;
      }
      cur_tick_ = next;
      ProcessCurrentTick(out);
    }
  }

  // Earliest tick > cur_tick() at which a slot must be processed (a level-0
  // slot comes due or a higher-level slot reaches its cascade boundary);
  // kNoEvent when empty. Exact per level: slot s of level L is processed at
  // the unique tick t in (cur, cur + 64^(L+1)] with t ≡ 0 (mod 64^L) and
  // (t >> 6L) ≡ s (mod 64).
  uint64_t NextEventTick() const {
    uint64_t best = kNoEvent;
    for (int level = 0; level < kLevels; ++level) {
      uint64_t occ = occupied_[level];
      if (occ == 0) {
        continue;
      }
      int shift = kSlotBits * level;
      uint64_t base = cur_tick_ >> shift;
      for (uint64_t j = 1; j <= kSlots; ++j) {
        if ((occ >> ((base + j) & kSlotMask)) & 1) {
          uint64_t t = (base + j) << shift;
          if (t < best) {
            best = t;
          }
          break;
        }
      }
    }
    return best;
  }

 private:
  void PickBucket(uint64_t bucket, int* level, int* slot) const {
    for (int l = 0; l < kLevels; ++l) {
      int shift = kSlotBits * l;
      if ((bucket >> shift) - (cur_tick_ >> shift) <
          static_cast<uint64_t>(kSlots)) {
        *level = l;
        *slot = static_cast<int>((bucket >> shift) & kSlotMask);
        return;
      }
    }
    // Beyond the 64^4-tick horizon: park in the farthest top-level slot; the
    // cascade re-buckets (or re-parks) when that slot's turn comes.
    int shift = kSlotBits * (kLevels - 1);
    *level = kLevels - 1;
    *slot = static_cast<int>(((cur_tick_ >> shift) + kSlots - 1) & kSlotMask);
  }

  void ProcessCurrentTick(WheelNode* out) {
    // Cascade top-down so a level-L node can fall through multiple levels —
    // or straight to `out` when its exact expiry is this very tick.
    for (int level = kLevels - 1; level >= 1; --level) {
      int shift = kSlotBits * level;
      if ((cur_tick_ & ((1ull << shift) - 1)) != 0) {
        continue;  // lower levels did not wrap: no boundary at this level
      }
      int slot = static_cast<int>((cur_tick_ >> shift) & kSlotMask);
      if (((occupied_[level] >> slot) & 1) == 0) {
        continue;
      }
      WheelNode drain;
      WheelListInit(&drain);
      WheelListSpliceTail(&drain, &slots_[level][slot]);
      occupied_[level] &= ~(1ull << slot);
      ++cascades_;
      while (!WheelListEmpty(&drain)) {
        WheelNode* node = drain.next;
        WheelListRemove(node);
        --size_;
        if (node->expiry_tick <= cur_tick_) {
          WheelListPushBack(out, node);
        } else {
          Insert(node);  // re-increments size_
        }
      }
    }
    // The level-0 slot for this tick is due wholesale: every node in it has
    // expiry_tick == cur_tick_ (or was bucketed here as already-past).
    int slot = static_cast<int>(cur_tick_ & kSlotMask);
    if ((occupied_[0] >> slot) & 1) {
      WheelNode* sentinel = &slots_[0][slot];
      for (WheelNode* node = sentinel->next; node != sentinel;
           node = node->next) {
        --size_;
      }
      WheelListSpliceTail(out, sentinel);
      occupied_[0] &= ~(1ull << slot);
    }
  }

  uint64_t cur_tick_ = 0;
  size_t size_ = 0;
  uint64_t cascades_ = 0;
  uint64_t occupied_[kLevels] = {};
  WheelNode slots_[kLevels][kSlots];
};

}  // namespace sunmt

#endif  // SUNMT_SRC_TIMER_WHEEL_H_
