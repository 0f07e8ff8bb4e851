// Completion events of one core's scheduling window, as a timing wheel.
//
// An event is (cycle, ring slot): the window entry in `slot` completes at
// `cycle`.  The wheel has one bucket per cycle over the kSpan cycles after
// the last drained cycle; a bucket is a 64-bit mask of the slots
// completing then, and an occupancy bitmap (one bit per bucket) finds the
// next non-empty bucket with a count-trailing-zeros scan.  The rare event
// beyond the span (a very long memory latency) waits in a small min-heap
// and moves into the wheel once the span reaches it.  A window entry has
// at most one event in flight, so the heap never holds more than 64 keys;
// its storage is reserved once and nothing allocates afterwards.
//
// Invariants (debug_check recomputes them):
//   - every held event is later than `drained_`;
//   - a bucket holds only events of the one cycle in
//     (drained_, drained_ + kSpan] that maps to it, and its occupancy bit
//     is set exactly when its mask is non-zero;
//   - the heap is a min-heap holding only events past drained_ + kSpan.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "uarch/event.hpp"

namespace hidisc::uarch {

class CompletionWheel {
 public:
  static constexpr std::size_t kSpan = 256;  // cycles, a multiple of 64

  CompletionWheel() { far_.reserve(64); }

  // Schedules `slot` (< 64) to complete at `cycle`, which must be later
  // than the last drained cycle.
  void schedule(std::uint64_t cycle, unsigned slot) noexcept {
    if (cycle <= drained_ + kSpan) {
      const auto b = static_cast<std::size_t>(cycle) & kMask;
      buckets_[b] |= 1ull << slot;
      occupied_[b >> 6] |= 1ull << (b & 63);
    } else {
      far_.push_back(cycle << kSlotBits | slot);
      std::push_heap(far_.begin(), far_.end(), std::greater<>{});
    }
  }

  // Calls wake(slot) for every event at or before `now`, oldest cycle
  // first and ascending slots within a cycle.  Afterwards every held event
  // is later than `now`.
  template <class F>
  void drain(std::uint64_t now, F&& wake) {
    if (now <= drained_) return;
    const auto cycles =
        static_cast<std::size_t>(std::min<std::uint64_t>(now - drained_, kSpan));
    const std::size_t from = static_cast<std::size_t>(drained_ + 1) & kMask;
    for (std::size_t d = first_occupied(from, cycles); d < cycles;
         d += 1 + first_occupied(from + d + 1, cycles - d - 1)) {
      const std::size_t b = (from + d) & kMask;
      for (auto m = buckets_[b]; m != 0; m &= m - 1)
        wake(static_cast<unsigned>(std::countr_zero(m)));
      buckets_[b] = 0;
      occupied_[b >> 6] &= ~(1ull << (b & 63));
    }
    drained_ = now;
    // Heap events now due are delivered; those the span now reaches move
    // into the wheel.
    while (!far_.empty() && (far_.front() >> kSlotBits) <= now + kSpan) {
      std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
      const auto key = far_.back();
      far_.pop_back();
      const auto slot = static_cast<unsigned>(key & (64 - 1));
      if (key >> kSlotBits <= now)
        wake(slot);
      else
        schedule(key >> kSlotBits, slot);
    }
  }

  // Earliest held event's cycle; kNoEvent when none is held.
  [[nodiscard]] std::uint64_t earliest() const noexcept {
    const std::size_t from = static_cast<std::size_t>(drained_ + 1) & kMask;
    const std::size_t d = first_occupied(from, kSpan);
    if (d < kSpan) return drained_ + 1 + d;
    return far_.empty() ? kNoEvent : far_.front() >> kSlotBits;
  }

  // Every held event as (cycle << 6 | slot), in no particular order.
  [[nodiscard]] std::vector<std::uint64_t> events() const {
    std::vector<std::uint64_t> out(far_.begin(), far_.end());
    for (std::size_t b = 0; b < kSpan; ++b)
      for (auto m = buckets_[b]; m != 0; m &= m - 1)
        out.push_back(cycle_of(b) << kSlotBits |
                      static_cast<unsigned>(std::countr_zero(m)));
    return out;
  }

  // Recomputes the structural invariants above; throws std::logic_error.
  void debug_check() const {
    for (std::size_t b = 0; b < kSpan; ++b)
      if (((occupied_[b >> 6] >> (b & 63)) & 1) != (buckets_[b] != 0 ? 1u : 0u))
        throw std::logic_error("completion wheel: occupancy bit mismatch");
    if (!std::is_heap(far_.begin(), far_.end(), std::greater<>{}))
      throw std::logic_error("completion wheel: overflow not a min-heap");
    for (const auto key : far_)
      if ((key >> kSlotBits) <= drained_ + kSpan)
        throw std::logic_error("completion wheel: overflow event in span");
  }

  void clear() noexcept {
    buckets_.fill(0);
    occupied_.fill(0);
    far_.clear();
    drained_ = 0;
  }

 private:
  static constexpr std::size_t kMask = kSpan - 1;
  static constexpr unsigned kSlotBits = 6;

  // The cycle in (drained_, drained_ + kSpan] that bucket `b` stands for.
  [[nodiscard]] std::uint64_t cycle_of(std::size_t b) const noexcept {
    return drained_ + 1 + ((b - static_cast<std::size_t>(drained_ + 1)) & kMask);
  }

  // Offset d < count of the first occupied bucket (from + d) mod kSpan;
  // `count` when none of those buckets is occupied.
  [[nodiscard]] std::size_t first_occupied(std::size_t from,
                                           std::size_t count) const noexcept {
    for (std::size_t d = 0; d < count;) {
      const std::size_t b = (from + d) & kMask;
      const std::uint64_t bits = occupied_[b >> 6] >> (b & 63);
      if (bits != 0)
        return std::min(d + static_cast<std::size_t>(std::countr_zero(bits)),
                        count);
      d += 64 - (b & 63);
    }
    return count;
  }

  std::array<std::uint64_t, kSpan> buckets_{};
  std::array<std::uint64_t, kSpan / 64> occupied_{};
  std::uint64_t drained_ = 0;  // every event <= drained_ was delivered
  std::vector<std::uint64_t> far_;  // min-heap of cycle << 6 | slot
};

}  // namespace hidisc::uarch
