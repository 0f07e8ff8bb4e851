// Functional-unit pools.
//
// Table 1: 4 integer ALUs + 1 integer MUL/DIV per processor; 4 FP adders +
// 1 FP MUL/DIV on the superscalar and the CP.  ALU/FP-add/FP-mul units are
// pipelined (busy one cycle per issue); divide units are unpipelined (busy
// for the whole operation).  The CMP's prefetch buffer is a pool too: one
// "unit" per in-flight fire-and-forget fill, busy until the fill lands.
//
// Units are interchangeable, so the pool keeps only each unit's release
// time in a fixed array: a unit whose release time is <= `now` is free.
// Pools hold a handful of units, so a linear scan of the array beats any
// ordered structure, and nothing ever allocates or needs pruning.
// Queries assume `now` never moves backwards, which the cores guarantee.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>

#include "uarch/event.hpp"

namespace hidisc::uarch {

class FuPool {
 public:
  static constexpr int kMaxUnits = 64;

  FuPool() = default;
  explicit FuPool(int units) : units_(units) {
    if (units < 0 || units > kMaxUnits)
      throw std::invalid_argument("FuPool: unit count outside [0, 64]");
  }

  [[nodiscard]] int size() const noexcept { return units_; }

  // True if some unit can accept an operation this cycle.
  [[nodiscard]] bool available(std::uint64_t now) const noexcept {
    return std::any_of(release_.begin(), release_.begin() + units_,
                       [now](std::uint64_t r) { return r <= now; });
  }

  // Claims a unit for `busy` cycles; returns false when none is free.
  bool acquire(std::uint64_t now, int busy) noexcept {
    for (int u = 0; u < units_; ++u) {
      if (release_[u] <= now) {
        release_[u] = now + static_cast<std::uint64_t>(busy);
        return true;
      }
    }
    return false;
  }

  // Units still busy at `now`.
  [[nodiscard]] int busy(std::uint64_t now) const noexcept {
    return static_cast<int>(
        std::count_if(release_.begin(), release_.begin() + units_,
                      [now](std::uint64_t r) { return r > now; }));
  }

  // Earliest cycle strictly after `now` at which a busy unit frees up;
  // kNoEvent when every unit is already free (or the pool is empty).
  [[nodiscard]] std::uint64_t next_release(std::uint64_t now) const noexcept {
    std::uint64_t ev = kNoEvent;
    for (int u = 0; u < units_; ++u)
      if (release_[u] > now) ev = std::min(ev, release_[u]);
    return ev;
  }

  void reset() noexcept { release_.fill(0); }

 private:
  int units_ = 0;
  std::array<std::uint64_t, kMaxUnits> release_{};  // 0 = never busy
};

}  // namespace hidisc::uarch
