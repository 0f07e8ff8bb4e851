// A FIFO of at most 64 values — one per scheduling-window slot — in a
// fixed array, so push and pop never touch the allocator.  The core keeps
// its per-queue pending-write cursors and its store ring in these; the
// window bound (at most 64 entries) is what makes 64 enough.
#pragma once

#include <array>
#include <cstddef>

namespace hidisc::uarch {

template <class T>
class WindowRing {
 public:
  static constexpr std::size_t kCapacity = 64;

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  // Element `i` in FIFO order (0 = front).
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return slots_[(head_ + i) & kMask];
  }
  [[nodiscard]] const T& front() const noexcept { return slots_[head_]; }

  // The caller guarantees room (the window holds at most 64 entries).
  void push_back(const T& v) noexcept {
    slots_[(head_ + count_) & kMask] = v;
    ++count_;
  }
  void pop_front() noexcept {
    head_ = (head_ + 1) & kMask;
    --count_;
  }
  void clear() noexcept { head_ = count_ = 0; }

 private:
  static constexpr std::size_t kMask = kCapacity - 1;
  std::array<T, kCapacity> slots_{};
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace hidisc::uarch
