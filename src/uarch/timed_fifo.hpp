// Timed architectural FIFO used for the LDQ, SDQ and SCQ (paper §3.2).
//
// Entries carry the cycle at which their data becomes visible to the
// consumer and the trace position of the producing instruction (used by the
// machines to assert the compiler's push/pop pairing).  Capacity models the
// paper's 32-entry queues; producers stall at commit when the queue is
// full, consumers stall at issue when it is empty — those two stalls are
// what bound the slip distance.
//
// The entries live in a power-of-two ring allocated once at construction,
// so push/pop are index math and never touch the allocator.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "uarch/event.hpp"

namespace hidisc::uarch {

struct FifoStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t full_stall_cycles = 0;   // producer wanted to push, was full
  std::uint64_t empty_stall_cycles = 0;  // consumer wanted to pop, was empty
  std::size_t max_occupancy = 0;

  friend bool operator==(const FifoStats&, const FifoStats&) = default;
};

class TimedFifo {
 public:
  struct Entry {
    std::uint64_t ready = 0;        // cycle the value is consumable
    std::int64_t producer_pos = -1; // trace position of the producer
    bool eod = false;               // End-Of-Data token (paper §3.1)
  };

  TimedFifo(std::string name, std::size_t capacity)
      : name_(std::move(name)), capacity_(capacity) {
    std::size_t ring = 1;
    while (ring < capacity) ring <<= 1;
    slots_.resize(ring);
    mask_ = ring - 1;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] bool full() const noexcept { return count_ >= capacity_; }

  bool push(Entry e) {
    if (full()) return false;
    slots_[(head_ + count_) & mask_] = e;
    ++count_;
    ++stats_.pushes;
    stats_.max_occupancy = std::max(stats_.max_occupancy, count_);
    return true;
  }

  // The head entry if its data is consumable at `now`.
  [[nodiscard]] const Entry* front_ready(std::uint64_t now) const {
    if (count_ == 0 || slots_[head_].ready > now) return nullptr;
    return &slots_[head_];
  }

  // The head entry regardless of readiness — forensic use (deadlock
  // snapshots need the head's ready time even when it is in the future).
  [[nodiscard]] const Entry* head() const {
    return count_ == 0 ? nullptr : &slots_[head_];
  }

  // Popping an empty queue is a core-model bug (consumers must gate on
  // front_ready); fail loudly instead of reading a dead ring slot.
  Entry pop() {
    if (count_ == 0)
      throw std::logic_error(name_ + ": pop on empty queue");
    const Entry e = slots_[head_];
    head_ = (head_ + 1) & mask_;
    --count_;
    ++stats_.pops;
    return e;
  }

  void note_full_stall() noexcept { ++stats_.full_stall_cycles; }
  void note_empty_stall() noexcept { ++stats_.empty_stall_cycles; }
  // Bulk variants used by the event-skip scheduler to account stall cycles
  // it fast-forwarded over (machine/machine.cpp account_skip).
  void note_full_stalls(std::uint64_t n) noexcept {
    stats_.full_stall_cycles += n;
  }
  void note_empty_stalls(std::uint64_t n) noexcept {
    stats_.empty_stall_cycles += n;
  }

  // Earliest cycle strictly after `now` at which the head entry's data
  // becomes consumable; kNoEvent when the queue is empty or the head is
  // already ready (then only a consumer's pop — an event of the consuming
  // core — can change this queue's observable state).
  [[nodiscard]] std::uint64_t next_ready_event(std::uint64_t now) const
      noexcept {
    if (count_ == 0 || slots_[head_].ready <= now) return kNoEvent;
    return slots_[head_].ready;
  }

  [[nodiscard]] const FifoStats& stats() const noexcept { return stats_; }

  void reset() {
    head_ = count_ = 0;
    stats_ = FifoStats{};
  }

 private:
  std::string name_;
  std::size_t capacity_;
  // Ring of pow2 >= capacity slots: head at head_, count_ live entries.
  std::vector<Entry> slots_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  FifoStats stats_;
};

}  // namespace hidisc::uarch
