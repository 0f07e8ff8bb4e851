// Unit tests for the small µarch building blocks: timed FIFOs (LDQ/SDQ/SCQ
// semantics), functional-unit pools and the completion wheel.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <random>
#include <stdexcept>
#include <vector>

#include "uarch/completion_wheel.hpp"
#include "uarch/fu_pool.hpp"
#include "uarch/timed_fifo.hpp"

namespace hidisc::uarch {
namespace {

TEST(TimedFifo, PushPopFifoOrder) {
  TimedFifo q("q", 4);
  EXPECT_TRUE(q.push({10, 1, false}));
  EXPECT_TRUE(q.push({20, 2, false}));
  ASSERT_NE(q.front_ready(100), nullptr);
  EXPECT_EQ(q.front_ready(100)->producer_pos, 1);
  EXPECT_EQ(q.pop().producer_pos, 1);
  EXPECT_EQ(q.pop().producer_pos, 2);
  EXPECT_TRUE(q.empty());
}

TEST(TimedFifo, CapacityRejectsWhenFull) {
  TimedFifo q("q", 2);
  EXPECT_TRUE(q.push({0, 0, false}));
  EXPECT_TRUE(q.push({0, 1, false}));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push({0, 2, false}));
  EXPECT_EQ(q.stats().pushes, 2u);
}

TEST(TimedFifo, FrontNotReadyBeforeItsCycle) {
  TimedFifo q("q", 4);
  q.push({50, 0, false});
  EXPECT_EQ(q.front_ready(49), nullptr);
  EXPECT_NE(q.front_ready(50), nullptr);
}

TEST(TimedFifo, ReadyIsHeadOnly) {
  // A ready entry behind an unready head stays invisible: FIFO semantics.
  TimedFifo q("q", 4);
  q.push({100, 0, false});
  q.push({0, 1, false});
  EXPECT_EQ(q.front_ready(10), nullptr);
}

TEST(TimedFifo, EodFlagTravels) {
  TimedFifo q("q", 4);
  q.push({0, -1, true});
  ASSERT_NE(q.front_ready(0), nullptr);
  EXPECT_TRUE(q.front_ready(0)->eod);
}

TEST(TimedFifo, StatsTrackOccupancyAndStalls) {
  TimedFifo q("q", 3);
  q.push({0, 0, false});
  q.push({0, 1, false});
  q.note_full_stall();
  q.note_empty_stall();
  EXPECT_EQ(q.stats().max_occupancy, 2u);
  EXPECT_EQ(q.stats().full_stall_cycles, 1u);
  EXPECT_EQ(q.stats().empty_stall_cycles, 1u);
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().pushes, 0u);
}

TEST(TimedFifo, PopOnEmptyThrows) {
  // A pop with no token is always a scheduler bug (the issue gates check
  // front_ready first); it must fail loudly, not return garbage.
  TimedFifo q("ldq", 2);
  EXPECT_THROW(q.pop(), std::logic_error);
  q.push({0, 7, false});
  EXPECT_EQ(q.pop().producer_pos, 7);
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(FuPool, AcquireUntilExhausted) {
  FuPool pool(2);
  EXPECT_TRUE(pool.available(0));
  EXPECT_TRUE(pool.acquire(0, 1));
  EXPECT_TRUE(pool.acquire(0, 1));
  EXPECT_FALSE(pool.acquire(0, 1));  // both busy this cycle
  EXPECT_TRUE(pool.acquire(1, 1));   // pipelined: free next cycle
}

TEST(FuPool, UnpipelinedOccupiesForLatency) {
  FuPool pool(1);
  EXPECT_TRUE(pool.acquire(0, 20));  // divide occupies 20 cycles
  EXPECT_FALSE(pool.available(19));
  EXPECT_TRUE(pool.available(20));
}

TEST(FuPool, ResetFreesUnits) {
  FuPool pool(1);
  pool.acquire(0, 100);
  pool.reset();
  EXPECT_TRUE(pool.available(0));
}

TEST(FuPool, SizeReportsUnitCount) {
  EXPECT_EQ(FuPool(4).size(), 4);
  EXPECT_EQ(FuPool().size(), 0);
}

// Table 1's integer MUL/DIV unit is unpipelined: a 20-cycle divide holds
// it for all 20 cycles.  The release schedule below is worked by hand.
TEST(FuPool, UnpipelinedDividesFollowHandComputedSchedule) {
  FuPool one(1);
  EXPECT_TRUE(one.acquire(0, 20));    // busy [0, 20)
  EXPECT_EQ(one.next_release(0), 20u);
  EXPECT_FALSE(one.acquire(5, 20));   // still dividing
  EXPECT_EQ(one.next_release(5), 20u);
  EXPECT_FALSE(one.available(19));
  EXPECT_TRUE(one.acquire(20, 20));   // freed at 20: busy [20, 40)
  EXPECT_EQ(one.next_release(20), 40u);
  EXPECT_EQ(one.next_release(39), 40u);
  EXPECT_TRUE(one.available(40));
  EXPECT_EQ(one.next_release(40), kNoEvent);

  FuPool two(2);
  EXPECT_TRUE(two.acquire(0, 20));    // unit A until 20
  EXPECT_TRUE(two.acquire(3, 20));    // unit B until 23
  EXPECT_FALSE(two.acquire(10, 20));
  EXPECT_EQ(two.busy(10), 2);
  EXPECT_EQ(two.next_release(10), 20u);
  EXPECT_TRUE(two.acquire(20, 20));   // A again, until 40
  EXPECT_EQ(two.next_release(20), 23u);
  EXPECT_TRUE(two.acquire(23, 20));   // B again, until 43
  EXPECT_EQ(two.next_release(23), 40u);
  EXPECT_FALSE(two.acquire(25, 20));
  EXPECT_EQ(two.next_release(41), 43u);
  EXPECT_EQ(two.busy(41), 1);
  EXPECT_EQ(two.next_release(43), kNoEvent);
  EXPECT_EQ(two.busy(43), 0);
}

TEST(FuPool, RejectsMoreUnitsThanItHolds) {
  EXPECT_THROW(FuPool(FuPool::kMaxUnits + 1), std::invalid_argument);
  EXPECT_THROW(FuPool(-1), std::invalid_argument);
}

// The pool scans a fixed array of per-unit release times; this model is
// the structure it replaced, a lazily-pruned min-heap of the busy units'
// release times.  Every query the issue path makes (available / acquire /
// next_release) must agree with it under a random schedule of pipelined
// and unpipelined acquires with time always moving forward.
struct RefPool {
  explicit RefPool(int units) : units(units) {}
  int units;
  std::vector<std::uint64_t> busy;  // min-heap of release times

  void prune(std::uint64_t now) {
    while (!busy.empty() && busy.front() <= now) {
      std::pop_heap(busy.begin(), busy.end(), std::greater<>{});
      busy.pop_back();
    }
  }
  bool available(std::uint64_t now) {
    prune(now);
    return busy.size() < static_cast<std::size_t>(units);
  }
  bool acquire(std::uint64_t now, int b) {
    if (!available(now)) return false;
    busy.push_back(now + static_cast<std::uint64_t>(b));
    std::push_heap(busy.begin(), busy.end(), std::greater<>{});
    return true;
  }
  std::uint64_t next_release(std::uint64_t now) {
    prune(now);
    return busy.empty() ? kNoEvent : busy.front();
  }
};

TEST(FuPool, AgreesWithLinearScanModelUnderRandomSchedule) {
  for (const int units : {1, 2, 4}) {
    FuPool pool(units);
    RefPool ref(units);
    std::mt19937_64 rng(0xF00Du + static_cast<std::uint64_t>(units));
    std::uint64_t now = 0;
    for (int step = 0; step < 2000; ++step) {
      now += rng() % 3;  // time never moves backwards, often stays put
      switch (rng() % 3) {
        case 0: {  // pipelined op: busy one cycle
          EXPECT_EQ(pool.acquire(now, 1), ref.acquire(now, 1))
              << units << " units, step " << step;
          break;
        }
        case 1: {  // unpipelined divide: busy up to 20 cycles
          const int busy = 1 + static_cast<int>(rng() % 20);
          EXPECT_EQ(pool.acquire(now, busy), ref.acquire(now, busy))
              << units << " units, step " << step;
          break;
        }
        default:
          break;  // query-only step
      }
      EXPECT_EQ(pool.available(now), ref.available(now)) << "step " << step;
      EXPECT_EQ(pool.next_release(now), ref.next_release(now))
          << "step " << step;
    }
  }
}

// The wheel against an ordered set of (cycle, slot) pairs: random
// latencies up to four times the span (so events start in the overflow
// heap and migrate), random time steps up to twice the span (so one drain
// can cross the whole wheel), one event in flight per slot.
TEST(CompletionWheel, AgreesWithOrderedModelAcrossTheSpan) {
  constexpr std::uint64_t kSpan = CompletionWheel::kSpan;
  CompletionWheel wheel;
  std::set<std::pair<std::uint64_t, unsigned>> model;
  std::uint64_t in_flight = 0;  // slot bitmap
  std::mt19937_64 rng(0x5EEDu);
  std::uint64_t now = 0;
  for (int step = 0; step < 20000; ++step) {
    // Drain: every event <= now is delivered, in cycle then slot order.
    std::vector<unsigned> got, want;
    wheel.drain(now, [&](unsigned slot) { got.push_back(slot); });
    while (!model.empty() && model.begin()->first <= now) {
      want.push_back(model.begin()->second);
      in_flight &= ~(1ull << model.begin()->second);
      model.erase(model.begin());
    }
    ASSERT_EQ(got, want) << "step " << step << " now " << now;
    // Schedule a few new events on free slots.
    for (int k = static_cast<int>(rng() % 4); k > 0; --k) {
      const auto slot = static_cast<unsigned>(rng() % 64);
      if (in_flight >> slot & 1) continue;
      const std::uint64_t lat =
          rng() % 8 == 0 ? 1 + rng() % (4 * kSpan) : 1 + rng() % 24;
      wheel.schedule(now + lat, slot);
      model.emplace(now + lat, slot);
      in_flight |= 1ull << slot;
    }
    ASSERT_NO_THROW(wheel.debug_check()) << "step " << step;
    ASSERT_EQ(wheel.earliest(),
              model.empty() ? kNoEvent : model.begin()->first)
        << "step " << step;
    auto events = wheel.events();
    std::vector<std::uint64_t> want_events;
    for (const auto& [cycle, slot] : model)
      want_events.push_back(cycle << 6 | slot);
    std::sort(events.begin(), events.end());
    std::sort(want_events.begin(), want_events.end());
    ASSERT_EQ(events, want_events) << "step " << step;
    now += rng() % 16 == 0 ? rng() % (2 * kSpan) : rng() % 3;
  }
}

}  // namespace
}  // namespace hidisc::uarch
