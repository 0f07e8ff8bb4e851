// Unit tests for the small µarch building blocks: timed FIFOs (LDQ/SDQ/SCQ
// semantics) and functional-unit pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <vector>

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

// The pool keeps a lazily-pruned min-heap of release times; this model is
// the obvious per-unit array with linear scans.  Every query the issue
// path makes (available / acquire / next_release) must
// agree with it under a random schedule of pipelined and unpipelined
// acquires with time always moving forward.
struct RefPool {
  explicit RefPool(int units) : release(static_cast<std::size_t>(units), 0) {}
  std::vector<std::uint64_t> release;  // per-unit: busy until this cycle

  bool available(std::uint64_t now) const {
    return std::any_of(release.begin(), release.end(),
                       [&](std::uint64_t r) { return r <= now; });
  }
  bool acquire(std::uint64_t now, int busy) {
    for (auto& r : release)
      if (r <= now) {
        r = now + static_cast<std::uint64_t>(busy);
        return true;
      }
    return false;
  }
  std::uint64_t next_release(std::uint64_t now) const {
    std::uint64_t best = kNoEvent;
    for (const auto r : release)
      if (r > now) best = std::min(best, r);
    return best;
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

}  // namespace
}  // namespace hidisc::uarch
