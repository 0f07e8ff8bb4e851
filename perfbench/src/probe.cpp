#include "probe.hpp"

#include <chrono>
#include <cstdint>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

volatile std::uint64_t sink;

// Eight independent xorshift chains: throughput-bound on the ALUs.
std::uint64_t ilp(int n) {
  std::uint64_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int i = 0; i < n; ++i)
    for (auto& x : a) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
  std::uint64_t s = 0;
  for (const auto x : a) s += x;
  return s;
}

}  // namespace

double HostProbe::slice() {
  const auto t = Clock::now();
  sink = ilp(2600000);
  const double ms = ms_since(t);
  ++slices_;
  total_ms_ += ms;
  return ms;
}

void HostProbe::reset() {
  slices_ = 0;
  total_ms_ = 0.0;
}

double HostProbe::mean_ms() const {
  return slices_ == 0 ? 0.0 : total_ms_ / static_cast<double>(slices_);
}

}  // namespace perfbench
