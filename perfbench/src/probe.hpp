// Host-speed probe for the timed passes.
//
// The benchmark runs on a host shared with other tenants, whose load
// changes the speed of the benchmark's core by up to 1.8x within seconds
// without showing as steal time, so a pass's raw wall time mostly
// measures the host.  The probe is a fixed kernel, independent of the
// simulator's code: eight independent xorshift chains, throughput-bound
// on the ALUs.  Of the kernels tried (pointer chases and random
// read-modify-writes from 1 to 64 MB, branchy code, a byte-code
// interpreter, hash-map churn) its time tracked the pass time best
// (correlation 0.84-0.95 over passes).  Slices of it run between the
// cells of a pass, on the pass's worker thread, and main.cpp scales the
// pass time by the mean slice time it measured (see kProbeRefMs there).
#pragma once

#include <cstddef>

namespace perfbench {

class HostProbe {
 public:
  // Runs one slice; returns its wall time in ms.
  double slice();

  // Forgets the slices run so far.
  void reset();

  [[nodiscard]] double total_ms() const { return total_ms_; }
  [[nodiscard]] double mean_ms() const;

 private:
  std::size_t slices_ = 0;
  double total_ms_ = 0.0;
};

}  // namespace perfbench
