// The traced run: one pass of a plan driven call by call through each
// layer's public functions, with a span around every call.
//
// It replays what lab::run_plan's DAG executor does for the plan on one
// thread, in the executor's order of probes: per workload group build and
// compile; per cell probe the result cache, and only on a miss demand the
// trace (store first, functional simulator second), simulate, and publish
// the result; finally export the plan as JSON.  Its Results must equal
// run_plan's bit for bit — the benchmark checks that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lab/plan.hpp"
#include "lab/runner.hpp"
#include "spans.hpp"

namespace perfbench {

// Lower-case metric-name form of a preset: superscalar, cp_ap, ...
[[nodiscard]] const char* preset_key(hidisc::machine::Preset p);

struct TracedPass {
  hidisc::lab::PlanRun run;  // cells parallel to plan.cells; wall_ms set
  std::vector<Span> spans;

  // Counts made at the layer boundaries.
  std::uint64_t trace_entries_made = 0;  // by the functional simulator
  std::uint64_t trace_entries_written = 0, trace_bytes_written = 0;
  std::uint64_t trace_entries_read = 0, trace_bytes_read = 0;
  std::uint64_t event_steps = 0;     // SchedulerStats over simulated cells
  std::uint64_t sim_cycles = 0;      // cycles of the simulated cells
  std::uint64_t committed_uops = 0;  // every core, CMP slice uops included
  std::uint64_t validation_failures = 0;  // golden checks of new traces
};

// Runs `plan` against the stores in `store_dir` (empty: no stores).
[[nodiscard]] TracedPass traced_pass(const hidisc::lab::ExperimentPlan& plan,
                                     const std::string& store_dir);

}  // namespace perfbench
