// The hidisc-lab experiment runner: a thin driver over the artifact
// pipeline (src/pipeline/, docs/PIPELINE.md).
//
// run_plan submits the plan's cells to the DAG executor, which builds a
// content-addressed graph of typed nodes — compile (one per distinct
// (workload spec, compile options) pair) → trace (one per binary a miss
// cell demands) → sim (one per cell) — and executes it over the
// work-stealing thread pool in pure dependency order: a cell simulates
// the moment its own trace is ready, regardless of what other workloads
// are still compiling.  Sim results persist in the on-disk ResultCache,
// traces in the TraceStore next to it, so a machine-preset-only change
// reruns sim nodes while every trace node stays warm — observable in
// PlanRun::nodes, the JSON export, and the service stats endpoint.
//
// Results are returned indexed by cell, so the output is bit-identical
// for any thread count — parallelism changes wall-clock, never numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lab/plan.hpp"
#include "machine/result.hpp"
#include "pipeline/stats.hpp"

namespace hidisc::lab {

struct RunOptions {
  int threads = 1;
  // On-disk result cache directory; empty disables persistent caching
  // (prep memoization within the run still applies).
  std::string cache_dir;
  // Ignore (but still refresh) existing cache entries.
  bool refresh = false;
  // Progress callback, invoked as each cell finishes; serialized by the
  // runner, so it may print.  `done`/`total` count finished/all cells.
  std::function<void(const Cell& cell, std::size_t done, std::size_t total,
                     bool from_cache)>
      on_cell;
};

struct CellResult {
  machine::Result result;
  std::string key;  // 32-hex content key (cache file basename)
  // Dynamic instruction count of the original (unseparated) binary; use
  // for cross-binary IPC normalization.  Served from the cache entry on
  // hits, so it is available even when the compilation was skipped.
  std::uint64_t orig_dynamic_instructions = 0;
  bool from_cache = false;
  double wall_ms = 0.0;  // simulation time; 0 for cache hits
  // Simulator throughput for this cell: simulated cycles per wall-clock
  // second (the number the event-skip scheduler exists to raise); 0 for
  // cache hits.
  double sim_cycles_per_sec = 0.0;

  // Fault isolation: non-empty `error` marks this cell failed (its
  // `result` is meaningless) without poisoning the rest of the run.
  std::string error;            // human-readable failure message
  std::string error_class;      // "prep" / "trace" / "sim" / "deadlock:<cause>"
  std::string diagnostic_json;  // attached DeadlockReport, when one exists

  // Pipeline provenance: node work performed to satisfy this cell when it
  // ran as a single-cell pipeline submission (hiserved jobs).  Local
  // multi-cell runs leave these zero — nodes are shared across cells
  // there, so per-cell attribution would double count; PlanRun::nodes is
  // the authoritative aggregate.  The daemon zeroes them on dedup/memo
  // deliveries so connected clients can sum without double counting.
  std::uint32_t compile_nodes_rebuilt = 0;
  std::uint32_t trace_nodes_hit = 0;
  std::uint32_t trace_nodes_rebuilt = 0;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

struct PlanRun {
  std::vector<CellResult> cells;  // parallel to plan.cells
  std::size_t simulated = 0;      // cells that ran the timing machine
  std::size_t failed = 0;         // cells with a non-empty error slot
  std::size_t cache_hits = 0;
  std::size_t preps = 0;  // compile nodes executed (= nodes.compile.rebuilt)
  std::size_t traces = 0; // trace nodes executed (= nodes.trace.rebuilt)
  // Per-phase node accounting from the DAG executor: how many nodes the
  // graph had, how many were served from a cache layer, how many rebuilt.
  // The cache-invalidation contract is stated in these numbers (e.g. a
  // preset-only change shows nodes.trace.rebuilt == 0).
  pipeline::NodeStats nodes;
  double wall_ms = 0.0;   // whole-plan wall clock
  // Aggregate simulator throughput: see sim_cycles_per_sec(cells) below.
  double sim_cycles_per_sec = 0.0;

  [[nodiscard]] bool ok() const noexcept { return failed == 0; }
};

// Aggregate simulator throughput of a plan run: total simulated cycles
// divided by the summed per-cell simulation time, over the cells that ran
// the timing machine and have a measured time (not from cache, not
// failed, wall_ms > 0).  0 when no cell qualifies.  Local runs and
// connected clients both fill PlanRun::sim_cycles_per_sec from this.
[[nodiscard]] double sim_cycles_per_sec(const std::vector<CellResult>& cells);

// Runs every cell of `plan`.  A cell whose prep, trace or simulation
// fails carries the failure in its error slots (error / error_class /
// diagnostic_json) instead of aborting the run: healthy cells complete and
// export normally.  Only infrastructure-level problems (bad plan, broken
// cache directory) still throw.
[[nodiscard]] PlanRun run_plan(const ExperimentPlan& plan,
                               const RunOptions& opt = {});

}  // namespace hidisc::lab
