#include "lab/runner.hpp"

#include <chrono>
#include <optional>

#include "lab/result_cache.hpp"
#include "lab/thread_pool.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/trace_store.hpp"

namespace hidisc::lab {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

// Thin driver over the artifact pipeline (src/pipeline/): materialize the
// stores, submit the plan's cells as one node set, translate the outcome
// into the PlanRun shape.  All scheduling, memoization, cache probing and
// fault isolation lives in the DAG executor.
PlanRun run_plan(const ExperimentPlan& plan, const RunOptions& opt) {
  const auto start = Clock::now();

  // Both persistent layers live in the same directory: <key>.result for
  // sim nodes, <key>.trace for trace nodes.
  std::optional<ResultCache> results;
  std::optional<pipeline::TraceStore> traces;
  if (!opt.cache_dir.empty()) {
    results.emplace(opt.cache_dir);
    traces.emplace(opt.cache_dir);
  }
  pipeline::Pipeline::Stores stores;
  stores.results = results ? &*results : nullptr;
  stores.traces = traces ? &*traces : nullptr;
  stores.refresh = opt.refresh;
  pipeline::Pipeline pipe(stores);

  ThreadPool pool(opt.threads);
  const pipeline::Pipeline::CellHook hook =
      [&](std::size_t index, const CellResult&, std::size_t done,
          std::size_t total, bool from_cache) {
        if (opt.on_cell)
          opt.on_cell(plan.cells[index], done, total, from_cache);
      };
  pipeline::Pipeline::Outcome outcome = pipe.run(plan.cells, &pool, hook);

  PlanRun run;
  run.cells = std::move(outcome.cells);
  run.nodes = outcome.nodes;
  run.preps = outcome.nodes.compile.rebuilt;
  run.traces = outcome.nodes.trace.rebuilt;
  for (const auto& cell : run.cells) {
    if (!cell.ok()) {
      ++run.failed;
      continue;
    }
    run.cache_hits += cell.from_cache ? 1 : 0;
    run.simulated += cell.from_cache ? 0 : 1;
  }
  run.sim_cycles_per_sec = sim_cycles_per_sec(run.cells);
  run.wall_ms = ms_since(start);
  return run;
}

double sim_cycles_per_sec(const std::vector<CellResult>& cells) {
  double sim_ms = 0.0;
  std::uint64_t sim_cycles = 0;
  for (const auto& cell : cells) {
    if (cell.from_cache || !cell.ok() || cell.wall_ms <= 0.0) continue;
    sim_ms += cell.wall_ms;
    sim_cycles += cell.result.cycles;
  }
  return sim_ms > 0.0 ? static_cast<double>(sim_cycles) * 1000.0 / sim_ms
                      : 0.0;
}

}  // namespace hidisc::lab
