// The paper's figures computed from a plan run: the one copy of the
// speed-up, miss-ratio and IPC math behind Fig. 8, Fig. 9, Fig. 10,
// Table 2 and the extra grid (EXPERIMENTS.md), and their renderer.
//
// Cells are looked up by (workload, preset, tag), so a figure reads the
// same numbers from its own plan and from `paper`, whatever the cell
// order.  A cell the plan lacks throws std::out_of_range.
#pragma once

#include <string>

#include "lab/plan.hpp"
#include "lab/runner.hpp"
#include "machine/result.hpp"

namespace hidisc::lab {

// `base` cycles over `r` cycles.
[[nodiscard]] double speedup(const machine::Result& base,
                             const machine::Result& r);

// Speed-up of `workload` under `preset` against Superscalar.
[[nodiscard]] double speedup(const ExperimentPlan& plan, const PlanRun& run,
                             const std::string& workload,
                             machine::Preset preset);

// Means of the speed-up and of the L1 demand-miss ratio against
// Superscalar over Fig. 8's seven workloads, and the fraction of IPC lost
// from Fig. 10's shortest (L2, DRAM) latency to its longest.
[[nodiscard]] double mean_speedup(const ExperimentPlan& plan,
                                  const PlanRun& run, machine::Preset preset);
[[nodiscard]] double mean_miss_ratio(const ExperimentPlan& plan,
                                     const PlanRun& run,
                                     machine::Preset preset);
[[nodiscard]] double degradation(const ExperimentPlan& plan,
                                 const PlanRun& run,
                                 const std::string& workload,
                                 machine::Preset preset);

// The tables of the figures `plan` reproduces: fig8, fig9, fig10, table2
// and extra render their own, paper renders all five, and any other plan
// renders "".  A figure with a failed cell gets a one-line notice instead.
[[nodiscard]] std::string render_figures(const ExperimentPlan& plan,
                                         const PlanRun& run);

}  // namespace hidisc::lab
