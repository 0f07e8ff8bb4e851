// Machine-readable export of a PlanRun: JSON (full Result per cell, flat
// dotted field names — schema in docs/LAB.md) and CSV
// (the headline columns).  Both are deterministic byte-for-byte for a
// given plan outcome, so exports diff cleanly across code changes —
// the machine-readable bench trajectory of the repo.
#pragma once

#include <string>

#include "lab/plan.hpp"
#include "lab/runner.hpp"

namespace hidisc::lab {

struct ExportMeta {
  int threads = 1;  // recorded for provenance; never affects numbers
};

[[nodiscard]] std::string to_json(const ExperimentPlan& plan,
                                  const PlanRun& run,
                                  const ExportMeta& meta = {});

// Columns: workload,preset,tag,cached,ok,error_class,cycles,instructions,
//          ipc,l1_miss_rate,l1_demand_misses,l2_demand_misses,
//          branch_mispredict_rate,cmas_forks,wall_ms,error
// Failed cells have ok=0, a non-empty error_class, zeroed numbers, and
// the quoted error message in the trailing column.
[[nodiscard]] std::string to_csv(const ExperimentPlan& plan,
                                 const PlanRun& run);

// Writes `text` to `path` ("-" = stdout).  Throws std::runtime_error on
// I/O failure.
void write_text_file(const std::string& path, const std::string& text);

}  // namespace hidisc::lab
