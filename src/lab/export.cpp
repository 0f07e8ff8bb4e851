#include "lab/export.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "lab/serialize.hpp"
#include "stats/json.hpp"

namespace hidisc::lab {

namespace {

// Minimal CSV quoting for free-text columns (error messages may contain
// commas and quotes).
std::string csv_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    out += c;
  }
  out += '"';
  return out;
}

void write_phase(stats::JsonWriter& w, const char* name,
                 const pipeline::PhaseStats& ph) {
  w.key(name).begin_object().field("total", ph.total).field("hits", ph.hits);
  w.field("rebuilt", ph.rebuilt).field("failed", ph.failed);
  w.field("skipped", ph.skipped()).field("ms_hits", ph.ms_hits);
  w.field("ms_rebuilt", ph.ms_rebuilt).end_object();
}

}  // namespace

std::string to_json(const ExperimentPlan& plan, const PlanRun& run,
                    const ExportMeta& meta) {
  stats::JsonWriter w;
  w.begin_object().field("plan", plan.name);
  w.field("description", plan.description).field("threads", meta.threads);
  w.field("wall_ms", run.wall_ms);
  w.field("sim_cycles_per_sec", run.sim_cycles_per_sec);
  w.field("simulated", run.simulated).field("cache_hits", run.cache_hits);
  w.field("failed", run.failed).key("nodes").begin_object();
  write_phase(w, "compile", run.nodes.compile);
  write_phase(w, "trace", run.nodes.trace);
  write_phase(w, "sim", run.nodes.sim);
  w.end_object().key("cells").begin_array();
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const Cell& c = plan.cells[i];
    const CellResult& r = run.cells[i];
    w.begin_object().field("workload", c.workload.name);
    w.field("preset", machine::preset_name(c.preset)).field("tag", c.tag);
    w.field("key", r.key).field("cached", r.from_cache);
    w.field("wall_ms", r.wall_ms);
    w.field("sim_cycles_per_sec", r.sim_cycles_per_sec);
    w.field("orig_dynamic_instructions", r.orig_dynamic_instructions);
    w.field("ok", r.ok());
    if (r.ok()) {
      // Unary + turns the bool fields into 0/1 numbers.
      w.key("result").begin_object();
      visit_result_fields(r.result, [&w](const std::string& name,
                                         const auto& value) {
        w.field(name, +value);
      });
      w.end_object();
    } else {
      // Failed cell: the attached diagnostics travel with the export, the
      // meaningless Result does not.
      w.field("error", r.error).field("error_class", r.error_class);
      w.key("diagnostic").raw(r.diagnostic_json.empty() ? "null"
                                                        : r.diagnostic_json);
    }
    w.end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::string to_csv(const ExperimentPlan& plan, const PlanRun& run) {
  std::ostringstream out;
  out << "workload,preset,tag,cached,ok,error_class,cycles,instructions,ipc,"
         "l1_miss_rate,l1_demand_misses,l2_demand_misses,"
         "branch_mispredict_rate,cmas_forks,wall_ms,error\n";
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const Cell& c = plan.cells[i];
    const CellResult& r = run.cells[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "%s,%s,%s,%d,%d,%s,%llu,%llu,%.6f,%.6f,%llu,%llu,%.6f,"
                  "%llu,%.3f,",
                  c.workload.name.c_str(), machine::preset_name(c.preset),
                  c.tag.c_str(), r.from_cache ? 1 : 0, r.ok() ? 1 : 0,
                  r.error_class.c_str(),
                  static_cast<unsigned long long>(r.result.cycles),
                  static_cast<unsigned long long>(r.result.instructions),
                  r.result.ipc, r.result.l1.demand_miss_rate(),
                  static_cast<unsigned long long>(r.result.l1.demand_misses()),
                  static_cast<unsigned long long>(r.result.l2.demand_misses()),
                  r.result.branch.mispredict_rate(),
                  static_cast<unsigned long long>(r.result.cmas_forks),
                  r.wall_ms);
    out << line;
    if (!r.ok()) out << csv_quote(r.error);
    out << '\n';
  }
  return out.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::fputs(text.c_str(), stdout);
    return;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("hilab: cannot write " + path);
  out << text;
  if (!out.flush())
    throw std::runtime_error("hilab: short write to " + path);
}

}  // namespace hidisc::lab
