#include "lab/figures.hpp"

#include <algorithm>
#include <vector>

#include "stats/table.hpp"

namespace hidisc::lab {

namespace {

using machine::Preset;
using stats::Table;
using Row = std::vector<std::string>;
using Metric = double (*)(const ExperimentPlan&, const PlanRun&,
                          const std::string&, Preset);

// The columns normalised to Superscalar, in the paper's order.
constexpr Preset kModels[] = {Preset::CPAP, Preset::CPCMP, Preset::HiDISC};

// A cell the plan lacks is find()'s -1, which at() rejects.
const CellResult& at(const ExperimentPlan& plan, const PlanRun& run,
                     const std::string& workload, Preset preset,
                     const std::string& tag = "") {
  const auto idx = plan.find(workload, preset, tag);
  return run.cells.at(static_cast<std::size_t>(idx));
}

// L1 demand misses over Superscalar's; 1 when Superscalar has none.
double miss_ratio(const ExperimentPlan& plan, const PlanRun& run,
                  const std::string& workload, Preset preset) {
  const auto base =
      at(plan, run, workload, Preset::Superscalar).result.l1.demand_misses();
  const auto misses = at(plan, run, workload, preset).result.l1.demand_misses();
  return base == 0 ? 1.0
                   : static_cast<double>(misses) / static_cast<double>(base);
}

// Original-binary dynamic instructions per cycle: presets that run the
// (slightly longer) separated binary stay comparable.
double ipc(const ExperimentPlan& plan, const PlanRun& run,
           const std::string& workload, Preset preset,
           const std::string& tag) {
  const auto& c = at(plan, run, workload, preset, tag);
  return static_cast<double>(c.orig_dynamic_instructions) /
         static_cast<double>(c.result.cycles);
}

// A figure's rows (workload names) or sweep points (tags): the distinct
// values over the cells of its own plan, in cell order.
Row distinct(const std::string& figure, bool tags) {
  Row out;
  for (const auto& c : make_plan(figure, workloads::Scale::Paper).cells) {
    const auto& v = tags ? c.tag : c.workload.name;
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

const Row& paper_suite() {
  static const Row names = distinct("fig8", false);
  return names;
}

const Row& latency_points() {
  static const Row tags = distinct("fig10", true);
  return tags;
}

double suite_mean(Metric metric, const ExperimentPlan& plan,
                  const PlanRun& run, Preset preset) {
  double sum = 0.0;
  for (const auto& name : paper_suite())
    sum += metric(plan, run, name, preset);
  return sum / static_cast<double>(paper_suite().size());
}

// One row per workload: Superscalar's 1.000 and `metric` of each model,
// then the `base` columns of Superscalar's own result.
template <class Base>
Table relative_table(const ExperimentPlan& plan, const PlanRun& run,
                     const Row& names, Metric metric, const Row& base_headers,
                     Base base) {
  Row headers{"Benchmark", "Superscalar", "CP+AP", "CP+CMP", "HiDISC"};
  headers.insert(headers.end(), base_headers.begin(), base_headers.end());
  Table table(std::move(headers));
  for (const auto& name : names) {
    Row row{name, "1.000"};
    for (const auto preset : kModels)
      row.push_back(Table::num(metric(plan, run, name, preset)));
    for (auto& cell : base(at(plan, run, name, Preset::Superscalar).result))
      row.push_back(std::move(cell));
    table.add_row(std::move(row));
  }
  return table;
}

std::string fig8_table(const ExperimentPlan& plan, const PlanRun& run) {
  auto table = relative_table(
      plan, run, paper_suite(), speedup, {"base cycles"},
      [](const machine::Result& r) { return Row{std::to_string(r.cycles)}; });
  Row mean{"MEAN", "1.000"};
  for (const auto preset : kModels)
    mean.push_back(Table::num(mean_speedup(plan, run, preset)));
  mean.push_back("-");
  table.add_row(std::move(mean));
  return table.to_string() +
         "\nPaper: HiDISC best in 6/7 (not Neighborhood); max speed-up on "
         "Update; suite average ~1.12x.\n";
}

std::string fig9_table(const ExperimentPlan& plan, const PlanRun& run) {
  auto table = relative_table(
      plan, run, paper_suite(), miss_ratio, {"base miss rate"},
      [](const machine::Result& r) {
        return Row{Table::num(r.l1.demand_miss_rate())};
      });
  table.add_row({"MEAN", "1.000", "-", "-",
                 Table::num(mean_miss_ratio(plan, run, Preset::HiDISC)),
                 "-"});
  return table.to_string() +
         "\nPaper: HiDISC eliminates ~17% of cache misses on average; the "
         "largest reduction is on Transitive Closure (-26.7%).\n";
}

std::string fig10_table(const ExperimentPlan& plan, const PlanRun& run) {
  std::string out;
  for (const auto& name : distinct("fig10", false)) {
    out += "--- " + name + " Stressmark ---\n";
    Table table({"L2/Mem latency", "Superscalar", "CP+AP", "CP+CMP",
                 "HiDISC"});
    for (const auto& tag : latency_points()) {
      Row row{tag};
      for (const auto preset : all_presets())
        row.push_back(Table::num(ipc(plan, run, name, preset, tag)));
      table.add_row(std::move(row));
    }
    Row degr{"degradation"};
    for (const auto preset : all_presets())
      degr.push_back(Table::pct(degradation(plan, run, name, preset)));
    table.add_row(std::move(degr));
    out += table.to_string() + "\n";
  }
  return out +
         "Paper: baseline loses 20.3% (Pointer) / 13.9% (Neighborhood) at "
         "the longest latency; HiDISC only 1.8% / 4.8%.\n";
}

std::string table2_table(const ExperimentPlan& plan, const PlanRun& run) {
  // Per model of kModels: name, characteristic, the paper's speed-up.
  const char* const rows[][3] = {
      {"CP + AP", "Access/execute decoupling", "+1.3%"},
      {"CP + CMP", "Cache prefetching", "+10.7%"},
      {"HiDISC", "Decoupling and prefetching", "+11.9%"}};
  Table table({"Configuration", "Characteristic", "Speed-up", "Paper"});
  for (std::size_t m = 0; m < 3; ++m)
    table.add_row({rows[m][0], rows[m][1],
                   Table::pct(mean_speedup(plan, run, kModels[m]) - 1.0),
                   rows[m][2]});
  return table.to_string() + "\n";
}

std::string extra_table(const ExperimentPlan& plan, const PlanRun& run) {
  return relative_table(plan, run, distinct("extra", false), speedup,
                        {"base cycles", "base L1 miss rate"},
                        [](const machine::Result& r) {
                          return Row{std::to_string(r.cycles),
                                     Table::num(r.l1_demand_miss_rate())};
                        })
             .to_string() +
         "\n";
}

struct Figure {
  const char* plan;  // the named plan that reproduces this figure alone
  const char* title;
  std::string (*table)(const ExperimentPlan&, const PlanRun&);
};

const Figure kFigures[] = {
    {"fig8", "Figure 8: speed-up vs. baseline superscalar", &fig8_table},
    {"fig9", "Figure 9: L1 demand misses normalized to superscalar",
     &fig9_table},
    {"fig10", "Figure 10: IPC vs. (L2, DRAM) latency", &fig10_table},
    {"table2", "Table 2: mean speed-up of the three models", &table2_table},
    {"extra", "Extra DIS workloads: Matrix, Corner Turn, FFT, Image",
     &extra_table},
};

}  // namespace

double speedup(const machine::Result& base, const machine::Result& r) {
  return static_cast<double>(base.cycles) / static_cast<double>(r.cycles);
}

double speedup(const ExperimentPlan& plan, const PlanRun& run,
               const std::string& workload, Preset preset) {
  return speedup(at(plan, run, workload, Preset::Superscalar).result,
                 at(plan, run, workload, preset).result);
}

double mean_speedup(const ExperimentPlan& plan, const PlanRun& run,
                    Preset preset) {
  return suite_mean(speedup, plan, run, preset);
}

double mean_miss_ratio(const ExperimentPlan& plan, const PlanRun& run,
                       Preset preset) {
  return suite_mean(miss_ratio, plan, run, preset);
}

double degradation(const ExperimentPlan& plan, const PlanRun& run,
                   const std::string& workload, Preset preset) {
  return 1.0 - ipc(plan, run, workload, preset, latency_points().back()) /
                   ipc(plan, run, workload, preset, latency_points().front());
}

std::string render_figures(const ExperimentPlan& plan, const PlanRun& run) {
  std::string out;
  for (const auto& fig : kFigures) {
    if (plan.name != fig.plan && plan.name != "paper") continue;
    if (!out.empty()) out += '\n';
    out += std::string("=== ") + fig.title + " ===\n\n";
    const auto cells = make_plan(fig.plan, workloads::Scale::Paper).cells;
    std::size_t failed = 0;
    for (const auto& c : cells)
      if (!at(plan, run, c.workload.name, c.preset, c.tag).ok()) ++failed;
    if (failed == 0)
      out += fig.table(plan, run);
    else
      out += std::to_string(failed) + " of " + std::to_string(cells.size()) +
             " cells failed; no table.\n";
  }
  return out;
}

}  // namespace hidisc::lab
