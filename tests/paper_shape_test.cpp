// The reproduction's shape (EXPERIMENTS.md), asserted through the figure
// functions `hilab` renders its tables with (src/lab/figures.hpp).  Runs
// the whole `paper` plan at paper scale with no cache: at test scale TC
// gains nothing from the CMP, so the shape does not show there.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lab/figures.hpp"
#include "lab/plan.hpp"
#include "lab/runner.hpp"
#include "lab/thread_pool.hpp"

namespace {

using namespace hidisc;
using machine::Preset;

TEST(PaperShape, PaperPlanReproducesThePaperShape) {
  const auto plan = lab::plan_paper();
  lab::RunOptions opt;
  opt.threads = lab::default_threads();
  const auto run = lab::run_plan(plan, opt);
  ASSERT_TRUE(run.ok()) << run.failed << " cells failed";

  // Fig. 8: HiDISC is best, within 0.5%, on every suite workload but
  // Neighborhood, where loss of decoupling lets CP+CMP ahead.
  std::vector<std::string> hidisc_behind;
  for (const auto& cell : lab::plan_fig8().cells) {
    if (cell.preset != Preset::Superscalar) continue;
    const auto& name = cell.workload.name;
    double best = 0.0;
    for (const auto preset : lab::all_presets())
      best = std::max(best, lab::speedup(plan, run, name, preset));
    if (lab::speedup(plan, run, name, Preset::HiDISC) < 0.995 * best)
      hidisc_behind.push_back(name);
  }
  EXPECT_EQ(hidisc_behind, std::vector<std::string>{"Neighborhood"});

  // Fig. 9: decoupling alone leaves misses flat; the CMP cuts them.
  const double cpap_misses = lab::mean_miss_ratio(plan, run, Preset::CPAP);
  EXPECT_GE(cpap_misses, 0.95);
  EXPECT_LE(cpap_misses, 1.05);
  EXPECT_LE(lab::mean_miss_ratio(plan, run, Preset::CPCMP), 0.8);
  EXPECT_LE(lab::mean_miss_ratio(plan, run, Preset::HiDISC), 0.8);

  // Table 2: prefetching is the dominant factor.
  EXPECT_NEAR(lab::mean_speedup(plan, run, Preset::CPAP), 1.0, 0.02);
  EXPECT_GT(lab::mean_speedup(plan, run, Preset::CPCMP), 1.05);
  EXPECT_GT(lab::mean_speedup(plan, run, Preset::HiDISC), 1.05);

  // Fig. 10: HiDISC tolerates latency better than the baseline.
  for (const char* name : {"Pointer", "Neighborhood"})
    EXPECT_LT(lab::degradation(plan, run, name, Preset::HiDISC),
              lab::degradation(plan, run, name, Preset::Superscalar))
        << name;
}

}  // namespace
