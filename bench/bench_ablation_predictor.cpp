// Ablation: does a better branch predictor shrink HiDISC's advantage?
// The paper's Table 1 machine uses a bimodal predictor; part of the CMP's
// benefit comes from resolving miss-dependent branches faster (prefetched
// loads feed the comparisons).  A gshare predictor removes some of the
// same stalls from the baseline, so the gap narrows on branchy kernels.
#include <cstdio>

#include "harness.hpp"

int main() {
  using namespace hidisc;
  printf("=== Ablation: branch predictor (bimodal vs. gshare) ===\n\n");

  stats::Table table({"Benchmark", "Predictor", "Base mispredict rate",
                      "Base cycles", "HiDISC speed-up"});
  for (auto* make : {&workloads::make_dm, &workloads::make_update}) {
    const auto w = make(workloads::Scale::Paper,
                        make == &workloads::make_dm ? 6 : 2);
    const auto p = bench::prepare(w);
    for (const auto kind :
         {uarch::PredictorKind::Bimodal, uarch::PredictorKind::GShare}) {
      machine::MachineConfig cfg;
      cfg.predictor_kind = kind;
      const auto base = bench::run_preset(p, machine::Preset::Superscalar,
                                          cfg);
      const auto hd = bench::run_preset(p, machine::Preset::HiDISC, cfg);
      table.add_row(
          {w.name, kind == uarch::PredictorKind::Bimodal ? "bimodal"
                                                         : "gshare",
           stats::Table::num(base.branch.mispredict_rate()),
           std::to_string(base.cycles),
           stats::Table::num(lab::speedup(base, hd))});
    }
  }
  printf("%s\n", table.to_string().c_str());
  return 0;
}
