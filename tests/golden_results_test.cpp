// Golden Result digests: every machine::Result field of a fixed set of
// runs, folded into one FNV-1a-64 digest per set and compared against a
// recorded constant.
//
// The scheduler-equivalence tests, HIDISC_LOCKSTEP and the fuzz oracle all
// compare two schedulers that share one issue stage, so a rewrite of that
// stage which changes both the same way passes every one of them.  These
// digests pin the absolute numbers instead: any change to any field of any
// cell changes the digest.  A change that moves Results on purpose must
// re-record the constants and say so.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "compiler/compile.hpp"
#include "fuzz/generator.hpp"
#include "isa/assembler.hpp"
#include "lab/plan.hpp"
#include "lab/runner.hpp"
#include "lab/serialize.hpp"
#include "machine/machine.hpp"
#include "sim/functional.hpp"

namespace hidisc {
namespace {

// Folds one Result (every visit_result_fields name and value, doubles as
// %.17g) into the running digest text.
void append_result(std::string& text, const std::string& label,
                   const machine::Result& r) {
  text += label;
  text += '\n';
  for (const auto& [name, value] : lab::result_to_fields(r)) {
    text += name;
    text += '=';
    text += value;
    text += '\n';
  }
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// The whole 76-cell paper plan at test scale.
constexpr const char* kPaperPlanDigest = "ff145955b735df9a";
// Forty generated kernels (seeds 100..139) under all four presets.
constexpr const char* kFuzzKernelDigest = "4d20cccf0b539c23";

TEST(GoldenResults, TestScalePaperPlan) {
  const auto plan = lab::plan_paper(workloads::Scale::Test);
  ASSERT_EQ(plan.cells.size(), 76u);
  lab::RunOptions opt;
  opt.threads = 2;
  const auto run = lab::run_plan(plan, opt);
  ASSERT_TRUE(run.ok());
  std::string text;
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    const auto& c = plan.cells[i];
    append_result(text,
                  c.workload.name + "/" + machine::preset_name(c.preset) +
                      "/" + c.tag,
                  run.cells[i].result);
  }
  EXPECT_EQ(hex(lab::fnv1a64(text)), kPaperPlanDigest);
}

TEST(GoldenResults, FuzzKernelsAllPresets) {
  std::string text;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    fuzz::KernelGen gen(seed);
    const auto prog = isa::assemble(fuzz::to_source(gen.generate_random()));
    const auto comp = compiler::compile(prog);
    const auto orig_trace = sim::Functional(comp.original).run_trace();
    const auto sep_trace = sim::Functional(comp.separated).run_trace();
    for (const auto preset :
         {machine::Preset::Superscalar, machine::Preset::CPAP,
          machine::Preset::CPCMP, machine::Preset::HiDISC}) {
      const bool sep = machine::uses_separated_binary(preset);
      const auto r = machine::run_machine(sep ? comp.separated : comp.original,
                                          sep ? sep_trace : orig_trace,
                                          preset);
      append_result(text,
                    std::to_string(seed) + "/" + machine::preset_name(preset),
                    r);
    }
  }
  EXPECT_EQ(hex(lab::fnv1a64(text)), kFuzzKernelDigest);
}

}  // namespace
}  // namespace hidisc
