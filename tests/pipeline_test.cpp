// Artifact-pipeline tests (src/pipeline/): content-addressed node keys —
// each input dimension perturbs exactly the downstream hashes it should —
// the TraceStore's round-trip/corruption contract, and warm/partial
// invalidation through lab::run_plan's per-phase node stats.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "compiler/compile.hpp"
#include "isa/encoding.hpp"
#include "lab/fingerprint.hpp"
#include "lab/plan.hpp"
#include "lab/runner.hpp"
#include "lab/serialize.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/graph.hpp"
#include "pipeline/keys.hpp"
#include "pipeline/trace_store.hpp"
#include "sim/functional.hpp"

namespace {

using namespace hidisc;
namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const char* tag)
      : path_((fs::temp_directory_path() /
               (std::string("hidisc_pipeline_test_") + tag + "_" +
                std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

compiler::Compilation compile_spec(const char* name) {
  const auto w = lab::spec(name, workloads::Scale::Test).build();
  return compiler::compile(w.program);
}

bool traces_equal(const sim::Trace& a, const sim::Trace& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

// ---- key sensitivity -------------------------------------------------------

TEST(PipelineKeys, CompileKeyTracksWorkloadIdentityAndOptions) {
  const compiler::CompileOptions opt;
  const auto pointer = lab::spec("Pointer", workloads::Scale::Test);
  const auto update = lab::spec("Update", workloads::Scale::Test);

  const std::string k = pipeline::compile_key(pointer, opt);
  EXPECT_EQ(k.size(), 32u);
  // Stable for the same inputs; different kernel or scale -> different key.
  EXPECT_EQ(k, pipeline::compile_key(pointer, opt));
  EXPECT_NE(k, pipeline::compile_key(update, opt));
  EXPECT_NE(k, pipeline::compile_key(
                   lab::spec("Pointer", workloads::Scale::Paper), opt));

  compiler::CompileOptions budget = opt;
  budget.max_steps = opt.max_steps / 2;
  EXPECT_NE(k, pipeline::compile_key(pointer, budget));
}

TEST(PipelineKeys, KernelTextPerturbsEveryDownstreamKey) {
  const auto a = compile_spec("Pointer");
  const auto b = compile_spec("Update");
  const auto img_a = isa::save_program(a.original);
  const auto img_b = isa::save_program(b.original);
  ASSERT_NE(img_a, img_b);

  const std::uint64_t steps = compiler::CompileOptions{}.max_steps;
  EXPECT_NE(pipeline::trace_key(img_a, steps),
            pipeline::trace_key(img_b, steps));
  const machine::MachineConfig cfg;
  EXPECT_NE(pipeline::sim_key(img_a, machine::Preset::Superscalar, cfg),
            pipeline::sim_key(img_b, machine::Preset::Superscalar, cfg));
}

TEST(PipelineKeys, SeparatorModeSelectsADistinctBinary) {
  const auto comp = compile_spec("Pointer");
  const auto orig = isa::save_program(comp.original);
  const auto sep = isa::save_program(comp.separated);
  ASSERT_NE(orig, sep);

  const std::uint64_t steps = compiler::CompileOptions{}.max_steps;
  // Original and separated binaries never share trace or sim nodes.
  EXPECT_NE(pipeline::trace_key(orig, steps),
            pipeline::trace_key(sep, steps));
  const machine::MachineConfig cfg;
  EXPECT_NE(pipeline::sim_key(orig, machine::Preset::HiDISC, cfg),
            pipeline::sim_key(sep, machine::Preset::HiDISC, cfg));
}

TEST(PipelineKeys, MachinePresetAndConfigPerturbOnlySimKeys) {
  const auto comp = compile_spec("Pointer");
  const auto img = isa::save_program(comp.original);
  const std::uint64_t steps = compiler::CompileOptions{}.max_steps;
  const std::string tk = pipeline::trace_key(img, steps);

  const machine::MachineConfig base;
  const std::string sk =
      pipeline::sim_key(img, machine::Preset::Superscalar, base);

  // Preset changes the sim key; the trace key is preset-blind.
  EXPECT_NE(sk, pipeline::sim_key(img, machine::Preset::CPCMP, base));
  EXPECT_EQ(tk, pipeline::trace_key(img, steps));

  // Any config field change (dram latency, watchdog) re-keys the sim
  // node only — this is the warm-trace invalidation contract.
  machine::MachineConfig slow = base;
  slow.mem.dram_latency = 200;
  EXPECT_NE(sk, pipeline::sim_key(img, machine::Preset::Superscalar, slow));
  machine::MachineConfig dog = base;
  dog.watchdog_cycles = 42;
  EXPECT_NE(sk, pipeline::sim_key(img, machine::Preset::Superscalar, dog));
  EXPECT_EQ(tk, pipeline::trace_key(img, steps));
}

TEST(PipelineKeys, PrefetcherConfigPerturbsOnlySimKeys) {
  const auto comp = compile_spec("Pointer");
  const auto img = isa::save_program(comp.original);
  const std::uint64_t steps = compiler::CompileOptions{}.max_steps;
  const std::string tk = pipeline::trace_key(img, steps);
  const machine::MachineConfig base;
  const std::string sk =
      pipeline::sim_key(img, machine::Preset::Superscalar, base);

  // Enabling a prefetcher, or turning any of its live knobs, re-keys the
  // sim node and nothing upstream (hilab --override '*:prefetch=...'
  // rides this: zero trace rebuilds).
  machine::MachineConfig pf = base;
  pf.mem.prefetch = mem::parse_prefetch_spec("ipstride:deg4");
  const std::string pf_sk =
      pipeline::sim_key(img, machine::Preset::Superscalar, pf);
  EXPECT_NE(sk, pf_sk);
  machine::MachineConfig dist = pf;
  dist.mem.prefetch.distance = 2;
  EXPECT_NE(pf_sk, pipeline::sim_key(img, machine::Preset::Superscalar, dist));
  EXPECT_EQ(tk, pipeline::trace_key(img, steps));
  const compiler::CompileOptions opt;
  EXPECT_EQ(pipeline::compile_key(lab::spec("Pointer", workloads::Scale::Test),
                                  opt),
            pipeline::compile_key(lab::spec("Pointer", workloads::Scale::Test),
                                  opt));

  // Knobs of a disabled prefetcher are inert: same sim key, same cache
  // entries.
  machine::MachineConfig idle = base;
  idle.mem.prefetch.degree = 9;
  EXPECT_EQ(sk, pipeline::sim_key(img, machine::Preset::Superscalar, idle));
}

TEST(PipelineKeys, SchedulerKindIsExcludedEverywhere) {
  // Event-skip and lockstep are bit-identical (the HIDISC_LOCKSTEP
  // oracle), so the scheduler must not perturb any node key.
  const auto comp = compile_spec("Pointer");
  const auto img = isa::save_program(comp.original);
  machine::MachineConfig ev, lk;
  ev.scheduler = machine::SchedulerKind::EventSkip;
  lk.scheduler = machine::SchedulerKind::Lockstep;
  EXPECT_EQ(pipeline::sim_key(img, machine::Preset::Superscalar, ev),
            pipeline::sim_key(img, machine::Preset::Superscalar, lk));
}

TEST(PipelineKeys, SimKeyMatchesPreRefactorContentKey) {
  // sim_key must stay byte-for-byte lab::content_key so result caches
  // written before the DAG refactor remain valid.
  const auto comp = compile_spec("Update");
  const machine::MachineConfig cfg;
  for (const auto preset : lab::all_presets()) {
    const auto& bin = machine::uses_separated_binary(preset)
                          ? comp.separated
                          : comp.original;
    EXPECT_EQ(pipeline::sim_key(isa::save_program(bin), preset, cfg),
              lab::content_key(bin, preset, cfg))
        << machine::preset_name(preset);
  }
}

TEST(PipelineKeys, KeysMatchRecordedLiterals) {
  // Every on-disk entry is addressed by these keys: a change to the
  // hashing must reproduce the values recorded for the test-scale Pointer
  // workload, or every existing store silently goes cold.
  const auto pointer = lab::spec("Pointer", workloads::Scale::Test);
  const compiler::CompileOptions opt;
  const auto program = pointer.build().program;
  const auto img = isa::save_program(compiler::compile(program, opt).original);
  EXPECT_EQ(pipeline::compile_key(pointer, opt),
            "8e96d57a8014fea4a84d88491ad5db74");
  EXPECT_EQ(pipeline::compile_key(isa::save_program(program), opt),
            "8a306e8f5fd5ff24cf452cba3f0f4a54");
  EXPECT_EQ(pipeline::trace_key(img, opt.max_steps),
            "d8b9edb635d3ea4173817011a3c65231");
  EXPECT_EQ(pipeline::sim_key(img, machine::Preset::Superscalar, {}),
            "41e54973f5d4cd7a6e38394d06537a6a");
}

// ---- graph shape -----------------------------------------------------------

TEST(PipelineGraph, NodesAreSharedAcrossCells) {
  // 2 workloads x 4 presets: 2 compile nodes, 4 trace nodes (orig + sep
  // per workload), 8 sim nodes.
  std::vector<lab::Cell> cells;
  for (const char* name : {"Pointer", "Update"})
    for (const auto preset : lab::all_presets())
      cells.push_back(lab::Cell{lab::spec(name, workloads::Scale::Test),
                                preset, {}, {}, ""});
  const pipeline::Graph g = pipeline::build_graph(cells);
  EXPECT_EQ(g.compiles.size(), 2u);
  EXPECT_EQ(g.traces.size(), 4u);
  ASSERT_EQ(g.sims.size(), cells.size());
  for (std::size_t i = 0; i < g.sims.size(); ++i) {
    EXPECT_EQ(g.sims[i].index, i);
    EXPECT_EQ(g.sims[i].cell, &cells[i]);
  }
}

// ---- trace store -----------------------------------------------------------

TEST(TraceStore, RoundTripsATrace) {
  TempDir dir("roundtrip");
  pipeline::TraceStore store(dir.path());
  const auto comp = compile_spec("Pointer");
  sim::Functional f(comp.original);
  const sim::Trace trace = f.run_trace();
  ASSERT_FALSE(trace.empty());

  const std::string key = "0123456789abcdef0123456789abcdef";
  EXPECT_FALSE(store.load(key).has_value());  // cold
  ASSERT_TRUE(store.store(key, trace));
  const auto back = store.load(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(traces_equal(trace, *back));
}

TEST(TraceStore, CorruptedEntryIsQuarantinedNotServed) {
  TempDir dir("bitrot");
  pipeline::TraceStore store(dir.path());
  const auto comp = compile_spec("Pointer");
  const sim::Trace trace = sim::Functional(comp.original).run_trace();
  const std::string key = "feedfacefeedfacefeedfacefeedface";
  ASSERT_TRUE(store.store(key, trace));

  // Flip one byte in the entry payload (past the fixed header).
  const std::string path = dir.path() + "/" + key + ".trace";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(64);
    char c = 0;
    f.read(&c, 1);
    f.seekp(64);
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
  }
  EXPECT_FALSE(store.load(key).has_value());
  // The corrupt file was moved aside, so a rerun misses cleanly instead
  // of re-reading the bad bytes.
  EXPECT_FALSE(fs::exists(path));
  bool quarantined = false;
  for (const auto& e : fs::directory_iterator(dir.path()))
    if (e.path().string().find(".corrupt.") != std::string::npos)
      quarantined = true;
  EXPECT_TRUE(quarantined);
}

TEST(TraceStore, ForeignFormatIsAMissNotCorruption) {
  TempDir dir("foreign");
  pipeline::TraceStore store(dir.path());
  const std::string key = "deadbeefdeadbeefdeadbeefdeadbeef";
  const std::string path = dir.path() + "/" + key + ".trace";
  {
    std::ofstream f(path, std::ios::binary);
    f << "not a hilab trace";
  }
  // A wrong magic header means "some other format/version": treat as a
  // miss (re-trace and overwrite), don't quarantine what may be someone
  // else's file.
  EXPECT_FALSE(store.load(key).has_value());
  EXPECT_TRUE(fs::exists(path));
}

// ---- warm / partial invalidation through the runner ------------------------

lab::ExperimentPlan two_workload_plan() {
  lab::ExperimentPlan plan{"pipe", "pipeline_test plan", {}};
  for (const char* name : {"Pointer", "Update"})
    for (const auto preset : lab::all_presets())
      plan.cells.push_back(lab::Cell{lab::spec(name, workloads::Scale::Test),
                                     preset, {}, {}, ""});
  return plan;
}

TEST(PipelineRunner, WarmRunRebuildsNoNodes) {
  TempDir dir("warm_nodes");
  const auto plan = two_workload_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();

  const auto cold = lab::run_plan(plan, opt);
  EXPECT_EQ(cold.nodes.compile.total, 2u);
  EXPECT_EQ(cold.nodes.compile.rebuilt, 2u);
  EXPECT_EQ(cold.nodes.trace.total, 4u);
  EXPECT_EQ(cold.nodes.trace.rebuilt, 4u);
  EXPECT_EQ(cold.nodes.sim.total, plan.cells.size());
  EXPECT_EQ(cold.nodes.sim.rebuilt, plan.cells.size());
  // PlanRun's legacy counters are views of the node stats.
  EXPECT_EQ(cold.preps, cold.nodes.compile.rebuilt);
  EXPECT_EQ(cold.traces, cold.nodes.trace.rebuilt);

  const auto warm = lab::run_plan(plan, opt);
  EXPECT_EQ(warm.nodes.sim.hits, plan.cells.size());
  EXPECT_EQ(warm.nodes.sim.rebuilt, 0u);
  // Result-cache hits are probed before traces are demanded, so a fully
  // warm run neither rebuilds nor loads a single trace node.
  EXPECT_EQ(warm.nodes.trace.rebuilt, 0u);
  EXPECT_EQ(warm.nodes.trace.hits, 0u);
  EXPECT_EQ(warm.nodes.trace.skipped(), warm.nodes.trace.total);
}

TEST(PipelineRunner, PresetOnlyChangeKeepsEveryTraceWarm) {
  TempDir dir("preset_invalidate");
  auto plan = two_workload_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();
  const auto cold = lab::run_plan(plan, opt);
  ASSERT_EQ(cold.failed, 0u);

  // Mutate the machine config of the HiDISC cells only (the
  // pipeline_invalidation e2e test does the same via hilab --override): their sim nodes re-key and rerun,
  // every other cell hits, and ZERO traces are re-traced — the HiDISC
  // cells' separated-binary traces load from the store instead.
  std::size_t mutated = 0;
  for (auto& cell : plan.cells)
    if (cell.preset == machine::Preset::HiDISC) {
      cell.config.mem.dram_latency = 200;
      ++mutated;
    }
  ASSERT_GT(mutated, 0u);

  const auto partial = lab::run_plan(plan, opt);
  EXPECT_EQ(partial.failed, 0u);
  EXPECT_EQ(partial.nodes.sim.rebuilt, mutated);
  EXPECT_EQ(partial.nodes.sim.hits, plan.cells.size() - mutated);
  EXPECT_EQ(partial.nodes.trace.rebuilt, 0u);
  // Exactly the separated-binary trace of each mutated workload was
  // demanded, and all of them came from the trace store.
  EXPECT_EQ(partial.nodes.trace.hits, 2u);
  EXPECT_EQ(partial.nodes.trace.skipped(), partial.nodes.trace.total - 2u);
  for (std::size_t i = 0; i < plan.cells.size(); ++i)
    EXPECT_EQ(partial.cells[i].from_cache,
              plan.cells[i].preset != machine::Preset::HiDISC)
        << i;
}

TEST(PipelineRunner, PrefetcherChangeResimulatesExactlyAffectedCells) {
  TempDir dir("prefetch_invalidate");
  auto plan = two_workload_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();
  const auto cold = lab::run_plan(plan, opt);
  ASSERT_EQ(cold.failed, 0u);

  // Enable a hardware prefetcher on the CP+AP cells only (what
  // `hilab --override 'CP+AP:prefetch=ipstride:deg4'` does): exactly
  // those sim nodes re-key and rerun, every other cell hits, and no
  // trace is ever re-traced.
  std::size_t mutated = 0;
  for (auto& cell : plan.cells)
    if (cell.preset == machine::Preset::CPAP) {
      cell.config.mem.prefetch = mem::parse_prefetch_spec("ipstride:deg4");
      ++mutated;
    }
  ASSERT_GT(mutated, 0u);

  const auto partial = lab::run_plan(plan, opt);
  EXPECT_EQ(partial.failed, 0u);
  EXPECT_EQ(partial.nodes.sim.rebuilt, mutated);
  EXPECT_EQ(partial.nodes.sim.hits, plan.cells.size() - mutated);
  EXPECT_EQ(partial.nodes.trace.rebuilt, 0u);
  for (std::size_t i = 0; i < plan.cells.size(); ++i)
    EXPECT_EQ(partial.cells[i].from_cache,
              plan.cells[i].preset != machine::Preset::CPAP)
        << i;
  // And a warm re-run of the mutated plan is all hits.
  const auto warm = lab::run_plan(plan, opt);
  EXPECT_EQ(warm.nodes.sim.hits, plan.cells.size());
  EXPECT_EQ(warm.nodes.sim.rebuilt, 0u);
}

TEST(PipelineRunner, RefreshBypassesBothStoresButStillWritesThem) {
  TempDir dir("refresh_traces");
  const auto plan = two_workload_plan();
  lab::RunOptions opt;
  opt.threads = 2;
  opt.cache_dir = dir.path();
  const auto cold = lab::run_plan(plan, opt);

  lab::RunOptions refresh = opt;
  refresh.refresh = true;
  const auto forced = lab::run_plan(plan, refresh);
  EXPECT_EQ(forced.nodes.sim.rebuilt, plan.cells.size());
  EXPECT_EQ(forced.nodes.trace.rebuilt, forced.nodes.trace.total);
  EXPECT_EQ(forced.nodes.trace.hits, 0u);
  for (std::size_t i = 0; i < plan.cells.size(); ++i)
    EXPECT_TRUE(lab::results_identical(cold.cells[i].result,
                                       forced.cells[i].result));

  // The refreshed entries were re-published: a follow-up warm run hits.
  const auto warm = lab::run_plan(plan, opt);
  EXPECT_EQ(warm.nodes.sim.hits, plan.cells.size());
}

TEST(PipelineRunner, SessionMemoSharesArtifactsAcrossRuns) {
  // One Pipeline object serving two runs (the hiserved worker pattern)
  // compiles and traces once, even with no disk stores at all.
  pipeline::Pipeline pipe;
  std::vector<lab::Cell> cells{
      lab::Cell{lab::spec("Pointer", workloads::Scale::Test),
                machine::Preset::Superscalar, {}, {}, ""}};
  const auto first = pipe.run(cells, nullptr);
  EXPECT_EQ(first.nodes.compile.rebuilt, 1u);
  EXPECT_EQ(first.nodes.trace.rebuilt, 1u);
  const auto second = pipe.run(cells, nullptr);
  EXPECT_EQ(second.nodes.compile.hits, 1u);
  EXPECT_EQ(second.nodes.trace.hits, 1u);
  EXPECT_EQ(second.nodes.trace.rebuilt, 0u);
  EXPECT_TRUE(lab::results_identical(first.cells[0].result,
                                     second.cells[0].result));
}

}  // namespace
