// perfbench: host-time benchmark of the HiDISC experiment lab.
//
// Runs one of three user scenarios through lab::run_plan — the call the
// hilab CLI makes — on one worker thread with tracing off, for a fixed
// measuring time, and prints every metric by name and unit.  Pass and
// set-up times are normalised to a reference host speed with a probe
// kernel run between cells (probe.hpp); the raw times are printed too.
// The last line of standard output is one JSON object:
//
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced pass (traced.hpp) adds the per-layer ones.  README.md
// next to this file defines every metric and why each scenario exists.
//
//   perfbench --workload suite-cold|pointer-sweep|warm-replay
//             --work-dir DIR [--seed N] [--seconds S] [--trace 0|1]
//             [--scale paper|test] [--spans FILE] [--commit ID]
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lab/export.hpp"
#include "lab/plan.hpp"
#include "lab/runner.hpp"
#include "lab/serialize.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/keys.hpp"
#include "pipeline/trace_store.hpp"
#include "probe.hpp"
#include "spans.hpp"
#include "traced.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
namespace hl = hidisc::lab;
namespace hm = hidisc::machine;
using hidisc::workloads::Scale;
using Clock = std::chrono::steady_clock;
using namespace perfbench;

namespace {

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 0;  // 0 = the registry's canonical seeds
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::Paper;
  std::string work_dir;
  std::string spans_out;
  std::string commit = "unknown";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") o.workload = v;
    else if (arg == "--seed") o.seed = std::stoull(v);
    else if (arg == "--seconds") o.seconds = std::stod(v);
    else if (arg == "--trace") o.trace = std::stoi(v) != 0;
    else if (arg == "--scale") {
      if (v != "paper" && v != "test")
        throw std::invalid_argument("--scale is paper or test");
      o.scale = v == "paper" ? Scale::Paper : Scale::Test;
    } else if (arg == "--work-dir") o.work_dir = v;
    else if (arg == "--spans") o.spans_out = v;
    else if (arg == "--commit") o.commit = v;
    else throw std::invalid_argument("unknown option " + arg);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (o.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  return o;
}

// ---------------------------------------------------------------- inputs

std::uint64_t splitmix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Seed 0 keeps the registry's canonical workload seeds; any other seed
// derives a fresh input per workload (same sizes, different data).
hl::ExperimentPlan reseed(hl::ExperimentPlan plan, std::uint64_t seed) {
  if (seed != 0)
    for (hl::Cell& c : plan.cells)
      c.workload.seed = splitmix(c.workload.seed ^ splitmix(seed));
  return plan;
}

hl::ExperimentPlan make_plan(const std::string& workload, Scale scale) {
  if (workload == "suite-cold") {
    auto p = hl::plan_fig8(scale);
    p.name = workload;
    return p;
  }
  if (workload == "pointer-sweep")
    return hl::latency_sweep(
        workload, {hl::spec("Pointer", scale), hl::spec("Neighborhood", scale)},
        hl::all_presets(), {{4, 40}, {16, 160}});
  if (workload == "warm-replay") {
    auto p = hl::plan_paper(scale);
    p.name = workload;
    return p;
  }
  throw std::invalid_argument("unknown workload " + workload +
                              " (suite-cold, pointer-sweep, warm-replay)");
}

// ---------------------------------------------------------------- host

std::string host_name() {
  char buf[256] = {};
  return gethostname(buf, sizeof buf - 1) == 0 ? buf : "unknown";
}

int nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// Peak RSS of the passes alone: set-up memory is returned to the OS and
// the kernel's high-water mark reset before each pass (Linux clear_refs).
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

double dir_mb(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file()) bytes += e.file_size();
  return static_cast<double>(bytes) / 1e6;
}

// ---------------------------------------------------------------- stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// The highest percentile with at least ten samples beyond it.
std::string percentile_rule(const std::vector<double>& v) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (static_cast<double>(v.size()) * (100.0 - p) / 100.0 >= 10.0) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "p%g=%.6g", p, quantile(v, p / 100.0));
      return buf;
    }
  return "p-rule=n/a(<20 samples)";
}

// ---------------------------------------------------------------- results

std::uint64_t results_digest(const hl::ExperimentPlan& plan,
                             const std::vector<hl::CellResult>& cells) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<const unsigned char*>(p)[i];
      h *= 0x100000001b3ull;
    }
  };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string id = plan.cells[i].workload.id() + "|" +
                           hm::preset_name(plan.cells[i].preset) + "|" +
                           plan.cells[i].tag;
    mix(id.data(), id.size());
    hl::visit_result_fields(cells[i].result, [&](const std::string&, auto v) {
      mix(&v, sizeof v);
    });
  }
  return h;
}

struct PaperError {
  double speedup_pp = 0.0;
  double miss_pp = 0.0;
  bool from_fig8 = false;  // false: a fingerprint, not the paper's suite
};

// Distance from the paper's Table 2 mean speed-ups and its 17.1 % mean
// HiDISC L1 demand-miss reduction.  Computed over the plan's Figure 8
// cells (the seven-benchmark suite at the Table 1 config) when it has
// them, otherwise over every (workload, config) group of the plan.
PaperError paper_error(const hl::ExperimentPlan& plan,
                       const std::vector<hl::CellResult>& cells) {
  static const std::vector<std::string> fig8 = {
      "DM", "RayTray", "Pointer", "Update", "Field", "Neighborhood", "TC"};
  const auto in_fig8 = [&](const hl::Cell& c) {
    return c.tag.empty() &&
           std::find(fig8.begin(), fig8.end(), c.workload.name) != fig8.end();
  };
  const bool fig8_only =
      std::any_of(plan.cells.begin(), plan.cells.end(), in_fig8);
  const hm::Preset models[3] = {hm::Preset::CPAP, hm::Preset::CPCMP,
                                hm::Preset::HiDISC};
  const double paper_speedup_pct[3] = {1.3, 10.7, 11.9};
  double speedup_sum[3] = {0, 0, 0};
  double miss_rel_sum = 0.0;
  int groups = 0;
  for (const hl::Cell& c : plan.cells) {
    if (c.preset != hm::Preset::Superscalar || (fig8_only && !in_fig8(c)))
      continue;
    const auto& cell_of = [&](hm::Preset p) -> const hm::Result& {
      return cells.at(static_cast<std::size_t>(
                          plan.find(c.workload.name, p, c.tag)))
          .result;
    };
    const hm::Result& base = cell_of(hm::Preset::Superscalar);
    for (int m = 0; m < 3; ++m)
      speedup_sum[m] += static_cast<double>(base.cycles) /
                        static_cast<double>(cell_of(models[m]).cycles);
    const auto base_misses = base.l1.demand_misses();
    miss_rel_sum +=
        base_misses == 0
            ? 1.0
            : static_cast<double>(
                  cell_of(hm::Preset::HiDISC).l1.demand_misses()) /
                  static_cast<double>(base_misses);
    ++groups;
  }
  PaperError e;
  e.from_fig8 = fig8_only;
  if (groups == 0) return e;
  for (int m = 0; m < 3; ++m)
    e.speedup_pp += std::fabs((speedup_sum[m] / groups - 1.0) * 100.0 -
                              paper_speedup_pct[m]) /
                    3.0;
  e.miss_pp = std::fabs((1.0 - miss_rel_sum / groups) * 100.0 - 17.1);
  return e;
}

// ---------------------------------------------------------------- bench

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Host-speed normalisation (probe.hpp).  A pass's time is scaled by
// (kProbeRefMs / mean probe slice time during the pass) ^ elasticity.
// kProbeRefMs only sets the scale: it is about the slice's median time
// on the 4-vCPU Xeon host the benchmark was tuned on.  The elasticity is the slope of log pass
// time over log slice time measured across passes on that host: the
// simulator slows about 1.6 times as much as the probe when the host is
// busy, the compile-bound warm-replay pass 0.7 times as much.  Any
// elasticity leaves the ratio between two commits unbiased when both
// meet the same host conditions; the right one removes most of the
// host's swings.
constexpr double kProbeRefMs = 16.0;

double elasticity(const std::string& workload) {
  return workload == "warm-replay" ? 0.7 : 1.6;
}

// The factor that takes a raw time measured at `probe_ms` per slice to
// the reference host speed.
double host_scale(double probe_ms, const std::string& workload) {
  return std::pow(kProbeRefMs / probe_ms, elasticity(workload));
}

struct PassSample {
  double wall_s = 0.0;  // raw, probe slices excluded
  double mcycles_per_s = 0.0;
  double probe_ms = 0.0;  // mean probe slice time during the pass
  double norm_wall_s = 0.0;
  double norm_mcycles_per_s = 0.0;
  double peak_rss_mb = 0.0;
  double store_mb = 0.0;
  double unattributed_ms = 0.0;
};

class Bench {
 public:
  explicit Bench(Options o)
      : opt_(std::move(o)),
        plan_(reseed(make_plan(opt_.workload, opt_.scale), opt_.seed)),
        work_(fs::absolute(opt_.work_dir)),
        store_(work_ / "store") {}

  ~Bench() {
    std::error_code ec;
    fs::remove_all(work_, ec);
  }

  void run() {
    fs::remove_all(work_);
    fs::create_directories(work_);
    const int reps = opt_.workload == "warm-replay" ? 1 : 3;
    // Set-up is normalised like a pass, from two probe slices before and
    // two after each repetition (outside its timing).
    for (int i = 0; i < reps; ++i) {
      probe_.reset();
      probe_.slice();
      probe_.slice();
      const auto t = Clock::now();
      setup();
      const double raw = seconds_since(t);
      probe_.slice();
      probe_.slice();
      raw_setup_s_.push_back(raw);
      setup_s_.push_back(raw * host_scale(probe_.mean_ms(), opt_.workload));
    }
    const auto start = Clock::now();
    do {
      passes_.push_back(timed_pass(static_cast<int>(passes_.size()) + 1));
    } while (seconds_since(start) < opt_.seconds);
    lockstep_check();
    if (opt_.trace) traced_run();
    report();
  }

 private:
  // ------------------------------------------------------------ checks

  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }

  // Every cell ok and, once a reference exists, bit-identical to it.
  void check_cells(const std::vector<hl::CellResult>& cells,
                   const std::string& what) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto& c = cells[i];
      const std::string cell = what + " cell " + std::to_string(i) + " (" +
                               plan_.cells[i].workload.name + "/" +
                               hm::preset_name(plan_.cells[i].preset) + " " +
                               plan_.cells[i].tag + ")";
      if (!c.ok()) {
        check(false, cell + ": " + c.error);
      } else if (ref_.empty()) {
        check(c.result.cycles > 0 && c.result.instructions > 0,
              cell + ": empty Result");
      } else {
        check(c.result == ref_[i].result && c.key == ref_[i].key,
              cell + ": Result differs from the reference");
      }
    }
    if (ref_.empty()) ref_ = cells;
  }

  // ------------------------------------------------------------ set-up

  void setup() {
    if (opt_.workload == "suite-cold") {
      // Warm-up: the same grid at test scale, so lazy initialisation and
      // first-touch costs are paid before the first timed pass.
      hl::ExperimentPlan warm = plan_;
      for (hl::Cell& c : warm.cells) c.workload.scale = Scale::Test;
      const fs::path dir = work_ / "warmup";
      const auto run = hl::run_plan(warm, {1, dir.string(), false, {}});
      check(run.ok(), "suite-cold warm-up");
      fs::remove_all(dir);
    } else if (opt_.workload == "pointer-sweep") {
      fs::remove_all(store_);
      publish_traces();
    } else {
      fs::remove_all(store_);
      const auto run =
          hl::run_plan(plan_, {nproc(), store_.string(), false, {}});
      ref_.clear();
      check_cells(run.cells, "warm-replay cold fill");
    }
  }

  // Compile and trace both binaries of every workload the plan's cells
  // simulate, one thread per workload, and publish the traces through
  // the pipeline's own trace-node path (Pipeline::prepare).
  void publish_traces() {
    std::map<std::string, const hl::Cell*> groups;
    for (const hl::Cell& c : plan_.cells)
      groups.emplace(hidisc::pipeline::compile_key(c.workload, c.compile), &c);
    const hidisc::pipeline::TraceStore store(store_.string());
    std::atomic<int> bad{0};
    std::vector<std::thread> workers;
    for (const auto& [key, cell] : groups)
      workers.emplace_back([&, cell = cell] {
        try {
          hidisc::pipeline::Pipeline pipe({nullptr, &store, false});
          (void)pipe.prepare(cell->workload.build().program, cell->compile,
                             true, true);
        } catch (const std::exception&) {
          ++bad;
        }
      });
    for (auto& t : workers) t.join();
    check(bad == 0, "pointer-sweep trace publication");
  }

  // Untimed: bring the store to the state every pass starts from.
  void reset_store() {
    if (opt_.workload == "suite-cold") {
      fs::remove_all(store_);
    } else if (opt_.workload == "pointer-sweep") {
      for (const auto& e : fs::directory_iterator(store_))
        if (e.path().extension() == ".result") fs::remove(e.path());
    }
  }

  // ------------------------------------------------------------ passes

  PassSample timed_pass(int n) {
    std::printf(
        "# pass %d | workload=%s commit=%s host=%s nproc=%d build=%s "
        "seed=%llu scale=%s threads=1 cells=%zu | units: wall_s=s "
        "sim_mcycles_per_s=Mcycles/s probe_ms=ms norm_wall_s=s "
        "norm_sim_mcycles_per_s=Mcycles/s peak_rss_mb=MB store_mb=MB "
        "unattributed_ms=ms compile_ms=ms trace_ms=ms sim_ms=ms\n",
        n, opt_.workload.c_str(), opt_.commit.c_str(), host_name().c_str(),
        nproc(), PERFBENCH_BUILD_TYPE,
        static_cast<unsigned long long>(opt_.seed),
        opt_.scale == Scale::Paper ? "paper" : "test", plan_.cells.size());
    reset_store();
    reset_peak_rss();
    // Probe slices: one just before the pass, then one after any cell
    // that ends 200 ms or more after the last slice.  The worker thread
    // runs them, so they sample the core the pass runs on; their time is
    // taken out of the pass's.
    probe_.reset();
    const double before_ms = probe_.slice();
    hl::RunOptions ro{1, store_.string(), false, {}};
    auto last = Clock::now();
    ro.on_cell = [&](const hl::Cell&, std::size_t, std::size_t, bool) {
      if (seconds_since(last) >= 0.2) {
        probe_.slice();
        last = Clock::now();
      }
    };
    const auto t = Clock::now();
    const hl::PlanRun run = hl::run_plan(plan_, ro);
    const std::string json = hl::to_json(plan_, run);
    const double probe_in_pass_ms = probe_.total_ms() - before_ms;
    PassSample s;
    s.wall_s = seconds_since(t) - probe_in_pass_ms / 1000.0;
    s.peak_rss_mb = peak_rss_mb();
    s.store_mb = dir_mb(store_);
    std::uint64_t cycles = 0;
    for (const auto& c : run.cells) cycles += c.ok() ? c.result.cycles : 0;
    s.mcycles_per_s = static_cast<double>(cycles) / s.wall_s / 1e6;
    s.probe_ms = probe_.mean_ms();
    const double scale = host_scale(s.probe_ms, opt_.workload);
    s.norm_wall_s = s.wall_s * scale;
    s.norm_mcycles_per_s = s.mcycles_per_s / scale;
    const auto& nd = run.nodes;
    const double compile_ms = nd.compile.ms_hits + nd.compile.ms_rebuilt;
    const double trace_ms = nd.trace.ms_hits + nd.trace.ms_rebuilt;
    const double sim_ms = nd.sim.ms_hits + nd.sim.ms_rebuilt;
    s.unattributed_ms =
        run.wall_ms - probe_in_pass_ms - compile_ms - trace_ms - sim_ms;
    check_scenario(run);
    check_cells(run.cells, "pass " + std::to_string(n));
    check(!json.empty(), "JSON export");
    std::printf("pass %d: wall_s=%.6f sim_mcycles_per_s=%.6f probe_ms=%.4f "
                "norm_wall_s=%.6f norm_sim_mcycles_per_s=%.6f "
                "peak_rss_mb=%.3f store_mb=%.6f unattributed_ms=%.3f "
                "compile_ms=%.3f trace_ms=%.3f sim_ms=%.3f\n",
                n, s.wall_s, s.mcycles_per_s, s.probe_ms, s.norm_wall_s,
                s.norm_mcycles_per_s, s.peak_rss_mb, s.store_mb,
                s.unattributed_ms, compile_ms, trace_ms, sim_ms);
    std::fflush(stdout);
    return s;
  }

  // What each scenario promises about the work a pass does.
  void check_scenario(const hl::PlanRun& run) {
    const auto& nd = run.nodes;
    const std::size_t cells = plan_.cells.size();
    if (opt_.workload == "suite-cold")
      check(run.simulated == cells && nd.trace.rebuilt == nd.trace.total,
            "suite-cold: every cell simulated and every trace generated");
    else if (opt_.workload == "pointer-sweep")
      check(run.simulated == cells && nd.trace.hits == nd.trace.total,
            "pointer-sweep: every trace from the store, no cached result");
    else
      check(run.cache_hits == cells && run.simulated == 0,
            "warm-replay: every cell from the result cache");
  }

  // One cell, chosen by the seed, re-run under the lockstep scheduler
  // must match its event-skip Result.
  void lockstep_check() {
    const std::size_t i =
        static_cast<std::size_t>(splitmix(opt_.seed) % plan_.cells.size());
    hl::Cell cell = plan_.cells[i];
    cell.config.scheduler = hm::SchedulerKind::Lockstep;
    const auto t = Clock::now();
    const auto run = hl::run_plan(hl::ExperimentPlan{"lockstep", "", {cell}});
    check(run.cells[0].ok() && run.cells[0].result == ref_.at(i).result,
          "lockstep re-run of cell " + std::to_string(i));
    std::printf("lockstep check: cell %zu (%s/%s %s) %s in %.3f s\n", i,
                cell.workload.name.c_str(), hm::preset_name(cell.preset),
                cell.tag.c_str(),
                run.cells[0].result == ref_[i].result ? "matches" : "DIFFERS",
                seconds_since(t));
  }

  // ------------------------------------------------------------ traced

  void traced_run() {
    reset_store();
    const TracedPass tp = traced_pass(plan_, store_.string());
    check_cells(tp.run.cells, "traced pass");
    check(tp.validation_failures == 0,
          "traced pass: golden validation of every generated trace");
    if (!opt_.spans_out.empty()) {
      std::ofstream(opt_.spans_out) << chrome_trace_json(tp.spans);
      std::printf("spans: %zu written to %s\n", tp.spans.size(),
                  opt_.spans_out.c_str());
    }
    const SpanSummary sum = summarize(tp.spans);
    const auto total = [&](const std::string& name) {
      const auto it = sum.by_name.find(name);
      return it == sum.by_name.end() ? 0.0 : it->second.total_ms;
    };
    const auto per_s = [](double amount, double ms) {
      return ms > 0.0 ? amount / (ms / 1000.0) : 0.0;
    };
    std::vector<double> walls, unattributed;
    for (const auto& p : passes_) {
      walls.push_back(p.wall_s * 1000.0);
      unattributed.push_back(p.unattributed_ms);
    }
    const double wall_ms = median(walls);
    const double unattributed_ms = median(unattributed);

    auto& m = layer_;
    m.push_back({"workloads.build_ms", total("workloads.build"), "ms"});
    m.push_back({"compiler.compile_ms", total("compiler.compile"), "ms"});
    m.push_back({"sim.trace_ms", total("sim.trace"), "ms"});
    m.push_back({"sim.trace_mentries_per_s",
                 per_s(static_cast<double>(tp.trace_entries_made) / 1e6,
                       total("sim.trace")),
                 "Mentries/s"});
    m.push_back(
        {"pipeline.trace_write_ms", total("pipeline.trace_write"), "ms"});
    m.push_back({"pipeline.trace_write_mb_per_s",
                 per_s(static_cast<double>(tp.trace_bytes_written) / 1e6,
                       total("pipeline.trace_write")),
                 "MB/s"});
    const std::uint64_t moved_entries =
        tp.trace_entries_written + tp.trace_entries_read;
    m.push_back({"pipeline.trace_bytes_per_entry",
                 moved_entries == 0
                     ? 0.0
                     : static_cast<double>(tp.trace_bytes_written +
                                           tp.trace_bytes_read) /
                           static_cast<double>(moved_entries),
                 "B/entry"});
    m.push_back({"pipeline.trace_read_ms", total("pipeline.trace_read"), "ms"});
    m.push_back({"pipeline.trace_read_mb_per_s",
                 per_s(static_cast<double>(tp.trace_bytes_read) / 1e6,
                       total("pipeline.trace_read")),
                 "MB/s"});
    m.push_back({"pipeline.keys_ms", total("pipeline.keys"), "ms"});
    m.push_back({"pipeline.unattributed_ms", unattributed_ms, "ms"});
    m.push_back({"lab.result_load_ms", total("lab.result_load"), "ms"});
    m.push_back({"lab.result_store_ms", total("lab.result_store"), "ms"});
    m.push_back({"lab.export_json_ms", total("lab.export_json"), "ms"});

    double sim_ms = 0.0;
    for (const hm::Preset p : hl::all_presets()) {
      const std::string name = std::string("machine.") + preset_key(p);
      const double ms = total(name + ".sim");
      std::uint64_t cycles = 0;
      for (std::size_t i = 0; i < plan_.cells.size(); ++i)
        if (plan_.cells[i].preset == p && !tp.run.cells[i].from_cache)
          cycles += tp.run.cells[i].result.cycles;
      m.push_back({name + ".sim_ms", ms, "ms"});
      m.push_back({name + ".mcycles_per_s",
                   per_s(static_cast<double>(cycles) / 1e6, ms), "Mcycles/s"});
      sim_ms += ms;
    }
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    m.push_back({"machine.steps_per_kcycle",
                 ratio(static_cast<double>(tp.event_steps) * 1000.0,
                       static_cast<double>(tp.sim_cycles)),
                 "steps/kcycle"});
    m.push_back({"machine.ns_per_step",
                 ratio(sim_ms * 1e6, static_cast<double>(tp.event_steps)),
                 "ns/step"});
    m.push_back({"machine.ns_per_committed_uop",
                 ratio(sim_ms * 1e6, static_cast<double>(tp.committed_uops)),
                 "ns/uop"});

    std::uint64_t l1_acc = 0, l1_miss = 0, uops = 0, forks = 0, useful = 0,
                  prefetches = 0;
    for (const auto& c : ref_) {
      l1_acc += c.result.l1.demand_accesses();
      l1_miss += c.result.l1.demand_misses();
      uops += c.result.cmas_uops;
      forks += c.result.cmas_forks;
      useful += c.result.l1.useful_prefetches;
      prefetches += c.result.l1.prefetches;
    }
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    m.push_back({"mem.l1_accesses", d(l1_acc), "count"});
    m.push_back(
        {"mem.l1_demand_miss_rate", ratio(d(l1_miss), d(l1_acc)), "ratio"});
    m.push_back({"cmp.uops_per_fork", ratio(d(uops), d(forks)), "uops/fork"});
    m.push_back({"cmp.useful_prefetch_frac", ratio(d(useful), d(prefetches)),
                 "ratio"});
    const double overhead_ms = tp.run.wall_ms - wall_ms;
    m.push_back({"trace_overhead_pct", overhead_ms / wall_ms * 100.0, "%"});

    std::printf("span summary (traced pass %.3f ms, %zu spans; untraced pass "
                "median %.3f ms):\n",
                tp.run.wall_ms, tp.spans.size(), wall_ms);
    for (const auto& [layer, t] : sum.by_layer)
      std::printf("  %-10s self %12.3f ms  %5.1f%%  calls %zu\n", layer.c_str(),
                  t.self_ms, 100.0 * t.self_ms / sum.root_ms, t.calls);
    // Closure: the time the named calls cover must account for the
    // untraced pass.  The pass span's own time is the replica's leftover,
    // which no named call covers, so it is left out of the sum.
    const double leftover_ms = sum.by_name.at("pipeline.pass").self_ms;
    const double covered_ms = sum.root_ms - leftover_ms;
    const double diff = std::fabs(covered_ms - wall_ms);
    const double allowed = std::fabs(overhead_ms) + unattributed_ms;
    std::printf("  named calls' self time %.3f ms (pass leftover %.3f ms left "
                "out) vs untraced pass %.3f ms: |diff| %.3f ms, allowed %.3f "
                "ms (trace overhead + unattributed) -> %s\n",
                covered_ms, leftover_ms, wall_ms, diff, allowed,
                diff <= allowed ? "ok" : "EXCEEDED");
    check(diff <= allowed,
          "span closure: named calls' self time vs the untraced pass");
  }

  // ------------------------------------------------------------ report

  void report() {
    std::vector<double> wall, mcps, probe, norm_wall, norm_mcps, rss, store,
        setup = setup_s_;
    for (const auto& p : passes_) {
      wall.push_back(p.wall_s);
      mcps.push_back(p.mcycles_per_s);
      probe.push_back(p.probe_ms);
      norm_wall.push_back(p.norm_wall_s);
      norm_mcps.push_back(p.norm_mcycles_per_s);
      rss.push_back(p.peak_rss_mb);
      store.push_back(p.store_mb);
    }
    const PaperError pe = paper_error(plan_, ref_);
    // Metrics that mean less on this workload than their names say.
    const char* cached_note =
        opt_.workload == "warm-replay"
            ? "; proxy: cycles of cached Results / wall, tracks 1/wall"
            : "";
    const char* paper_note =
        pe.from_fig8 ? ""
                     : "; proxy: fingerprint over the plan's (workload, "
                       "config) groups, not the paper's Fig. 8 suite";
    struct E2E {
      Metric m;
      std::vector<double> samples;
      const char* note;
    };
    const std::vector<E2E> e2e = {
        {{"norm_wall_s", median(norm_wall), "s"}, norm_wall, ""},
        {{"norm_sim_mcycles_per_s", median(norm_mcps), "Mcycles/s"},
         norm_mcps,
         cached_note},
        {{"setup_s", median(setup), "s"}, setup, ""},
        {{"peak_rss_mb", median(rss), "MB"}, rss, ""},
        {{"store_mb", median(store), "MB"}, store, ""},
        {{"paper_speedup_err_pp", pe.speedup_pp, "pp"},
         {pe.speedup_pp},
         paper_note},
        {{"paper_miss_err_pp", pe.miss_pp, "pp"}, {pe.miss_pp}, paper_note},
    };
    // Printed only: the raw host times the normalised ones come from.
    const std::vector<E2E> raw = {
        {{"wall_s", median(wall), "s"}, wall, "; raw"},
        {{"sim_mcycles_per_s", median(mcps), "Mcycles/s"}, mcps, "; raw"},
        {{"raw_setup_s", median(raw_setup_s_), "s"}, raw_setup_s_, "; raw"},
        {{"probe_ms", median(probe), "ms"}, probe, "; mean slice per pass"},
    };
    std::printf("results_digest=%016llx cells=%zu\n",
                static_cast<unsigned long long>(results_digest(plan_, ref_)),
                ref_.size());
    std::printf("summary | workload=%s seed=%llu passes=%zu\n",
                opt_.workload.c_str(),
                static_cast<unsigned long long>(opt_.seed), passes_.size());
    for (const auto* list : {&e2e, &raw})
      for (const auto& [m, v, note] : *list)
        std::printf("  %-22s %-14.6g %-10s median of n=%zu, %s, min %.6g, "
                    "max %.6g%s\n",
                    m.name.c_str(), m.value, m.unit.c_str(), v.size(),
                    percentile_rule(v).c_str(),
                    *std::min_element(v.begin(), v.end()),
                    *std::max_element(v.begin(), v.end()), note);
    const double failed_frac =
        static_cast<double>(failed_) / static_cast<double>(attempted_);
    std::printf("  %-22s %-14.6g %-10s (%llu of %llu checks)\n", "failed_frac",
                failed_frac, "ratio", static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    for (const auto& m : layer_)
      std::printf("  %-32s %-14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());

    std::string json = "{\"correct\": ";
    json += failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_) +
            ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    std::vector<Metric> out;
    if (opt_.trace) {
      out = layer_;
    } else {
      for (const auto& e : e2e) out.push_back(e.m);
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", out[i].name.c_str(), out[i].value,
                    out[i].unit.c_str());
      json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

  Options opt_;
  hl::ExperimentPlan plan_;
  fs::path work_;
  fs::path store_;
  std::vector<hl::CellResult> ref_;  // reference Results, cell order
  std::vector<double> setup_s_;  // normalised
  std::vector<double> raw_setup_s_;
  std::vector<PassSample> passes_;
  std::vector<Metric> layer_;
  HostProbe probe_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    Bench(parse(argc, argv)).run();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
