// hilab — the hidisc-lab experiment orchestrator CLI.
//
// Runs a named experiment plan (each reproducing one paper figure/table,
// or arbitrary sweeps) across a thread pool, memoizing workload
// compilation and functional tracing, consulting the persistent result
// cache, and exporting machine-readable JSON/CSV.  The human report ends
// with the tables of the figures the plan reproduces (lab/figures.hpp).
//
//   hilab --list
//   hilab --plan fig8 [--threads N] [--scale paper|test]
//         [--cache-dir DIR | --no-cache] [--refresh]
//         [--watchdog N] [--lockstep]
//         [--json FILE|-] [--csv FILE|-] [--quiet]
//
// With --connect the plan runs on a hiserved daemon instead of in
// process: cells are deduplicated against every other connected client
// and served from the daemon's shared result cache, and the results are
// bit-identical to a local run of the same plan:
//
//   hilab --connect /tmp/hiserve.sock --plan paper [--refresh]
//         [--reconnect N] [--chaos-net SEED:SPEC]
//         [--service-stats FILE|-] [--json ...] [--csv ...]
//
// Guarantees: results are bit-identical for every --threads value (and
// for --connect against any worker count), and a second invocation
// against a warm cache simulates zero cells.  A --connect run survives
// connection loss and daemon restarts: the client reconnects with
// bounded backoff and re-attaches to its plan by token.
//
// Exit codes: 0 = every cell healthy, 4 = partial failure (some cells
// failed; healthy cells still exported), 1 = infrastructure error (bad
// plan, broken cache dir, export I/O, mid-plan daemon loss past the
// reconnect budget), 2 = usage (including an unknown --plan name, which
// lists the available plans), 5 = daemon unreachable (--connect never
// got a handshake; the issue is almost always that hiserved isn't
// running at that endpoint).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "lab/export.hpp"
#include "lab/figures.hpp"
#include "lab/plan.hpp"
#include "lab/runner.hpp"
#include "lab/thread_pool.hpp"
#include "serve/client.hpp"
#include "serve/worker.hpp"
#include "stats/json.hpp"
#include "stats/table.hpp"

namespace {

using namespace hidisc;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --plan NAME [options]\n"
      "       %s --list\n"
      "options:\n"
      "  --plan NAME       experiment plan to run (see --list)\n"
      "  --threads N       worker threads (default: HILAB_THREADS or all "
      "cores)\n"
      "  --scale SCALE     workload scale: paper (default) or test\n"
      "  --cache-dir DIR   result cache location (default: .hilab-cache)\n"
      "  --no-cache        disable the persistent result cache\n"
      "  --refresh         ignore existing cache entries, overwrite them\n"
      "  --watchdog N      override every cell's watchdog threshold\n"
      "  --lockstep        force the Lockstep scheduler on every cell\n"
      "  --override P:F=V  set machine-config field F to V on every cell\n"
      "                    whose preset is P ('*' = all presets); fields:\n"
      "                    dram, l2, fetch_width, watchdog (integer V) and\n"
      "                    prefetch (a spec such as ipstride:deg4 — see\n"
      "                    docs/PREFETCH.md).\n"
      "                    Participates in content keys, so overridden runs\n"
      "                    never alias normal cache entries (their traces\n"
      "                    still do — config never reaches trace nodes).\n"
      "                    Local runs only (repeatable)\n"
      "  --connect EP      run on a hiserved daemon at EP (socket path or\n"
      "                    tcp:HOST:PORT) instead of in this process\n"
      "  --reconnect N     with --connect: survive up to N connection\n"
      "                    losses by re-attaching to the plan (default 8)\n"
      "  --chaos-net SEED:SPEC  with --connect: deterministic client-side\n"
      "                    network fault injection (see docs/SERVE.md)\n"
      "  --service-stats F with --connect: fetch the daemon's stats JSON\n"
      "                    after the run and write it to F ('-' = stdout)\n"
      "  --json FILE       export full results as JSON ('-' = stdout)\n"
      "  --csv FILE        export summary rows as CSV ('-' = stdout)\n"
      "  --bench-json FILE write a google-benchmark-style JSON with this\n"
      "                    run's cells/sec (for tools/perf_gate.py; '-' =\n"
      "                    stdout)\n"
      "  --bench-name NAME benchmark name for --bench-json (default\n"
      "                    SVC_<plan>)\n"
      "  --quiet           suppress the per-cell progress line\n",
      argv0, argv0);
  return 2;
}

int list_plans() {
  std::printf("available plans (workload scale via --scale):\n");
  for (const auto& name : lab::plan_names()) {
    const auto plan = lab::make_plan(name, workloads::Scale::Paper);
    std::printf("  %-8s %3zu cells  %s\n", name.c_str(), plan.cells.size(),
                plan.description.c_str());
  }
  return 0;
}

// Unknown --plan is a usage error, not a runtime one: name the plans the
// user could have meant and exit 2.
int unknown_plan(const std::string& name) {
  std::fprintf(stderr, "hilab: unknown plan '%s'\navailable plans:\n",
               name.c_str());
  for (const auto& known : lab::plan_names())
    std::fprintf(stderr, "  %s\n", known.c_str());
  return 2;
}

// Applies one `PRESET:FIELD=VALUE` machine-config override to every cell
// whose preset name matches (or every cell, for '*').  Drives the CI
// cache-invalidation check: a preset-scoped config change must rerun
// exactly that preset's sim nodes while every trace node stays warm.
void apply_override(lab::ExperimentPlan& plan, const std::string& spec) {
  const auto colon = spec.find(':');
  const auto eq = spec.find('=', colon == std::string::npos ? 0 : colon);
  if (colon == std::string::npos || eq == std::string::npos || eq < colon)
    throw std::runtime_error("--override needs PRESET:FIELD=VALUE, got '" +
                             spec + "'");
  const std::string preset = spec.substr(0, colon);
  const std::string field = spec.substr(colon + 1, eq - colon - 1);
  const std::string value_str = spec.substr(eq + 1);
  // The field name is validated before anything else — previously an
  // unknown field slipped through whenever no cell matched the preset,
  // and the value was parsed (and could be rejected) before the field
  // was even looked at.
  constexpr const char* kFieldList =
      "dram, l2, fetch_width, watchdog, prefetch";
  const bool known = field == "dram" || field == "l2" ||
                     field == "fetch_width" || field == "watchdog" ||
                     field == "prefetch";
  if (!known)
    throw std::runtime_error("--override: unknown field '" + field +
                             "' (fields: " + kFieldList + ")");
  mem::PrefetchConfig pf;
  std::uint64_t value = 0;
  if (field == "prefetch") {
    // e.g. '*:prefetch=ipstride:deg4' — the value is a prefetch spec, not
    // an integer.
    try {
      pf = mem::parse_prefetch_spec(value_str);
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string("--override: ") + e.what());
    }
  } else {
    try {
      value = std::stoull(value_str);
    } catch (const std::exception&) {
      throw std::runtime_error("--override value must be an integer, got '" +
                               value_str + "'");
    }
  }
  bool matched = false;
  for (auto& cell : plan.cells) {
    if (preset != "*" && preset != machine::preset_name(cell.preset))
      continue;
    matched = true;
    if (field == "dram") cell.config.mem.dram_latency = static_cast<int>(value);
    else if (field == "l2")
      cell.config.mem.l2.hit_latency = static_cast<int>(value);
    else if (field == "fetch_width")
      cell.config.fetch_width = static_cast<int>(value);
    else if (field == "watchdog") cell.config.watchdog_cycles = value;
    else if (field == "prefetch") cell.config.mem.prefetch = pf;
  }
  if (!matched)
    throw std::runtime_error("--override: no cell has preset '" + preset +
                             "' (presets: Superscalar, CP+AP, CP+CMP, "
                             "HiDISC, or '*')");
}

// Google-benchmark-shaped JSON so tools/perf_gate.py --append-trajectory
// can record service/local plan throughput next to BM_FullMachine.
void write_bench_json(const std::string& path, const std::string& name,
                      std::size_t cells, double wall_ms) {
  const double cells_per_sec =
      wall_ms > 0.0 ? static_cast<double>(cells) * 1000.0 / wall_ms : 0.0;
  stats::JsonWriter w;
  w.begin_object().key("benchmarks").begin_array().begin_object();
  w.field("name", name).field("run_type", "iteration").field("iterations", 1);
  w.field("real_time", wall_ms).field("time_unit", "ms");
  w.field("items_per_second", cells_per_sec).field("label", "items = cells");
  w.end_object().end_array().end_object();
  lab::write_text_file(path, w.str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string plan_name, json_path, csv_path, connect_ep, stats_path;
  std::string bench_json, bench_name;
  std::vector<std::string> overrides;
  std::string cache_dir = ".hilab-cache";
  workloads::Scale scale = workloads::Scale::Paper;
  std::string scale_str = "paper";
  int threads = lab::default_threads();
  bool refresh = false, quiet = false, lockstep = false;
  std::uint64_t watchdog = 0;  // 0 = keep each cell's own threshold
  std::string chaos_net;
  int reconnects = 8;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--list") return list_plans();
      if (arg == "--plan") plan_name = value();
      else if (arg == "--threads") {
        const std::string v = value();
        try {
          threads = std::stoi(v);
        } catch (const std::exception&) {
          throw std::runtime_error("--threads needs an integer, got '" + v + "'");
        }
      }
      else if (arg == "--scale") {
        const std::string s = value();
        if (s == "paper") scale = workloads::Scale::Paper;
        else if (s == "test") scale = workloads::Scale::Test;
        else throw std::runtime_error("unknown scale: " + s);
        scale_str = s;
      }
      else if (arg == "--cache-dir") cache_dir = value();
      else if (arg == "--no-cache") cache_dir.clear();
      else if (arg == "--refresh") refresh = true;
      else if (arg == "--watchdog") {
        const std::string v = value();
        try {
          watchdog = std::stoull(v);
        } catch (const std::exception&) {
          throw std::runtime_error("--watchdog needs an integer, got '" + v +
                                   "'");
        }
        if (watchdog == 0)
          throw std::runtime_error("--watchdog must be >= 1");
      }
      else if (arg == "--lockstep") lockstep = true;
      else if (arg == "--override") overrides.push_back(value());
      else if (arg == "--connect") connect_ep = value();
      else if (arg == "--reconnect") {
        const std::string v = value();
        try {
          reconnects = std::stoi(v);
        } catch (const std::exception&) {
          throw std::runtime_error("--reconnect needs an integer, got '" + v +
                                   "'");
        }
        if (reconnects < 0)
          throw std::runtime_error("--reconnect must be >= 0");
      }
      else if (arg == "--chaos-net") chaos_net = value();
      else if (arg == "--service-stats") stats_path = value();
      else if (arg == "--json") json_path = value();
      else if (arg == "--csv") csv_path = value();
      else if (arg == "--bench-json") bench_json = value();
      else if (arg == "--bench-name") bench_name = value();
      else if (arg == "--quiet") quiet = true;
      else if (arg == "--help" || arg == "-h") return usage(argv[0]);
      else throw std::runtime_error("unknown option: " + arg);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hilab: %s\n", e.what());
      return usage(argv[0]);
    }
  }
  if (plan_name.empty() && stats_path.empty()) return usage(argv[0]);
  if (threads < 1) {
    std::fprintf(stderr, "hilab: --threads must be >= 1\n");
    return 2;
  }
  if (!stats_path.empty() && connect_ep.empty()) {
    std::fprintf(stderr, "hilab: --service-stats needs --connect\n");
    return 2;
  }
  if (!chaos_net.empty() && connect_ep.empty()) {
    std::fprintf(stderr, "hilab: --chaos-net needs --connect\n");
    return 2;
  }
  if (!overrides.empty() && !connect_ep.empty()) {
    // The daemon materializes plans from the registry by name; ad-hoc
    // config mutations have no wire representation (deliberately — they
    // would defeat cross-client dedup).
    std::fprintf(stderr, "hilab: --override is local-only (drop --connect)\n");
    return 2;
  }

  try {
    // Stats-only invocation: `hilab --connect EP --service-stats -`.
    if (plan_name.empty()) {
      lab::write_text_file(stats_path,
                           serve::fetch_service_stats(connect_ep));
      return 0;
    }

    lab::ExperimentPlan plan;
    try {
      plan = lab::make_plan(plan_name, scale);
    } catch (const std::out_of_range&) {
      return unknown_plan(plan_name);
    }
    // --watchdog participates in content keys, so an overridden run never
    // aliases a normal run's cache entries; --lockstep deliberately does
    // not (both schedulers produce bit-identical results).
    if (watchdog != 0 || lockstep)
      for (auto& cell : plan.cells) {
        if (watchdog != 0) cell.config.watchdog_cycles = watchdog;
        if (lockstep)
          cell.config.scheduler = machine::SchedulerKind::Lockstep;
      }
    try {
      for (const auto& spec : overrides) apply_override(plan, spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hilab: %s\n", e.what());
      return 2;
    }

    const auto progress = [](const lab::Cell& cell, std::size_t done,
                             std::size_t total, bool from_cache) {
      std::fprintf(stderr, "[%3zu/%3zu] %-12s %-11s %-7s %s\n", done, total,
                   cell.workload.name.c_str(),
                   machine::preset_name(cell.preset), cell.tag.c_str(),
                   from_cache ? "(cached)" : "simulated");
    };

    lab::PlanRun run;
    std::size_t dedup_cells = 0;
    if (connect_ep.empty()) {
      lab::RunOptions opt;
      opt.threads = threads;
      opt.cache_dir = cache_dir;
      opt.refresh = refresh;
      if (!quiet) opt.on_cell = progress;
      run = lab::run_plan(plan, opt);
    } else {
      serve::PlanRequest req;
      req.plan = plan_name;
      req.scale = scale_str;
      req.watchdog = watchdog;
      req.lockstep = lockstep;
      req.refresh = refresh;
      serve::ClientOptions copt;
      copt.endpoint = connect_ep;
      copt.chaos_net = chaos_net;
      copt.max_reconnects = reconnects;
      if (!quiet) copt.on_cell = progress;
      serve::ConnectedRun cr = serve::run_plan_connected(req, plan, copt);
      run = std::move(cr.run);
      dedup_cells = cr.dedup;
      if (cr.reconnects > 0 && !quiet)
        std::fprintf(stderr,
                     "hilab: survived %zu connection losses (%zu resumes)\n",
                     cr.reconnects, cr.resumes);
    }

    // An export aimed at stdout owns it: keep the human report off the pipe.
    const bool stdout_export = json_path == "-" || csv_path == "-" ||
                               stats_path == "-" || bench_json == "-";
    if (!stdout_export) {
      stats::Table table({"Workload", "Preset", "Tag", "Cycles", "IPC",
                          "L1 miss rate", "Source"});
      for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const auto& c = plan.cells[i];
        const auto& r = run.cells[i];
        if (r.ok()) {
          table.add_row({c.workload.name, machine::preset_name(c.preset),
                         c.tag.empty() ? "-" : c.tag,
                         std::to_string(r.result.cycles),
                         stats::Table::num(r.result.ipc),
                         stats::Table::num(r.result.l1.demand_miss_rate()),
                         r.from_cache ? "cache" : "sim"});
        } else {
          table.add_row({c.workload.name, machine::preset_name(c.preset),
                         c.tag.empty() ? "-" : c.tag, "-", "-", "-",
                         "FAILED(" + r.error_class + ")"});
        }
      }
      std::printf("=== plan %s: %s ===\n\n%s\n", plan.name.c_str(),
                  plan.description.c_str(), table.to_string().c_str());
      if (connect_ep.empty())
        std::printf(
            "%zu cells: %zu simulated, %zu cache hits, %zu failed; "
            "%zu compilations, %zu traces; %d threads; %.0f ms",
            plan.cells.size(), run.simulated, run.cache_hits, run.failed,
            run.preps, run.traces, threads, run.wall_ms);
      else
        std::printf(
            "%zu cells via %s: %zu simulated, %zu cache hits, "
            "%zu dedup-shared, %zu failed; %.0f ms",
            plan.cells.size(), connect_ep.c_str(), run.simulated,
            run.cache_hits, dedup_cells, run.failed, run.wall_ms);
      if (run.sim_cycles_per_sec > 0.0)
        std::printf("; %.2f Mcycles/s", run.sim_cycles_per_sec / 1e6);
      std::printf("\n");
      const pipeline::NodeStats& n = run.nodes;
      std::printf(
          "pipeline nodes: compile %zu/%zu rebuilt (%zu cached), "
          "trace %zu/%zu rebuilt (%zu cached), "
          "sim %zu/%zu rebuilt (%zu cached)\n",
          n.compile.rebuilt, n.compile.total, n.compile.hits,
          n.trace.rebuilt, n.trace.total, n.trace.hits,
          n.sim.rebuilt, n.sim.total, n.sim.hits);
      std::printf(
          "phase wall time: compile %.0f ms (+%.0f ms cached), "
          "trace %.0f ms (+%.0f ms cached), "
          "sim %.0f ms (+%.0f ms cached)\n",
          n.compile.ms_rebuilt, n.compile.ms_hits, n.trace.ms_rebuilt,
          n.trace.ms_hits, n.sim.ms_rebuilt, n.sim.ms_hits);
      const std::string figures = lab::render_figures(plan, run);
      if (!figures.empty()) std::printf("\n%s", figures.c_str());
    }

    const lab::ExportMeta meta{threads};
    if (!json_path.empty())
      lab::write_text_file(json_path, lab::to_json(plan, run, meta));
    if (!csv_path.empty())
      lab::write_text_file(csv_path, lab::to_csv(plan, run));
    if (!bench_json.empty())
      write_bench_json(bench_json,
                       bench_name.empty() ? "SVC_" + plan_name : bench_name,
                       plan.cells.size(), run.wall_ms);
    if (!stats_path.empty())
      lab::write_text_file(stats_path,
                           serve::fetch_service_stats(connect_ep));

    if (!run.ok()) {
      // Partial failure: healthy cells are exported above; the failed
      // ones get a stderr summary and a distinct exit code so harnesses
      // can tell "some cells broke" from "the run never happened".
      std::fprintf(stderr, "hilab: %zu/%zu cells failed:\n", run.failed,
                   plan.cells.size());
      for (std::size_t i = 0; i < plan.cells.size(); ++i) {
        const auto& r = run.cells[i];
        if (r.ok()) continue;
        const auto& c = plan.cells[i];
        std::fprintf(stderr, "  %s/%s%s%s [%s] %s\n",
                     c.workload.name.c_str(),
                     machine::preset_name(c.preset),
                     c.tag.empty() ? "" : "/", c.tag.c_str(),
                     r.error_class.c_str(), r.error.c_str());
      }
      return 4;
    }
    return 0;
  } catch (const serve::ConnectError& e) {
    std::fprintf(stderr,
                 "hilab: %s\nhilab: is hiserved running at that endpoint? "
                 "(start it with: hiserved --socket PATH)\n",
                 e.what());
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hilab: %s\n", e.what());
    return 1;
  }
}
