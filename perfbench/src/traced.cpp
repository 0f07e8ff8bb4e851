#include "traced.hpp"

#include <chrono>
#include <filesystem>
#include <map>
#include <optional>

#include "compiler/compile.hpp"
#include "isa/encoding.hpp"
#include "lab/export.hpp"
#include "lab/result_cache.hpp"
#include "machine/machine.hpp"
#include "pipeline/keys.hpp"
#include "pipeline/trace_store.hpp"
#include "sim/functional.hpp"

namespace perfbench {

namespace hl = hidisc::lab;
namespace hm = hidisc::machine;

const char* preset_key(hm::Preset p) {
  switch (p) {
    case hm::Preset::Superscalar: return "superscalar";
    case hm::Preset::CPAP: return "cp_ap";
    case hm::Preset::CPCMP: return "cp_cmp";
    case hm::Preset::HiDISC: return "hidisc";
  }
  return "unknown";
}

namespace {

std::uint64_t trace_file_bytes(const std::string& dir, const std::string& key) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(
      std::filesystem::path(dir) / (key + ".trace"), ec);
  return ec ? 0 : n;
}

std::uint64_t committed_uops(const hm::Result& r) {
  std::uint64_t n = 0;
  for (const auto& [has, core] : {std::pair{r.has_main, &r.main},
                                  std::pair{r.has_cp, &r.cp},
                                  std::pair{r.has_ap, &r.ap},
                                  std::pair{r.has_cmp, &r.cmp}})
    if (has) n += core->committed_all;
  return n;
}

// One workload group: the cells that share a compile node.
struct Group {
  const hl::Cell* first = nullptr;
  std::vector<std::size_t> cells;
};

class Tracer {
 public:
  Tracer(const hl::ExperimentPlan& plan, const std::string& store_dir,
         TracedPass& out)
      : plan_(plan), out_(out) {
    if (!store_dir.empty()) {
      dir_ = store_dir;
      results_.emplace(store_dir);
      traces_.emplace(store_dir);
    }
  }

  void run() {
    out_.run.cells.resize(plan_.cells.size());
    const auto start = std::chrono::steady_clock::now();
    {
      // The pass span's own time is this replica's DAG bookkeeping, the
      // pipeline's share that no call below covers.
      auto pass = rec_.open("pipeline.pass", plan_.name);
      for (const Group& g : groups()) run_group(g);
      auto s = rec_.open("lab.export_json", plan_.name);
      (void)hl::to_json(plan_, out_.run);
    }
    out_.run.wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    for (const auto& c : out_.run.cells) {
      if (!c.ok())
        ++out_.run.failed;
      else
        ++(c.from_cache ? out_.run.cache_hits : out_.run.simulated);
    }
    out_.spans = rec_.spans();
  }

 private:
  // Groups in order of first appearance, as the executor submits them.
  [[nodiscard]] std::vector<Group> groups() const {
    std::vector<Group> gs;
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < plan_.cells.size(); ++i) {
      const hl::Cell& c = plan_.cells[i];
      const auto [it, fresh] = index.emplace(
          hidisc::pipeline::compile_key(c.workload, c.compile), gs.size());
      if (fresh) gs.push_back(Group{&c, {}});
      gs[it->second].cells.push_back(i);
    }
    return gs;
  }

  void run_group(const Group& g) {
    const hl::Cell& first = *g.first;
    const std::string gid = "group:" + first.workload.id();
    hidisc::workloads::BuiltWorkload w;
    hidisc::compiler::Compilation comp;
    try {
      {
        auto s = rec_.open("workloads.build", gid);
        w = first.workload.build();
      }
      auto s = rec_.open("compiler.compile", gid);
      comp = hidisc::compiler::compile(w.program, first.compile);
    } catch (const std::exception& e) {
      for (std::size_t i : g.cells) {
        out_.run.cells[i].error = e.what();
        out_.run.cells[i].error_class = "prep";
      }
      return;
    }
    // Binary images and every content key of the group, as the compile
    // node and the executor's probes derive them.
    std::string trace_keys[2];
    {
      auto s = rec_.open("pipeline.keys", gid);
      const std::vector<std::uint8_t> images[2] = {
          hidisc::isa::save_program(comp.original),
          hidisc::isa::save_program(comp.separated)};
      for (int m = 0; m < 2; ++m)
        trace_keys[m] =
            hidisc::pipeline::trace_key(images[m], first.compile.max_steps);
      for (std::size_t i : g.cells) {
        const hl::Cell& cell = plan_.cells[i];
        out_.run.cells[i].key = hidisc::pipeline::sim_key(
            images[hm::uses_separated_binary(cell.preset) ? 1 : 0],
            cell.preset, cell.config);
      }
    }
    std::optional<hidisc::sim::Trace> traces[2];

    for (std::size_t i : g.cells) {
      const hl::Cell& cell = plan_.cells[i];
      hl::CellResult& cr = out_.run.cells[i];
      const std::string cid = "cell:" + std::to_string(i);
      const int mode = hm::uses_separated_binary(cell.preset) ? 1 : 0;
      const hidisc::isa::Program& binary =
          mode ? comp.separated : comp.original;
      cr.orig_dynamic_instructions = comp.profile.dynamic_instructions;
      if (results_) {
        std::optional<hl::CacheEntry> hit;
        {
          auto s = rec_.open("lab.result_load", cid);
          hit = results_->load(cr.key);
        }
        if (hit) {
          cr.result = hit->result;
          cr.orig_dynamic_instructions = hit->orig_dynamic_instructions;
          cr.from_cache = true;
          continue;
        }
      }
      try {
        if (!traces[mode])
          traces[mode] = obtain_trace(w, binary, trace_keys[mode],
                                      first.compile.max_steps, gid);
        const std::string span =
            std::string("machine.") + preset_key(cell.preset) + ".sim";
        const auto t0 = std::chrono::steady_clock::now();
        {
          auto s = rec_.open(span, cid);
          hm::Machine m(binary, *traces[mode], cell.preset, cell.config);
          cr.result = m.run();
          out_.event_steps += m.sched_stats().event_steps;
        }
        cr.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
      } catch (const std::exception& e) {
        cr.error = e.what();
        cr.error_class = "sim";
        continue;
      }
      out_.sim_cycles += cr.result.cycles;
      out_.committed_uops += committed_uops(cr.result);
      if (results_) {
        auto s = rec_.open("lab.result_store", cid);
        results_->store(cr.key,
                        hl::CacheEntry{cr.result, cell.workload.name,
                                       hm::preset_name(cell.preset),
                                       cr.orig_dynamic_instructions});
      }
    }
    // The group's artifacts are dropped once its last cell is done, as the
    // executor drops them; freeing a paper-scale trace takes milliseconds.
    auto s = rec_.open("pipeline.release", gid);
    for (auto& t : traces) t.reset();
    comp = {};
    w = {};
  }

  // The executor's trace node: the store first, the functional simulator
  // on a miss (whose final state must pass the workload's golden check),
  // then publish.
  hidisc::sim::Trace obtain_trace(const hidisc::workloads::BuiltWorkload& w,
                                  const hidisc::isa::Program& binary,
                                  const std::string& key,
                                  std::uint64_t max_steps,
                                  const std::string& gid) {
    if (traces_) {
      std::optional<hidisc::sim::Trace> stored;
      {
        auto s = rec_.open("pipeline.trace_read", gid);
        stored = traces_->load(key);
      }
      if (stored) {
        out_.trace_entries_read += stored->size();
        out_.trace_bytes_read += trace_file_bytes(dir_, key);
        return std::move(*stored);
      }
    }
    hidisc::sim::Functional f(binary);
    hidisc::sim::Trace trace;
    {
      auto s = rec_.open("sim.trace", gid);
      trace = f.run_trace(max_steps);
    }
    out_.trace_entries_made += trace.size();
    if (!w.validate || !w.validate(f)) ++out_.validation_failures;
    if (traces_) {
      {
        auto s = rec_.open("pipeline.trace_write", gid);
        traces_->store(key, trace);
      }
      out_.trace_entries_written += trace.size();
      out_.trace_bytes_written += trace_file_bytes(dir_, key);
    }
    return trace;
  }

  const hl::ExperimentPlan& plan_;
  TracedPass& out_;
  std::string dir_;
  std::optional<hl::ResultCache> results_;
  std::optional<hidisc::pipeline::TraceStore> traces_;
  SpanRecorder rec_;
};

}  // namespace

TracedPass traced_pass(const hl::ExperimentPlan& plan,
                       const std::string& store_dir) {
  TracedPass out;
  Tracer(plan, store_dir, out).run();
  return out;
}

}  // namespace perfbench
