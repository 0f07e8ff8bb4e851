#include "lab/fingerprint.hpp"

#include <cinttypes>
#include <cstdio>

#include "isa/encoding.hpp"
#include "lab/serialize.hpp"
#include "mem/memory_system.hpp"
#include "uarch/core.hpp"

namespace hidisc::lab {

namespace {

class Describer {
 public:
  void field(const char* name, int v) {
    field(name, static_cast<std::int64_t>(v));
  }
  void field(const char* name, std::int64_t v) {
    out_ += name;
    out_ += '=';
    out_ += std::to_string(v);
    out_ += ';';
  }
  void field(const char* name, double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s=%.17g;", name, v);
    out_ += buf;
  }
  void field(const char* name, const std::string& v) {
    out_ += name;
    out_ += '=';
    out_ += v;
    out_ += ';';
  }

  void cache(const char* prefix, const mem::CacheConfig& c) {
    const std::string p = prefix;
    field((p + ".sets").c_str(), c.sets);
    field((p + ".block").c_str(), c.block_bytes);
    field((p + ".assoc").c_str(), c.assoc);
    field((p + ".lat").c_str(), c.hit_latency);
  }

  void core(const char* prefix, const uarch::CoreConfig& c) {
    const std::string p = prefix;
    field((p + ".window").c_str(), c.window);
    field((p + ".issue").c_str(), c.issue_width);
    field((p + ".commit").c_str(), c.commit_width);
    field((p + ".dispatch").c_str(), c.dispatch_width);
    field((p + ".iq").c_str(), c.input_queue);
    field((p + ".lsq").c_str(), c.lsq);
    field((p + ".ialu").c_str(), c.int_alu);
    field((p + ".imul").c_str(), c.int_muldiv);
    field((p + ".falu").c_str(), c.fp_alu);
    field((p + ".fmul").c_str(), c.fp_muldiv);
    field((p + ".ports").c_str(), c.mem_ports);
    field((p + ".lsu").c_str(), c.has_lsu ? 1 : 0);
    field((p + ".pfonly").c_str(), c.prefetch_only ? 1 : 0);
    field((p + ".qpops").c_str(), c.queue_pops_per_cycle);
  }

  void mem(const char* prefix, const mem::MemConfig& m) {
    const std::string p = prefix;
    cache((p + ".l1").c_str(), m.l1);
    cache((p + ".l1i").c_str(), m.l1i);
    cache((p + ".l2").c_str(), m.l2);
    field((p + ".dram").c_str(), m.dram_latency);
    field((p + ".bus").c_str(), m.l2_bus_cycles);
    // Appended only when a prefetcher is enabled: pre-prefetcher keys stay
    // valid, and perturbing a knob of a *disabled* prefetcher (which cannot
    // change the simulation) leaves the key untouched.  The canonical spec
    // string already omits knobs at their defaults.
    if (m.prefetch.kind != mem::PrefetchKind::None)
      field((p + ".pf").c_str(), mem::prefetch_spec(m.prefetch));
  }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

}  // namespace

std::string describe(const machine::MachineConfig& cfg) {
  Describer d;
  d.mem("mem", cfg.mem);
  d.field("fetch_width", cfg.fetch_width);
  d.field("redirect", cfg.redirect_penalty);
  d.field("predictor", cfg.predictor_table);
  d.field("btb", cfg.btb_size);
  d.field("predictor_kind", static_cast<std::int64_t>(cfg.predictor_kind));
  d.field("icache", cfg.model_icache ? 1 : 0);
  d.field("ldq", static_cast<std::int64_t>(cfg.ldq_capacity));
  d.field("sdq", static_cast<std::int64_t>(cfg.sdq_capacity));
  d.field("scq", static_cast<std::int64_t>(cfg.scq_capacity));
  d.core("ss", cfg.superscalar);
  d.core("cp", cfg.cp);
  d.core("ap", cfg.ap);
  d.core("cmp", cfg.cmp);
  d.field("cmp_contexts", cfg.cmp_contexts);
  d.field("cmp_targets", cfg.cmp_targets_per_fork);
  d.field("cmp_lookahead", cfg.cmp_fork_lookahead);
  d.field("cmp_chaining", cfg.cmp_chaining ? 1 : 0);
  d.field("cmp_dyn_dist", cfg.cmp_dynamic_distance ? 1 : 0);
  d.field("cmp_adaptive", cfg.cmp_adaptive_range ? 1 : 0);
  d.field("cmp_range_samples",
          static_cast<std::int64_t>(cfg.cmp_range_min_samples));
  d.field("cmp_range_use", cfg.cmp_range_min_use);
  d.field("cmp_range_reprobe", cfg.cmp_range_reprobe);
  d.field("cmp_la_min", cfg.cmp_lookahead_min);
  d.field("cmp_la_max", cfg.cmp_lookahead_max);
  d.field("cmp_adapt_ivl", static_cast<std::int64_t>(cfg.cmp_adapt_interval));
  d.field("cmp_runahead", cfg.cmp_max_runahead);
  d.field("watchdog", static_cast<std::int64_t>(cfg.watchdog_cycles));
  return d.take();
}

std::string describe(const compiler::CompileOptions& opt) {
  Describer d;
  d.mem("pmem", opt.profile_mem);
  d.field("max_steps", static_cast<std::int64_t>(opt.max_steps));
  d.field("cmas", opt.enable_cmas ? 1 : 0);
  d.field("cmas.miss_rate", opt.cmas.miss_rate_threshold);
  d.field("cmas.min_misses", static_cast<std::int64_t>(opt.cmas.min_misses));
  d.field("cmas.trigger_dist", opt.cmas.trigger_distance);
  d.field("flow_comm", opt.flow_sensitive_comm ? 1 : 0);
  return d.take();
}

std::string key128(std::initializer_list<std::string_view> parts) {
  // Two independently seeded streams -> 128 bits; collisions across a
  // cache directory of any realistic size are then out of the question.
  std::uint64_t lo = kFnv1a64Basis, hi = 0x9e3779b97f4a7c15ull;
  for (const auto part : parts) {
    lo = fnv1a64(part, lo);
    hi = fnv1a64(part, hi);
  }
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016" PRIx64 "%016" PRIx64, lo, hi);
  return buf;
}

std::string content_key(const isa::Program& binary, machine::Preset preset,
                        const machine::MachineConfig& cfg) {
  return content_key_image(isa::save_program(binary), preset, cfg);
}

std::string content_key_image(const std::vector<std::uint8_t>& image,
                              machine::Preset preset,
                              const machine::MachineConfig& cfg) {
  return key128({bytes_of(image), machine::preset_name(preset),
                 describe(cfg)});
}

}  // namespace hidisc::lab
