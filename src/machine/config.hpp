// Machine configurations for the four architectures the paper evaluates
// (§5.3): baseline superscalar, CP+AP (conventional access/execute
// decoupling), CP+CMP (speculative-precomputation-style prefetching), and
// the complete HiDISC.
//
// Core defaults reproduce Table 1: bimodal 2048-entry predictor, 8-wide
// issue/commit, scheduling windows of 64 (superscalar / AP) and 16 (CP),
// 4 integer ALUs + 1 MUL/DIV everywhere, 4 FP adders + 1 FP MUL/DIV on the
// superscalar and CP, 2 memory ports per memory-capable processor,
// 32-entry load/store queues, L1D 256x32Bx4 (1 cycle), unified L2
// 1024x64Bx4 (12 cycles), 120-cycle DRAM.
#pragma once

#include <cstdint>
#include <string>

#include "mem/memory_system.hpp"
#include "uarch/branch_predictor.hpp"
#include "uarch/core.hpp"

namespace hidisc::machine {

enum class Preset : std::uint8_t { Superscalar, CPAP, CPCMP, HiDISC };

[[nodiscard]] constexpr const char* preset_name(Preset p) noexcept {
  switch (p) {
    case Preset::Superscalar: return "Superscalar";
    case Preset::CPAP: return "CP+AP";
    case Preset::CPCMP: return "CP+CMP";
    case Preset::HiDISC: return "HiDISC";
  }
  return "?";
}

// How the machine advances simulated time.
//
//   EventSkip — the default: cores report their next self-scheduled event
//     and the machine fast-forwards `now` across provably idle stretches
//     (all cores stalled behind L2/DRAM misses), replaying the skipped
//     per-cycle stall counters exactly.  Results are bit-identical with
//     Lockstep; set HIDISC_LOCKSTEP=1 to run both side by side and assert
//     that on every run.
//   Lockstep — tick every core at every cycle (the seed scheduler);
//     retained as the reference for equivalence checking.
enum class SchedulerKind : std::uint8_t { EventSkip, Lockstep };

// True when the preset consumes the stream-separated binary.
[[nodiscard]] constexpr bool uses_separated_binary(Preset p) noexcept {
  return p == Preset::CPAP || p == Preset::HiDISC;
}
[[nodiscard]] constexpr bool uses_cmp(Preset p) noexcept {
  return p == Preset::CPCMP || p == Preset::HiDISC;
}

struct MachineConfig {
  mem::MemConfig mem{};

  // Front end.
  int fetch_width = 8;
  int redirect_penalty = 3;   // cycles from branch resolution to refetch
  int predictor_table = 2048;
  int btb_size = 512;
  // Predictor flavour: the paper's Table 1 uses bimodal; gshare is an
  // ablation (bench_ablation_predictor).
  uarch::PredictorKind predictor_kind = uarch::PredictorKind::Bimodal;
  // Model instruction fetch through an L1I (SimpleScalar il1 geometry) and
  // the shared L2.  Off by default: the paper's Table 1 lists no I-cache
  // and the DIS kernels are loop-resident; enabling it charges cold-start
  // fetch misses.
  bool model_icache = false;

  // Architectural queues (paper: "32 entries load store queues").
  std::size_t ldq_capacity = 32;
  std::size_t sdq_capacity = 32;
  std::size_t scq_capacity = 16;

  // Cores.
  uarch::CoreConfig superscalar{
      .name = "SS", .window = 64, .issue_width = 8, .commit_width = 8,
      .dispatch_width = 8, .input_queue = 32, .lsq = 32,
      .int_alu = 4, .int_muldiv = 1, .fp_alu = 4, .fp_muldiv = 1,
      .mem_ports = 2, .has_lsu = true, .prefetch_only = false};
  // Table 1 gives "issue/commit width 8" for the machine; each HiDISC
  // processor keeps the full width (they are separate pipelines with their
  // own Table-1 functional units).
  uarch::CoreConfig cp{
      .name = "CP", .window = 16, .issue_width = 8, .commit_width = 8,
      .dispatch_width = 8, .input_queue = 64, .lsq = 0,
      .int_alu = 4, .int_muldiv = 1, .fp_alu = 4, .fp_muldiv = 1,
      .mem_ports = 0, .has_lsu = false, .prefetch_only = false};
  uarch::CoreConfig ap{
      .name = "AP", .window = 64, .issue_width = 8, .commit_width = 8,
      .dispatch_width = 8, .input_queue = 64, .lsq = 32,
      .int_alu = 4, .int_muldiv = 1, .fp_alu = 0, .fp_muldiv = 0,
      .mem_ports = 2, .has_lsu = true, .prefetch_only = false};
  uarch::CoreConfig cmp{
      .name = "CMP", .window = 32, .issue_width = 4, .commit_width = 4,
      .dispatch_width = 4, .input_queue = 64, .lsq = 16,
      .int_alu = 4, .int_muldiv = 1, .fp_alu = 0, .fp_muldiv = 0,
      .mem_ports = 2, .has_lsu = true, .prefetch_only = true};

  // CMP fork engine.
  int cmp_contexts = 4;
  int cmp_targets_per_fork = 4;  // slice instance length, in load micro-ops
  // Where a fork starts hunting for its slice instance: the paper forks
  // the slice for the miss ~512 dynamic instructions ahead of the trigger,
  // so the scan begins this far beyond the current fetch position.  When
  // the CMP falls behind, the next fork jumps forward and the skipped
  // instances stay uncovered — the partial miss coverage of Figure 9.
  std::int64_t cmp_fork_lookahead = 384;
  // Future-work mode (paper §6, "chaining trigger" of Collins et al.):
  // each fork resumes exactly where the previous instance ended, giving
  // gap-free coverage.  Quantified in bench_ablation_trigger.
  bool cmp_chaining = false;
  // Future-work mode (paper §6: "the prefetching distance should be
  // selected dynamically"): hill-climb cmp_fork_lookahead at runtime from
  // the timely-vs-late prefetch balance.  Quantified in
  // bench_ablation_trigger.
  bool cmp_dynamic_distance = false;
  // Future-work mode (paper §6: "not every probable cache miss instruction
  // would be triggered as CMAS ... depending on the previous prefetching
  // history, we can choose only the necessary prefetching"): suppress
  // forks for groups whose prefetched lines mostly go unused, re-probing
  // occasionally.
  bool cmp_adaptive_range = false;
  std::uint64_t cmp_range_min_samples = 64;  // installs before judging
  double cmp_range_min_use = 0.25;           // used/installed to stay active
  int cmp_range_reprobe = 16;                // let 1 in N suppressed through
  std::int64_t cmp_lookahead_min = 64;
  std::int64_t cmp_lookahead_max = 4096;
  std::uint64_t cmp_adapt_interval = 4096;  // cycles between adjustments
  // Slip-control bound (the paper's SCQ): how far, in dynamic trace
  // entries, the CMP may run ahead of the front end.  Too small and
  // prefetches are late; too large and the CMP's own prefetches evict each
  // other from L1 before the AP arrives (see bench_ablation_queues).
  std::int64_t cmp_max_runahead = 1024;

  // Abort threshold for a machine making no forward progress (model bug).
  // Counted over stalled *event steps*, not raw cycle deltas, so a legal
  // multi-thousand-cycle fast-forward never trips it.
  std::uint64_t watchdog_cycles = 1'000'000;

  // Flight-recorder depth: how many recent scheduler transitions the
  // always-on ring buffer retains for the DeadlockReport (rounded up to a
  // power of two).  Recording is one struct store per event step; CI's
  // perf gate verifies the overhead stays inside its band.
  std::size_t flight_recorder_depth = 64;

  // Time-advance strategy; excluded from lab content keys because both
  // schedulers produce bit-identical results.
  SchedulerKind scheduler = SchedulerKind::EventSkip;
};

}  // namespace hidisc::machine
