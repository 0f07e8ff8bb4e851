#include "machine/machine.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "uarch/event.hpp"

namespace hidisc::machine {

using isa::Opcode;
using isa::Stream;
using uarch::DynOp;
using uarch::OoOCore;

namespace {

// Trace entries a CMP context may scan per cycle while hunting for its
// slice's instructions; models the CMP front end's slice-fetch rate.
constexpr std::size_t kCmpScanBudget = 64;

// Floor of stalled event steps before the watchdog may fire.  Keeps the
// deadlock net while making it immune to long legal fast-forwards: a
// single skip over N idle cycles is one step, not N.
constexpr std::uint64_t kWatchdogMinSteps = 64;

// HIDISC_LOCKSTEP=1 shadows every event-skip run with a lock-stepped run
// of the same inputs and asserts bit-identical Results.
bool lockstep_verify_requested() {
  const char* v = std::getenv("HIDISC_LOCKSTEP");
  return v != nullptr && v[0] == '1' && v[1] == '\0';
}

std::int16_t num_cmas_groups(const isa::Program& prog) {
  std::int16_t n = 0;
  for (const auto& inst : prog.code)
    if (inst.ann.in_cmas)
      n = std::max(n, static_cast<std::int16_t>(inst.ann.cmas_group + 1));
  return n;
}

}  // namespace

Machine::Machine(const isa::Program& prog, const sim::Trace& trace,
                 Preset preset, const MachineConfig& cfg)
    : prog_(prog),
      trace_(trace),
      preset_(preset),
      cfg_(cfg),
      optable_(prog),
      memsys_(cfg.mem),
      predictor_(cfg.predictor_table, cfg.btb_size, 8,
                 cfg.predictor_kind),
      ldq_("LDQ", cfg.ldq_capacity),
      sdq_("SDQ", cfg.sdq_capacity),
      scq_("SCQ", cfg.scq_capacity),
      recorder_(cfg.flight_recorder_depth) {
  const OoOCore::Queues queues{&ldq_, &sdq_, &scq_};
  switch (preset_) {
    case Preset::Superscalar:
      main_ = std::make_unique<OoOCore>(cfg_.superscalar, &memsys_, queues, &optable_);
      break;
    case Preset::CPAP:
      cp_ = std::make_unique<OoOCore>(cfg_.cp, &memsys_, queues, &optable_);
      ap_ = std::make_unique<OoOCore>(cfg_.ap, &memsys_, queues, &optable_);
      break;
    case Preset::CPCMP:
      main_ = std::make_unique<OoOCore>(cfg_.superscalar, &memsys_, queues, &optable_);
      cmp_ = std::make_unique<OoOCore>(cfg_.cmp, &memsys_, queues, &optable_);
      break;
    case Preset::HiDISC:
      cp_ = std::make_unique<OoOCore>(cfg_.cp, &memsys_, queues, &optable_);
      ap_ = std::make_unique<OoOCore>(cfg_.ap, &memsys_, queues, &optable_);
      cmp_ = std::make_unique<OoOCore>(cfg_.cmp, &memsys_, queues, &optable_);
      break;
  }
  for (auto* core : {main_.get(), cp_.get(), ap_.get(), cmp_.get()})
    if (core != nullptr) roster_[roster_size_++] = core;
  if (cmp_) {
    contexts_.resize(static_cast<std::size_t>(cfg_.cmp_contexts));
    const auto ngroups = static_cast<std::size_t>(num_cmas_groups(prog_));
    group_next_scan_.assign(ngroups, 0);
    group_reprobe_.assign(ngroups, 0);
    group_serial_.assign(ngroups, false);
    for (const auto& inst : prog_.code)
      if (inst.ann.in_cmas && inst.ann.cmas_value_live)
        group_serial_[inst.ann.cmas_group] = true;
  }
  lookahead_ = cfg_.cmp_fork_lookahead;
  next_adapt_cycle_ = cfg_.cmp_adapt_interval;
  // Only an event-skip run queries outstanding fills; don't make the
  // lock-stepped reference pay for tracking them.
  memsys_.set_event_tracking(cfg_.scheduler == SchedulerKind::EventSkip);
}

// Hill-climbing control of the fork distance (paper §6: "the prefetching
// distance should be selected dynamically ... depending on the previous
// prefetching history").  Goodness of the last window = timely prefetch
// hits minus late (in-flight) ones; when a step made things worse, the
// direction flips.
void Machine::adapt_distance(std::uint64_t now) {
  if (!cfg_.cmp_dynamic_distance || cmp_ == nullptr ||
      now < next_adapt_cycle_)
    return;
  next_adapt_cycle_ = now + cfg_.cmp_adapt_interval;

  const auto& l1 = memsys_.l1().stats();
  const auto useful = l1.useful_prefetches - adapt_last_useful_;
  const auto late = l1.late_prefetch_hits - adapt_last_late_;
  const auto issued = l1.prefetches - adapt_last_issued_;
  adapt_last_useful_ = l1.useful_prefetches;
  adapt_last_late_ = l1.late_prefetch_hits;
  adapt_last_issued_ = l1.prefetches;
  if (issued == 0) return;  // no prefetch activity to learn from

  // Direct signal control: a late-heavy window means the fork distance is
  // too short (fills still in flight when the AP arrives); a window whose
  // prefetches mostly go unconsumed means it is too long (lines go stale
  // or get evicted before use).  Otherwise hold.
  const auto consumed = useful + late;
  const bool too_short = late * 2 > consumed && consumed > 0;
  const bool too_long =
      consumed * 2 < issued;  // under half of issued lines get used
  const std::int64_t old = lookahead_;
  if (too_short)
    lookahead_ += lookahead_ / 2;
  else if (too_long)
    lookahead_ -= lookahead_ / 3;
  lookahead_ = std::clamp(lookahead_, cfg_.cmp_lookahead_min,
                          cfg_.cmp_lookahead_max);
  if (lookahead_ != old) ++distance_adaptations_;
}

Machine::~Machine() = default;

OoOCore& Machine::route(const isa::Instruction& inst) {
  if (main_) return *main_;
  return inst.ann.stream == Stream::Compute ? *cp_ : *ap_;
}

bool Machine::done() const {
  if (fetch_pos_ < trace_.size()) return false;
  for (const auto* core : cores())
    if (!core->drained()) return false;
  for (const auto& ctx : contexts_)
    if (ctx.active) return false;
  return true;
}

void Machine::fetch(std::uint64_t now) {
  if (fetch_blocked_) {
    if (pending_branch_pos_ >= 0 || now < fetch_resume_cycle_) {
      ++fetch_stall_branch_cycles_;
      return;
    }
    fetch_blocked_ = false;
  }
  for (int fetched = 0; fetched < cfg_.fetch_width; ++fetched) {
    if (fetch_pos_ >= trace_.size()) return;
    const sim::TraceEntry& e = trace_[fetch_pos_];
    const isa::Instruction& inst = prog_.code[e.static_idx];

    // Instruction-cache model: a fetch-block miss blocks the front end for
    // the fill latency.
    if (cfg_.model_icache) {
      const std::uint64_t iaddr =
          isa::kTextBase +
          static_cast<std::uint64_t>(e.static_idx) * isa::kInstrBytes;
      const std::uint64_t block =
          iaddr / static_cast<std::uint64_t>(cfg_.mem.l1i.block_bytes);
      if (block != last_fetch_block_) {
        last_fetch_block_ = block;
        const auto res = memsys_.fetch_access(iaddr, now);
        if (res.latency > cfg_.mem.l1i.hit_latency) {
          fetch_blocked_ = true;
          pending_branch_pos_ = -1;
          fetch_resume_cycle_ = now + static_cast<std::uint64_t>(res.latency);
          return;
        }
      }
    }

    OoOCore& core = route(inst);
    if (core.input_full()) {
      ++fetch_stall_queue_full_;
      return;
    }

    DynOp op;
    op.trace_pos = static_cast<std::int64_t>(fetch_pos_);
    op.static_idx = e.static_idx;
    op.inst = &inst;
    op.addr = e.addr;
    op.next = e.next;
    op.count_commit = true;

    bool taken = false;
    if (isa::is_control(inst.op) && inst.op != Opcode::HALT) {
      taken = e.next != e.static_idx + 1;
      switch (inst.op) {
        case Opcode::J:
          // Direct target, resolved at decode: no redirect cost modelled.
          break;
        case Opcode::JAL:
          predictor_.push_ras(e.static_idx + 1);
          break;
        case Opcode::JALR:
          predictor_.push_ras(e.static_idx + 1);
          [[fallthrough]];
        case Opcode::JR: {
          const std::int32_t predicted =
              inst.op == Opcode::JR ? predictor_.pop_ras() : -1;
          op.mispredicted = predicted != e.next;
          break;
        }
        default:  // conditional branches and BEOD
          op.mispredicted = predictor_.update(e.static_idx, taken, e.next);
          break;
      }
    }

    const bool ok = core.enqueue(op);
    (void)ok;  // input_full was checked above
    ++fetch_pos_;

    if (cmp_ && inst.ann.is_trigger)
      fork_cmas(inst.ann.trigger_group, fetch_pos_);

    if (op.mispredicted) {
      pending_branch_pos_ = op.trace_pos;
      fetch_blocked_ = true;
      return;
    }
    if (taken) return;  // fetch discontinuity ends the fetch group
  }
}

void Machine::fork_cmas(std::int16_t group, std::size_t fetch_pos) {
  if (group < 0 ||
      static_cast<std::size_t>(group) >= group_next_scan_.size())
    return;
  // Runtime range control (paper §6): a group whose prefetched lines are
  // mostly evicted unused gets suppressed, with occasional re-probes so a
  // phase change can reactivate it.
  if (cfg_.cmp_adaptive_range) {
    const auto& groups = memsys_.l1().prefetch_group_stats();
    const auto it = groups.find(group);
    if (it != groups.end()) {
      // Judge only decided lines: demand-used vs evicted-before-use.
      // Still-resident prefetches are pending, not evidence.
      const auto decided = it->second.used + it->second.evicted_unused;
      if (decided >= cfg_.cmp_range_min_samples) {
        const double use = static_cast<double>(it->second.used) /
                           static_cast<double>(decided);
        if (use < cfg_.cmp_range_min_use &&
            ++group_reprobe_[group] % cfg_.cmp_range_reprobe != 0) {
          ++cmas_forks_suppressed_;
          return;
        }
      }
    }
  }

  CmpContext* free_ctx = nullptr;
  for (auto& ctx : contexts_) {
    if (ctx.active && ctx.group == group) {
      ++cmas_forks_dropped_;  // slice already running: chained continuation
      return;
    }
    if (!ctx.active && free_ctx == nullptr) free_ctx = &ctx;
  }
  if (free_ctx == nullptr) {
    ++cmas_forks_dropped_;
    return;
  }
  free_ctx->active = true;
  free_ctx->group = group;
  // Chaining resumes where the previous instance ended; the paper-mode
  // fork hunts near the trigger distance, skipping anything the CMP
  // missed while it was busy.  Serial (pointer-chase) slices always
  // chain: a real CMP cannot leap over its own dependence chain.
  const bool chain = cfg_.cmp_chaining || group_serial_[group];
  const std::size_t anchor =
      chain ? fetch_pos : fetch_pos + static_cast<std::size_t>(lookahead_);
  free_ctx->scan_pos = std::max(anchor, group_next_scan_[group]);
  free_ctx->targets_left = cfg_.cmp_targets_per_fork;
  ++cmas_forks_;
}

bool Machine::pump_cmp(std::uint64_t now) {
  (void)now;
  bool progress = false;
  if (!cmp_) return progress;
  for (auto& ctx : contexts_) {
    if (!ctx.active) continue;
    std::size_t scanned = 0;
    while (scanned < kCmpScanBudget && !cmp_->input_full()) {
      if (ctx.scan_pos >= trace_.size()) {
        ctx.active = false;
        group_next_scan_[ctx.group] = ctx.scan_pos;
        progress = true;
        break;
      }
      // Slip control: the CMP may not run further ahead of the front end
      // than the SCQ-style bound allows.
      if (ctx.scan_pos >= fetch_pos_ + static_cast<std::size_t>(
                                           cfg_.cmp_max_runahead))
        break;
      const sim::TraceEntry& e = trace_[ctx.scan_pos];
      const isa::Instruction& inst = prog_.code[e.static_idx];
      ++ctx.scan_pos;
      ++scanned;
      progress = true;  // the scan cursor moved: front-end state changed
      if (!inst.ann.in_cmas || inst.ann.cmas_group != ctx.group) continue;

      DynOp op;
      op.trace_pos = static_cast<std::int64_t>(ctx.scan_pos) - 1;
      op.static_idx = e.static_idx;
      op.inst = &inst;
      op.addr = e.addr;
      op.next = e.next;
      op.count_commit = false;
      if (!cmp_->enqueue(op)) break;  // raced with input_full: retry later
      ++cmas_uops_;

      if (isa::is_load(inst.op) && --ctx.targets_left <= 0) {
        ctx.active = false;
        group_next_scan_[ctx.group] = ctx.scan_pos;
        break;
      }
    }
  }
  return progress;
}

Result Machine::run() {
  if (cfg_.scheduler == SchedulerKind::EventSkip &&
      lockstep_verify_requested()) {
    MachineConfig ref_cfg = cfg_;
    ref_cfg.scheduler = SchedulerKind::Lockstep;
    Machine ref(prog_, trace_, preset_, ref_cfg);
    const Result want = ref.run_scheduler();
    const Result got = run_scheduler();
    if (!(want == got))
      throw std::logic_error(
          std::string("HIDISC_LOCKSTEP: scheduler divergence on preset ") +
          preset_name(preset_) + ": lockstep {cycles " +
          std::to_string(want.cycles) + ", instructions " +
          std::to_string(want.instructions) + "} vs event-skip {cycles " +
          std::to_string(got.cycles) + ", instructions " +
          std::to_string(got.instructions) + "}" +
          (want.cycles == got.cycles && want.instructions == got.instructions
               ? " (headline numbers match; a stall/cache counter differs)"
               : ""));
    return got;
  }
  return run_scheduler();
}

// Branch resolution unblocks the front end.
bool Machine::resolve_branches() {
  bool progress = false;
  for (auto* core : cores()) {
    for (const auto& rb : core->resolved()) {
      if (rb.trace_pos == pending_branch_pos_) {
        pending_branch_pos_ = -1;
        fetch_resume_cycle_ =
            rb.resolve_cycle +
            static_cast<std::uint64_t>(cfg_.redirect_penalty);
        progress = true;
      }
    }
    core->clear_resolved();
  }
  return progress;
}

// Runs fetch() and reports whether it changed any front-end state.  Pure
// stall-counter increments do not count: those are exactly what the
// event-skip scheduler replays in bulk when it fast-forwards.
bool Machine::fetch_step(std::uint64_t now) {
  const auto pos = fetch_pos_;
  const bool blocked = fetch_blocked_;
  const auto pending = pending_branch_pos_;
  const auto resume = fetch_resume_cycle_;
  const auto block = last_fetch_block_;
  fetch(now);
  return fetch_pos_ != pos || fetch_blocked_ != blocked ||
         pending_branch_pos_ != pending || fetch_resume_cycle_ != resume ||
         last_fetch_block_ != block;
}

// One simulated cycle, identical in ordering to the seed scheduler's loop
// body: cores tick (commit -> pushes -> issue -> dispatch), resolved
// branches unblock fetch, the front end fetches and routes, the CMP fork
// engine scans, the dynamic fork distance adapts.  Returns true when any
// machine state changed; a false return means this exact cycle would
// repeat forever absent a timed event.
bool Machine::step(std::uint64_t now) {
  bool progress = false;
  for (auto* core : cores()) {
    if (core->drained()) {
      // Quiescent core: empty window, empty input queue.  A tick would be
      // a guaranteed no-op, so don't pay for it.
      ++sched_.quiescent_core_ticks;
      continue;
    }
    progress |= core->tick(now);
  }
  progress |= resolve_branches();
  progress |= fetch_step(now);
  progress |= pump_cmp(now);
  adapt_distance(now);
  return progress;
}

// Earliest cycle strictly after `now` at which anything in the machine
// could change state: per-core completions, architectural-FIFO heads
// becoming consumable, the front end's fetch-resume point, the CMP adapt
// tick, and outstanding memory-system fills.  kNoEvent means the machine
// is wedged for good.
std::uint64_t Machine::next_event_after(std::uint64_t now) {
  std::uint64_t ev = uarch::kNoEvent;
  for (const auto* core : cores())
    ev = std::min(ev, core->next_event_cycle(now));
  for (const auto* q : {&ldq_, &sdq_, &scq_})
    ev = std::min(ev, q->next_ready_event(now));
  if (fetch_blocked_ && pending_branch_pos_ < 0 && fetch_resume_cycle_ > now)
    ev = std::min(ev, fetch_resume_cycle_);
  if (cmp_ && cfg_.cmp_dynamic_distance && next_adapt_cycle_ > now)
    ev = std::min(ev, next_adapt_cycle_);
  ev = std::min(ev, memsys_.next_fill_complete(now));
  return ev;
}

// Replays the per-cycle stall counters the skipped cycles would have
// accrued under lockstep.  Only counters can accrue there — by
// construction nothing else could change — and each one's gating
// condition is frozen across the whole skipped stretch.
void Machine::account_skip(std::uint64_t now, std::uint64_t delta) {
  for (auto* core : cores()) core->account_idle_cycles(now, delta);
  if (fetch_blocked_) {
    // Blocked on a pending branch or a timed resume point; the skip never
    // crosses the resume cycle.
    fetch_stall_branch_cycles_ += delta;
  } else if (fetch_pos_ < trace_.size()) {
    // Unblocked yet frozen: the next instruction's core must have a full
    // input queue (an I-cache probe would have changed state).
    const sim::TraceEntry& e = trace_[fetch_pos_];
    if (route(prog_.code[e.static_idx]).input_full())
      fetch_stall_queue_full_ += delta;
  }
}

// Samples the machine's observable occupancies into one flight-recorder
// frame.  Must stay cheap: this runs on every event step.
diag::StepRecord Machine::make_record(std::uint64_t now, diag::StepKind kind,
                                      std::uint64_t arg) const {
  diag::StepRecord r;
  r.cycle = now;
  r.kind = kind;
  r.arg = arg;
  r.fetch_pos = fetch_pos_;
  r.ldq = static_cast<std::uint16_t>(ldq_.size());
  r.sdq = static_cast<std::uint16_t>(sdq_.size());
  r.scq = static_cast<std::uint16_t>(scq_.size());
  int i = 0;
  for (const auto* core : {main_.get(), cp_.get(), ap_.get(), cmp_.get()}) {
    if (core != nullptr)
      r.window[i] = static_cast<std::uint16_t>(core->window_occupancy());
    ++i;
  }
  return r;
}

diag::DeadlockReport Machine::build_deadlock_report(
    std::uint64_t now, std::uint64_t last_progress_cycle,
    bool no_pending_event) const {
  diag::DeadlockReport rep;
  rep.preset = preset_name(preset_);
  rep.scheduler = cfg_.scheduler == SchedulerKind::Lockstep ? "Lockstep"
                                                            : "EventSkip";
  rep.now = now;
  rep.last_progress_cycle = last_progress_cycle;
  rep.watchdog_cycles = cfg_.watchdog_cycles;
  rep.no_pending_event = no_pending_event;
  rep.fetch_pos = fetch_pos_;
  rep.trace_size = trace_.size();
  rep.fetch_blocked = fetch_blocked_;
  rep.pending_branch_pos = pending_branch_pos_;
  for (const auto& ctx : contexts_)
    if (ctx.active) ++rep.cmp_contexts_active;

  for (const auto* q : {&ldq_, &sdq_, &scq_}) {
    diag::QueueSnapshot qs;
    qs.name = q->name();
    qs.size = q->size();
    qs.capacity = q->capacity();
    qs.pushes = q->stats().pushes;
    qs.pops = q->stats().pops;
    if (const auto* head = q->head(); head != nullptr) {
      qs.has_head = true;
      qs.head_ready = head->ready;
      qs.head_producer = head->producer_pos;
      qs.head_eod = head->eod;
    }
    rep.queues.push_back(std::move(qs));
  }

  for (const auto* core : {main_.get(), cp_.get(), ap_.get(), cmp_.get()}) {
    if (core == nullptr) continue;
    diag::CoreSnapshot cs;
    cs.name = core->config().name;
    cs.drained = core->drained();
    cs.window = core->window_occupancy();
    cs.window_capacity = static_cast<std::size_t>(core->config().window);
    cs.input = core->input_occupancy();
    cs.input_capacity = static_cast<std::size_t>(core->config().input_queue);
    const auto probe = core->probe_oldest_stall(now);
    if (probe.valid) {
      cs.has_stall = true;
      cs.why = probe.why;
      cs.op = probe.op;
      cs.static_idx = probe.static_idx;
      cs.trace_pos = probe.trace_pos;
      if (probe.queue != nullptr) cs.queue = probe.queue->name();
    }
    rep.cores.push_back(std::move(cs));
  }

  rep.recent = recorder_.snapshot();
  diag::classify(rep);
  return rep;
}

void Machine::throw_deadlock(std::uint64_t now,
                             std::uint64_t last_progress_cycle,
                             bool no_pending_event) {
  recorder_.record(make_record(now, diag::StepKind::Deadlock, 0));
  throw diag::DeadlockError(
      build_deadlock_report(now, last_progress_cycle, no_pending_event));
}

Result Machine::run_scheduler() {
  const bool lockstep = cfg_.scheduler == SchedulerKind::Lockstep;
  std::uint64_t now = 0;
  std::uint64_t last_progress_cycle = 0;
  std::uint64_t no_progress_steps = 0;

  while (!done()) {
    const bool was_blocked = fetch_blocked_;
    const bool progress = step(now);
    ++sched_.event_steps;
    if (check_invariants_each_step_)
      for (const auto* core : cores()) core->debug_check_invariants(now);
    recorder_.record(make_record(
        now, progress ? diag::StepKind::Progress : diag::StepKind::Stall, 0));
    if (fetch_blocked_ != was_blocked)
      recorder_.record(make_record(now,
                                   fetch_blocked_ ? diag::StepKind::FetchBlock
                                                  : diag::StepKind::FetchResume,
                                   fetch_pos_));

    if (progress) {
      last_progress_cycle = now;
      no_progress_steps = 0;
      ++now;
      continue;
    }
    ++no_progress_steps;
    ++sched_.stall_steps;

    std::uint64_t next = now + 1;
    if (!lockstep) {
      const std::uint64_t ev = next_event_after(now);
      // No self-scheduled event anywhere and no progress: the state can
      // never change again.  Lockstep would spin the watchdog out; report
      // the same deadlock immediately.
      if (ev == uarch::kNoEvent)
        throw_deadlock(now, last_progress_cycle, /*no_pending_event=*/true);
      if (ev > now + 1) {
        const std::uint64_t delta = ev - now - 1;
        account_skip(now, delta);
        sched_.skipped_cycles += delta;
        sched_.max_skip = std::max(sched_.max_skip, delta);
        ++sched_.skips;
        recorder_.record(make_record(now, diag::StepKind::Skip, delta));
        next = ev;
      }
    }

    // Watchdog over stalled *event steps*, not raw cycle deltas: a legal
    // fast-forward of millions of cycles is a single step and must not
    // trip it, while a genuine livelock accumulates stalled steps fast.
    if (no_progress_steps > kWatchdogMinSteps &&
        now - last_progress_cycle > cfg_.watchdog_cycles)
      throw_deadlock(now, last_progress_cycle, /*no_pending_event=*/false);

    now = next;
  }
  for (const auto* core : cores()) {
    sched_.issue_visits += core->work().issue_visits;
    sched_.wakeups += core->work().wakeups;
  }
  return collect(now);
}

Result Machine::collect(std::uint64_t cycles) const {
  Result r;
  r.cycles = cycles;
  r.l1 = memsys_.l1().stats();
  r.l2 = memsys_.l2().stats();
  r.pf = memsys_.hw_prefetch_stats();
  r.pf_accuracy = r.pf.accuracy();
  r.pf_lateness = r.pf.lateness();
  // Coverage: timely prefetch hits over the misses there would have been
  // without them (the remaining demand misses plus the hits prefetching
  // converted).
  const std::uint64_t timely = r.pf.timely();
  const std::uint64_t denom = timely + r.l1.demand_misses();
  r.pf_coverage =
      denom == 0 ? 0.0
                 : static_cast<double>(timely) / static_cast<double>(denom);
  r.branch = predictor_.stats();
  if (main_) {
    r.has_main = true;
    r.main = main_->stats();
    r.instructions += r.main.committed;
  }
  if (cp_) {
    r.has_cp = true;
    r.cp = cp_->stats();
    r.instructions += r.cp.committed;
  }
  if (ap_) {
    r.has_ap = true;
    r.ap = ap_->stats();
    r.instructions += r.ap.committed;
  }
  if (cmp_) {
    r.has_cmp = true;
    r.cmp = cmp_->stats();
  }
  r.ipc = cycles == 0 ? 0.0
                      : static_cast<double>(r.instructions) /
                            static_cast<double>(cycles);
  r.ldq = ldq_.stats();
  r.sdq = sdq_.stats();
  r.scq = scq_.stats();
  r.fetch_stall_branch_cycles = fetch_stall_branch_cycles_;
  r.fetch_stall_queue_full = fetch_stall_queue_full_;
  r.cmas_forks = cmas_forks_;
  r.cmas_forks_dropped = cmas_forks_dropped_;
  r.cmas_forks_suppressed = cmas_forks_suppressed_;
  r.cmas_uops = cmas_uops_;
  r.distance_adaptations = distance_adaptations_;
  r.final_fork_lookahead = lookahead_;
  return r;
}

Result run_machine(const isa::Program& prog, const sim::Trace& trace,
                   Preset preset, const MachineConfig& cfg) {
  Machine m(prog, trace, preset, cfg);
  return m.run();
}

Result run_machine(const isa::Program& prog, Preset preset,
                   const MachineConfig& cfg) {
  sim::Functional func(prog);
  const sim::Trace trace = func.run_trace();
  return run_machine(prog, trace, preset, cfg);
}

}  // namespace hidisc::machine
