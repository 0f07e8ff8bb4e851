#include "uarch/core.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace hidisc::uarch {

using isa::OpClass;
using isa::Opcode;

namespace {

constexpr std::uint64_t store_line(std::uint64_t addr) noexcept {
  return addr & ~7ull;
}

std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

OoOCore::OoOCore(const CoreConfig& cfg, mem::MemorySystem* memsys,
                 Queues queues, const StaticOpTable* table)
    : cfg_(cfg),
      memsys_(memsys),
      queues_(queues),
      table_(table),
      last_writer_(isa::kNumArchRegs, 0),
      int_alu_(cfg.int_alu),
      int_muldiv_(cfg.int_muldiv),
      fp_alu_(cfg.fp_alu),
      fp_muldiv_(cfg.fp_muldiv),
      mem_ports_(cfg.mem_ports),
      prefetch_slots_(cfg.prefetch_only ? cfg.prefetch_buffer : 0) {
  if (cfg.window <= 0 || cfg.issue_width <= 0 || cfg.commit_width <= 0)
    throw std::invalid_argument(cfg.name + ": non-positive core geometry");
  if (cfg.window > 64)  // one bit per ring slot in the ready/unissued sets
    throw std::invalid_argument(cfg.name + ": window above 64 entries");
  slots_.resize(pow2_at_least(static_cast<std::size_t>(cfg.window)));
  window_mask_ = slots_.size() - 1;
  input_slots_.resize(
      pow2_at_least(static_cast<std::size_t>(std::max(1, cfg.input_queue))));
  input_mask_ = input_slots_.size() - 1;
}

void OoOCore::reset() {
  input_head_ = input_count_ = 0;
  window_head_ = window_count_ = 0;
  next_seq_ = base_seq_ = 1;
  mem_ops_in_window_ = 0;
  std::fill(last_writer_.begin(), last_writer_.end(), 0);
  int_alu_.reset();
  int_muldiv_.reset();
  fp_alu_.reset();
  fp_muldiv_.reset();
  mem_ports_.reset();
  prefetch_slots_.reset();
  completion_events_.clear();
  unissued_ = ready_ = 0;
  for (auto& pend : pending_push_) pend.clear();
  stores_.clear();
  store_filter_.fill(0);
  stats_ = CoreStats{};
  work_ = IssueWork{};
  resolved_.clear();
}

FuPool* OoOCore::pool_ptr(PoolKind kind) {
  switch (kind) {
    case PoolKind::IntAlu: return &int_alu_;
    case PoolKind::IntMulDiv: return &int_muldiv_;
    case PoolKind::FpAlu: return &fp_alu_;
    case PoolKind::FpMulDiv: return &fp_muldiv_;
    case PoolKind::Mem: return &mem_ports_;
    case PoolKind::None: return nullptr;
  }
  return nullptr;
}

TimedFifo* OoOCore::queue_ptr(QueueRole role) const noexcept {
  switch (role) {
    case QueueRole::Ldq: return queues_.ldq;
    case QueueRole::Sdq: return queues_.sdq;
    case QueueRole::Scq: return queues_.scq;
    case QueueRole::None: return nullptr;
  }
  return nullptr;
}

std::uint64_t OoOCore::by_age(std::uint64_t slots) const noexcept {
  const auto h = static_cast<unsigned>(window_head_);
  if (h == 0) return slots;
  const auto ring = static_cast<unsigned>(slots_.size());
  const std::uint64_t rotated = slots >> h | slots << (ring - h);
  return ring == 64 ? rotated : rotated & ((1ull << ring) - 1);
}

bool OoOCore::tick(std::uint64_t now) {
  if (window_count_ != 0 || input_count_ != 0) ++stats_.busy_cycles;
  wake_completed(now);
  progress_ = false;
  do_commit(now);
  do_pushes(now);
  do_issue(now);
  do_dispatch(now);
  return progress_;
}

// Wakeup: every entry whose result is available by `now` decrements its
// consumers' outstanding-source counts; a consumer reaching zero joins the
// ready set.  Completions are never committed before this runs (commit
// needs completion, and every tick drains first), so each event names a
// live window slot.
void OoOCore::wake_completed(std::uint64_t now) {
  completion_events_.drain(now, [this](unsigned slot) {
    Entry& done = slots_[slot];
    for (auto link = done.consumers; link != kNoLink;) {
      Entry& c = slots_[link >> 1];
      ++work_.wakeups;
      if (--c.pending == 0) ready_ |= 1ull << (link >> 1);
      link = c.next_consumer[link & 1];
    }
    done.consumers = kNoLink;
  });
}

std::uint64_t OoOCore::next_event_cycle(std::uint64_t now) const {
  // Issued-but-incomplete entries cover every time-threshold their
  // completion gates: commit of the head, queue writes draining, consumer
  // wakeups, and load/store disambiguation waits.  The wheel's earliest
  // event is exactly the earliest of them once tick(now) drained everything
  // <= now; before that tick, an undrained event means "next cycle".
  std::uint64_t ev = completion_events_.earliest();
  if (ev != kNoEvent) ev = std::max(now + 1, ev);
  // Unit releases; a full prefetch buffer frees a slot when its earliest
  // fill lands.
  for (const FuPool* pool : {&int_alu_, &int_muldiv_, &fp_alu_, &fp_muldiv_,
                             &mem_ports_, &prefetch_slots_})
    ev = std::min(ev, pool->next_release(now));
  return ev;
}

// Mirrors exactly the per-cycle stall counters tick() accrues in a cycle
// where nothing can change: busy time, dispatch blocked on a full window
// or an exhausted LSQ share, commit blocked on an undrained queue write,
// the per-queue full-stall note of do_pushes, and the oldest-op
// empty-queue stalls of do_issue.  Any drift here is caught by the
// HIDISC_LOCKSTEP verification path.
void OoOCore::account_idle_cycles(std::uint64_t now, std::uint64_t delta) {
  if (delta == 0) return;
  if (window_count_ == 0 && input_count_ == 0) return;  // quiescent
  stats_.busy_cycles += delta;

  if (input_count_ != 0) {
    if (window_count_ >= static_cast<std::size_t>(cfg_.window)) {
      stats_.window_full_stalls += delta;
    } else {
      // Window has room yet dispatch was frozen: the head of the input
      // queue must be a memory op blocked on the LSQ share (the only other
      // dispatch gate) — mirror do_dispatch's per-cycle counter.
      StaticOp scratch;
      const DynOp& op = input_front();
      const StaticOp& so = table_ != nullptr ? (*table_)[op.static_idx]
                                             : (scratch = decode_static_op(
                                                    *op.inst),
                                                scratch);
      if ((so.is_load || so.is_store) && mem_ops_in_window_ >= cfg_.lsq)
        stats_.lsq_full_stalls += delta;
    }
  }

  if (window_count_ != 0) {
    const Entry& head = window_at(0);
    if (completed(head, now) && head.push_queue != nullptr && !head.pushed)
      stats_.queue_full_commit_stalls += delta;
  }

  // do_pushes: one full-stall note per queue per cycle, charged when the
  // oldest un-pushed write for that queue is completed but the queue is
  // full.  (An older incomplete write blocks younger ones silently.)
  for (const auto& pend : pending_push_) {
    if (pend.empty()) continue;
    const Entry* e = find_by_seq(pend.front());
    if (e != nullptr && completed(*e, now) && e->push_queue->full())
      e->push_queue->note_full_stalls(delta);
  }

  // do_issue: the oldest un-issued op, when ready but waiting on an empty
  // (or not-yet-ready) architectural queue, counts a head stall per cycle.
  if (const auto age = by_age(unissued_); age != 0) {
    const Entry* e =
        &window_at(static_cast<std::size_t>(std::countr_zero(age)));
    if (e->pending == 0 && e->pop_queue != nullptr &&
        e->pop_queue->front_ready(now) == nullptr) {
      stats_.head_pop_empty_stalls += delta;
      e->pop_queue->note_empty_stalls(delta);
      if (e->pop_queue == queues_.sdq) stats_.lod_stalls += delta;
    }
  }
}

OoOCore::StallProbe OoOCore::probe_oldest_stall(std::uint64_t now) const {
  StallProbe p;
  if (window_count_ == 0) {
    if (input_count_ == 0) return p;  // drained
    const DynOp& op = input_front();
    p.valid = true;
    p.why = diag::StallWhy::Dispatch;
    p.op = std::string(op.inst->info().name);
    p.static_idx = op.static_idx;
    p.trace_pos = op.trace_pos;
    return p;
  }

  const Entry& head = window_at(0);
  p.valid = true;
  p.op = std::string(head.op.inst->info().name);
  p.static_idx = head.op.static_idx;
  p.trace_pos = head.op.trace_pos;

  if (completed(head, now)) {
    // do_commit's only gate: an undrained queue write.
    if (head.push_queue != nullptr && !head.pushed) {
      p.why = diag::StallWhy::PushFull;
      p.queue = head.push_queue;
    }
    return p;
  }
  if (head.issued) {
    p.why = diag::StallWhy::InFlight;
    return p;
  }

  // Un-issued head: do_issue's gates, in order.  The head has no older
  // in-window producers, but keep the check for completeness.
  if (head.pending != 0) {
    p.why = diag::StallWhy::Sources;
    return p;
  }
  if (head.pop_queue != nullptr) {
    p.queue = head.pop_queue;
    if (head.pop_queue->front_ready(now) == nullptr) {
      p.why = head.pop_queue->empty() ? diag::StallWhy::PopEmpty
                                      : diag::StallWhy::PopNotReady;
      return p;
    }
  }
  if (head.so.is_load && cfg_.prefetch_only && !head.so.value_live &&
      !prefetch_slots_.available(now)) {
    p.why = diag::StallWhy::FuBusy;
    return p;
  }
  // Sources and queues cleared: a functional unit / memory port is the
  // remaining gate.
  p.why = diag::StallWhy::FuBusy;
  return p;
}

// Queue writes drain at completion (writeback), in program order per queue
// — the decoupled machines' whole point is that the consumer sees a value
// as soon as it is produced, not when it retires.  An entry that has not
// managed its write (queue full) blocks commit.  Only each queue's oldest
// pending write can move, so the cursors replace the historical window
// scan.
void OoOCore::do_pushes(std::uint64_t now) {
  for (auto& pend : pending_push_) {
    while (!pend.empty()) {
      Entry& e = *find_by_seq(pend.front());
      if (!completed(e, now)) break;  // younger writes to this queue wait
      TimedFifo::Entry qe;
      // Value travels one cycle through the queue interconnect.
      qe.ready = now + 1;
      qe.producer_pos = e.op.trace_pos;
      qe.eod = e.push_eod;
      if (!e.push_queue->push(qe)) {
        e.push_queue->note_full_stall();
        break;
      }
      e.pushed = true;
      progress_ = true;
      pend.pop_front();
    }
  }
}

void OoOCore::do_commit(std::uint64_t now) {
  int committed = 0;
  while (window_count_ != 0 && committed < cfg_.commit_width) {
    Entry& head = window_at(0);
    if (!completed(head, now)) break;
    if (head.push_queue != nullptr && !head.pushed) {
      ++stats_.queue_full_commit_stalls;
      break;  // the queue write has not drained yet
    }
    if (head.so.is_load || head.so.is_store) --mem_ops_in_window_;
    if (head.so.is_store) {
      // The committing store is the oldest in-window store: the ring front.
      --store_filter_[filter_index(stores_.front().line)];
      stores_.pop_front();
    }
    if (head.op.count_commit) ++stats_.committed;
    ++stats_.committed_all;
    window_head_ = (window_head_ + 1) & window_mask_;
    --window_count_;
    ++base_seq_;
    ++committed;
    progress_ = true;
  }
}

OoOCore::Disambiguation OoOCore::check_older_stores(std::uint64_t line,
                                                    std::uint64_t seq,
                                                    std::uint64_t now) const {
  Disambiguation d;
  if (store_filter_[filter_index(line)] == 0) return d;
  // The ring is in program order, so this walk visits overlapping stores
  // oldest first — identical order (and first-incomplete early-out) to
  // the historical full-window scan, minus every non-store entry.
  for (std::size_t i = 0; i < stores_.size(); ++i) {
    const StoreRef& s = stores_[i];
    if (s.seq >= seq) break;
    if (s.line != line) continue;
    if (!completed(*find_by_seq(s.seq), now)) {
      d.wait = true;
      break;
    }
    d.forward = true;  // most recent older overlapping store wins
  }
  return d;
}

bool OoOCore::store_in_window(std::uint64_t line) const noexcept {
  if (store_filter_[filter_index(line)] == 0) return false;
  for (std::size_t i = 0; i < stores_.size(); ++i)
    if (stores_[i].line == line) return true;
  return false;
}

// Select: visits the ready set (entries whose sources are all complete)
// oldest first and applies the remaining gates in order.  An entry with an
// incomplete source would end its visit at the source gate with no side
// effect, so leaving it out of the walk changes nothing.
void OoOCore::do_issue(std::uint64_t now) {
  // Per-queue pop state for this cycle: pops must drain in program order
  // (an older blocked pop blocks younger ones) and respect the per-cycle
  // queue read bandwidth.
  struct PopState {
    bool order_blocked = false;
    int pops = 0;
  };
  PopState pop_state[3];
  // FU pools proven exhausted this pass.  Mid-pass acquires only consume
  // units, so once one acquire fails every later same-pool acquire this
  // cycle fails too, and the remaining gates of such a visit have no side
  // effect — skip them.  Queue pops use no pool; a load that may forward
  // bypasses its pool, so it still runs disambiguation.
  bool pool_full[6] = {};
  // Program-order head of the unissued population, fixed for this pass:
  // the one entry whose empty-queue wait is charged to the stall counters.
  const std::uint64_t unissued_age = by_age(unissued_);
  const int head_pos =
      unissued_age != 0 ? std::countr_zero(unissued_age) : -1;
  int issued = 0;
  for (auto age = by_age(ready_); age != 0 && issued < cfg_.issue_width;
       age &= age - 1) {
    const int pos = std::countr_zero(age);
    Entry& e = window_at(static_cast<std::size_t>(pos));
    ++work_.issue_visits;

    if (pool_full[static_cast<std::size_t>(e.so.pool)] &&
        (!e.so.is_load || e.no_conflict))
      continue;

    if (e.pop_queue != nullptr) {
      PopState& ps = pop_state[queue_slot(e.pop_queue)];
      if (ps.order_blocked || ps.pops >= cfg_.queue_pops_per_cycle) continue;
      if (e.pop_queue->front_ready(now) == nullptr) {
        ps.order_blocked = true;
        if (pos == head_pos) {
          ++stats_.head_pop_empty_stalls;
          e.pop_queue->note_empty_stall();
          // Waiting on the SDQ means the access side is blocked on a
          // computation-side value: the paper's loss-of-decoupling event.
          if (e.pop_queue == queues_.sdq) ++stats_.lod_stalls;
        }
        continue;
      }
      ++ps.pops;
    }

    // Memory disambiguation: a load may not pass an older overlapping
    // store that has not yet written (8-byte granularity; addresses are
    // exact, from the trace).
    if (e.so.is_load && cfg_.has_lsu && !e.no_conflict) {
      const auto d = check_older_stores(store_line(e.op.addr), e.seq, now);
      if (d.wait) continue;
      e.forwarded = d.forward;
    }

    // Fire-and-forget prefetch loads draw from a finite prefetch buffer.
    if (e.so.is_load && cfg_.prefetch_only && !e.so.value_live &&
        !prefetch_slots_.available(now))
      continue;

    // Functional unit / memory port availability.
    FuPool* pool = pool_ptr(e.so.pool);
    if (e.forwarded) pool = nullptr;  // store-to-load forward: no cache port
    if (pool != nullptr && !pool->acquire(now, e.so.busy)) {
      pool_full[static_cast<std::size_t>(e.so.pool)] = true;
      continue;
    }

    issue_one(e, now);
    ++issued;
  }
}

void OoOCore::issue_one(Entry& e, std::uint64_t now) {
  if (e.pop_queue != nullptr) {
    if (e.so.is_beod) {
      // BEOD only consumes the head token when it is an EOD marker; a data
      // value stays queued for the next POPLDQ (paper §3.1).
      const auto* front = e.pop_queue->front_ready(now);
      if (front != nullptr && front->eod) e.pop_queue->pop();
    } else {
      e.pop_queue->pop();
    }
  }

  if (e.so.is_load) {
    ++stats_.loads;
    if (e.forwarded) {
      ++stats_.forwarded_loads;
      e.complete_cycle = now + 1;
    } else {
      const auto type = cfg_.prefetch_only ? mem::AccessType::Prefetch
                                           : mem::AccessType::Read;
      const auto group =
          cfg_.prefetch_only ? e.so.cmas_group : std::int16_t{-1};
      const auto res =
          memsys_->access(e.op.addr, type, now, e.op.static_idx, group);
      if (cfg_.prefetch_only && !e.so.value_live) {
        // Fire-and-forget prefetch: nothing in the slice reads this value
        // (compiler-proven), so the CMP retires it immediately while the
        // fill completes in the background.  Pointer-chase slices, whose
        // loads feed later slice instructions, keep the full latency.
        e.complete_cycle = now + 1;
        prefetch_slots_.acquire(now, std::max(1, res.latency));
      } else {
        e.complete_cycle = now + static_cast<std::uint64_t>(
                                     std::max(1, res.latency));
      }
    }
  } else if (e.so.is_store) {
    ++stats_.stores;
    // Stores drain into the write buffer; the cache access happens now.
    memsys_->access(e.op.addr, mem::AccessType::Write, now, e.op.static_idx);
    e.complete_cycle = now + 1;
  } else if (e.so.is_prefetch) {
    memsys_->access(e.op.addr, mem::AccessType::Prefetch, now,
                    e.op.static_idx);
    e.complete_cycle = now + 1;
  } else {
    e.complete_cycle = now + static_cast<std::uint64_t>(e.so.latency);
  }

  e.issued = true;
  const auto slot = slot_of(e);
  ready_ &= ~(1ull << slot);
  unissued_ &= ~(1ull << slot);
  completion_events_.schedule(e.complete_cycle, static_cast<unsigned>(slot));
  progress_ = true;

  if (e.op.mispredicted)
    resolved_.push_back({e.op.trace_pos, e.complete_cycle});
}

void OoOCore::do_dispatch(std::uint64_t now) {
  int dispatched = 0;
  while (input_count_ != 0 && dispatched < cfg_.dispatch_width) {
    if (window_count_ >= static_cast<std::size_t>(cfg_.window)) {
      ++stats_.window_full_stalls;
      break;
    }
    const DynOp& op = input_front();
    StaticOp scratch;
    const StaticOp& so =
        table_ != nullptr ? (*table_)[op.static_idx]
                          : (scratch = decode_static_op(*op.inst), scratch);

    if (so.is_mem && !cfg_.has_lsu)
      throw std::logic_error(cfg_.name +
                             ": memory op routed to core without LSU");
    if (so.is_store && cfg_.prefetch_only)
      throw std::logic_error(cfg_.name + ": store in a CMAS slice");
    if (so.fp_routed && cfg_.fp_alu == 0)
      throw std::logic_error(cfg_.name + ": FP op routed to non-FP core");
    if ((so.is_load || so.is_store) && mem_ops_in_window_ >= cfg_.lsq) {
      ++stats_.lsq_full_stalls;
      break;
    }

    // Every field is written explicitly (no Entry{} reset): the slot is
    // reused ring memory, and a full-struct clear followed by the so/op
    // copies would double-write most of it on the per-instruction path.
    const auto slot = (window_head_ + window_count_) & window_mask_;
    Entry& e = slots_[slot];
    e.so = so;
    e.op = op;
    e.seq = next_seq_++;
    e.complete_cycle = 0;
    e.pop_queue = nullptr;
    e.push_queue = nullptr;
    e.push_eod = false;
    e.pushed = false;
    e.issued = false;
    e.forwarded = false;
    e.no_conflict =
        so.is_load && cfg_.has_lsu && !store_in_window(store_line(op.addr));

    // Register dependences: link into the list of every distinct producer
    // still in flight, and count them.
    e.src_seq[0] = e.src_seq[1] = 0;
    int nsrc = 0;
    if (so.src1 >= 0) e.src_seq[nsrc++] = last_writer_[so.src1];
    if (so.src2 >= 0) e.src_seq[nsrc++] = last_writer_[so.src2];
    e.consumers = kNoLink;
    e.pending = 0;
    for (int k = 0; k < nsrc; ++k) {
      if (k == 1 && e.src_seq[1] == e.src_seq[0]) break;
      Entry* prod = find_by_seq(e.src_seq[k]);
      if (prod == nullptr || completed(*prod, now)) continue;
      e.next_consumer[k] = prod->consumers;
      prod->consumers = static_cast<std::uint8_t>(slot << 1 | k);
      ++e.pending;
    }

    // Queue roles.  A prefetch-only core (the CMP) executes copies of
    // Access Stream instructions speculatively; it must never touch the
    // architectural queues, so all queue roles are ignored there.
    if (!cfg_.prefetch_only) {
      if (so.pop_role != QueueRole::None) {
        e.pop_queue = queue_ptr(so.pop_role);
        if (e.pop_queue == nullptr)
          throw std::logic_error(cfg_.name +
                                 ": queue pop with no queue bound");
      }
      if (so.push_role != QueueRole::None) {
        e.push_queue = queue_ptr(so.push_role);
        e.push_eod = so.push_eod;
        // An opcode-driven push with no bound queue degrades to a plain
        // op (bare-core tests); a compiler-annotated push losing its
        // queue would silently drop a communication — fail loudly.
        if (e.push_queue == nullptr && so.push_from_ann)
          throw std::logic_error(cfg_.name +
                                 ": queue push with no queue bound");
      }
    }

    // Rename: this entry becomes the live writer of its destination.
    if (so.dst >= 0) last_writer_[so.dst] = e.seq;

    if (so.is_load || so.is_store) ++mem_ops_in_window_;
    if (so.is_store) {
      const auto line = store_line(op.addr);
      stores_.push_back({line, e.seq});
      ++store_filter_[filter_index(line)];
    }
    if (e.push_queue != nullptr)
      pending_push_[queue_slot(e.push_queue)].push_back(e.seq);
    unissued_ |= 1ull << slot;
    if (e.pending == 0) ready_ |= 1ull << slot;
    ++window_count_;
    input_pop();
    ++dispatched;
    progress_ = true;
  }
}

// Brute-force recomputation of every incremental frontier; throws on any
// disagreement with the maintained state.  Deliberately written as the
// seed's full-window scans so the two derivations stay independent.
void OoOCore::debug_check_invariants(std::uint64_t now) const {
  const auto fail = [this](const std::string& what) {
    throw std::logic_error(cfg_.name + ": invariant violated: " + what);
  };

  // Completion wheel: exactly the issued entries completing after `now`
  // (everything up to `now` was drained and woke its consumers), each in
  // its cycle's bucket or, past the span, in the overflow heap.
  try {
    completion_events_.debug_check();
  } catch (const std::logic_error& e) {
    fail(e.what());
  }
  std::vector<std::uint64_t> want_events,
      got_events = completion_events_.events();
  std::uint64_t want_unissued = 0, want_ready = 0;
  for (std::size_t i = 0; i < window_count_; ++i) {
    const Entry& e = window_at(i);
    const auto slot = slot_of(e);
    if (e.issued && e.complete_cycle > now)
      want_events.push_back(e.complete_cycle << 6 | slot);
    if (e.issued) continue;
    // Source count: distinct in-window producers not complete by `now`,
    // each holding a link to this entry's first source naming it.
    int pending = 0;
    for (int k = 0; k < 2; ++k) {
      const Entry* p = find_by_seq(e.src_seq[k]);
      if (p == nullptr || completed(*p, now) ||
          (k == 1 && e.src_seq[1] == e.src_seq[0]))
        continue;
      ++pending;
      bool linked = false;
      for (auto l = p->consumers; l != kNoLink && !linked;
           l = slots_[l >> 1].next_consumer[l & 1])
        linked = l == (slot << 1 | static_cast<std::size_t>(k));
      if (!linked) fail("consumer missing from its producer's list");
    }
    if (pending != e.pending) fail("outstanding-source count mismatch");
    want_unissued |= 1ull << slot;
    if (pending == 0) want_ready |= 1ull << slot;
  }
  std::sort(want_events.begin(), want_events.end());
  std::sort(got_events.begin(), got_events.end());
  if (want_events != got_events) fail("completion events mismatch");
  if (completion_events_.earliest() !=
      (want_events.empty() ? kNoEvent : want_events.front() >> 6))
    fail("earliest completion mismatch");
  if (want_unissued != unissued_) fail("unissued set mismatch");
  if (want_ready != ready_) fail("ready set mismatch");
  // Every counted source has its link, so equal totals leave no stray or
  // duplicate link (the walk stops one past the total, so cycles end too).
  std::size_t want_links = 0, links = 0;
  for (std::size_t i = 0; i < window_count_; ++i)
    if (!window_at(i).issued) want_links += window_at(i).pending;
  for (std::size_t i = 0; i < window_count_; ++i)
    for (auto l = window_at(i).consumers; l != kNoLink && links <= want_links;
         l = slots_[l >> 1].next_consumer[l & 1])
      ++links;
  if (links != want_links) fail("stray consumer link");

  // Per-queue pending-push cursors: the unperformed writes, in order.
  std::vector<std::uint64_t> want_pend[3];
  for (std::size_t i = 0; i < window_count_; ++i) {
    const Entry& e = window_at(i);
    if (e.push_queue != nullptr && !e.pushed)
      want_pend[queue_slot(e.push_queue)].push_back(e.seq);
  }
  for (int s = 0; s < 3; ++s) {
    bool same = want_pend[s].size() == pending_push_[s].size();
    for (std::size_t i = 0; same && i < want_pend[s].size(); ++i)
      same = want_pend[s][i] == pending_push_[s][i];
    if (!same) fail("pending-push cursor mismatch");
  }

  // Store ring: the in-window stores in program order, with their lines;
  // the filter counts them per hashed line.
  std::vector<StoreRef> want_stores;
  std::array<std::uint8_t, kStoreFilter> want_filter{};
  for (std::size_t i = 0; i < window_count_; ++i) {
    const Entry& e = window_at(i);
    if (!e.so.is_store) continue;
    want_stores.push_back({store_line(e.op.addr), e.seq});
    ++want_filter[filter_index(store_line(e.op.addr))];
  }
  bool same = want_stores.size() == stores_.size();
  for (std::size_t i = 0; same && i < want_stores.size(); ++i)
    same = want_stores[i].line == stores_[i].line &&
           want_stores[i].seq == stores_[i].seq;
  if (!same) fail("store ring mismatch");
  if (want_filter != store_filter_) fail("store filter count mismatch");

  // no_conflict is a lifetime promise: such a load must never have an
  // older in-window store on its line (so it can never wait or forward).
  for (std::size_t i = 0; i < window_count_; ++i) {
    const Entry& e = window_at(i);
    if (!e.no_conflict || !e.so.is_load) continue;
    for (const StoreRef& st : want_stores)
      if (st.line == store_line(e.op.addr) && st.seq < e.seq)
        fail("no_conflict load has an older same-line store");
  }

  // Memory-op census.
  int want_mem = 0;
  for (std::size_t i = 0; i < window_count_; ++i)
    if (window_at(i).so.is_load || window_at(i).so.is_store) ++want_mem;
  if (want_mem != mem_ops_in_window_) fail("mem-op census mismatch");

  // The shared memory system's fill frontier (covers hardware-prefetcher
  // fills too); no-op when event tracking is off.
  if (memsys_ != nullptr) memsys_->debug_check_invariants(now);
}

}  // namespace hidisc::uarch
