// RUU-style out-of-order core model (sim-outorder lineage).
//
// One `OoOCore` models any of the paper's processors: the 8-issue
// superscalar baseline, the Computation Processor (window 16, FP units, no
// load/store unit), the Access Processor (window 64, integer + LSU), or the
// Cache Management Processor (integer + LSU, prefetch-only semantics).
//
// The core consumes `DynOp`s from its input instruction queue (the paper's
// Computation / Access Instruction Queues), dispatches them in order into a
// scheduling window, issues oldest-first when operands, functional units,
// memory ports and architectural queues allow, and commits in order.
// Producer-consumer timing between cores flows exclusively through
// `TimedFifo`s, exactly like the paper's LDQ/SDQ/SCQ.
//
// The issue stage is textbook wakeup/select (Tomasulo): each window entry
// counts its outstanding source operands and is linked into its producers'
// consumer lists; a completion drains from the completion wheel and wakes
// its consumers; an entry whose count reaches zero joins an age-ordered
// ready set, and select walks only that set, oldest first.  Per-cycle
// issue cost is O(ready + woken), not O(window).  The other frontiers
// (per-queue pending-write cursors, a program-order ring of in-window
// stores behind a per-line counting filter) likewise replace window scans,
// and every one lives in fixed storage sized by the 64-entry window, so
// the per-op path never allocates — see docs/MACHINE.md "Hot-path data
// structures".  `debug_check_invariants` recomputes every frontier by
// brute force and throws on disagreement; the randomized scheduler tests
// and the machine-level invariant test call it every step.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "diag/deadlock.hpp"
#include "mem/memory_system.hpp"
#include "uarch/completion_wheel.hpp"
#include "uarch/dyn_op.hpp"
#include "uarch/fu_pool.hpp"
#include "uarch/static_op.hpp"
#include "uarch/timed_fifo.hpp"
#include "uarch/window_ring.hpp"

namespace hidisc::uarch {

struct CoreConfig {
  std::string name = "core";
  int window = 64;         // scheduling window (RUU) entries, at most 64
  int issue_width = 8;
  int commit_width = 8;
  int dispatch_width = 8;  // input queue -> window per cycle
  int input_queue = 64;    // CIQ / AIQ / fetch-buffer capacity
  int lsq = 32;            // max memory ops resident in the window
  int int_alu = 4;
  int int_muldiv = 1;
  int fp_alu = 4;          // 0 => no FP capability
  int fp_muldiv = 1;
  int mem_ports = 2;
  bool has_lsu = true;
  bool prefetch_only = false;  // CMP: loads probe/fill caches only
  // Architectural-queue read/write bandwidth per cycle.  The paper's
  // machine names $LDQ as a register operand (Figure 6: "mul.d $f4, $LDQ,
  // $LDQ" consumes two entries in one instruction), so several queue
  // entries per cycle must be consumable.
  int queue_pops_per_cycle = 4;
  // Prefetch-only cores: cap on concurrent fire-and-forget fills (the
  // precomputation engine's prefetch buffer, cf. DGP).  Bounds how much
  // miss bandwidth the CMP can sustain.
  int prefetch_buffer = 8;
};

struct CoreStats {
  std::uint64_t committed = 0;      // architecturally counted commits
  std::uint64_t committed_all = 0;  // including CMP slice micro-ops
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t forwarded_loads = 0;
  std::uint64_t window_full_stalls = 0;
  std::uint64_t lsq_full_stalls = 0;  // dispatch blocked: LSQ share exhausted
  std::uint64_t queue_full_commit_stalls = 0;
  std::uint64_t head_pop_empty_stalls = 0;  // oldest op waiting on empty FIFO
  std::uint64_t lod_stalls = 0;  // oldest op waiting on SDQ: loss of decoupling
  std::uint64_t busy_cycles = 0; // cycles with at least one op in flight

  friend bool operator==(const CoreStats&, const CoreStats&) = default;
};

// Deterministic host-work counters of the issue stage.  Not part of any
// Result: they describe how the simulator got there, not what it modelled.
struct IssueWork {
  std::uint64_t issue_visits = 0;  // ready entries the select walk visited
  std::uint64_t wakeups = 0;       // consumer-count decrements by completions
};

// A branch whose redirect the front end is waiting on.
struct ResolvedBranch {
  std::int64_t trace_pos = -1;
  std::uint64_t resolve_cycle = 0;
};

class OoOCore {
 public:
  struct Queues {
    TimedFifo* ldq = nullptr;
    TimedFifo* sdq = nullptr;
    TimedFifo* scq = nullptr;
  };

  // `table`, when given, must cover every static_idx the core will see and
  // outlive the core; without it every dispatch decodes its instruction on
  // the fly (unit-test path — identical semantics, just slower).
  OoOCore(const CoreConfig& cfg, mem::MemorySystem* memsys, Queues queues,
          const StaticOpTable* table = nullptr);

  // Front-end interface -----------------------------------------------------
  [[nodiscard]] bool input_full() const noexcept {
    return input_count_ >= static_cast<std::size_t>(cfg_.input_queue);
  }
  // False (and no effect) when the input queue is full.
  bool enqueue(const DynOp& op) {
    if (input_full()) return false;
    input_slots_[(input_head_ + input_count_) & input_mask_] = op;
    ++input_count_;
    return true;
  }

  // Advances one cycle: commit, then issue, then dispatch.  Returns true
  // when the core changed state (committed, pushed, issued or dispatched
  // anything) — the event-skip scheduler's "this core is active" signal.
  bool tick(std::uint64_t now);

  // True when no work remains anywhere in the core.
  [[nodiscard]] bool drained() const noexcept {
    return input_count_ == 0 && window_count_ == 0;
  }

  // Event-skip scheduler interface --------------------------------------
  //
  // Earliest cycle strictly after `now` at which this core's own state
  // could change without external input: a functional-unit result or an
  // unpipelined unit freeing (both bounded by issued entries'
  // complete_cycle / pool release times), or a fire-and-forget prefetch
  // fill vacating a prefetch-buffer slot.  Cross-core wake-ups (queue
  // pushes/pops, new front-end input) are events of the *other* party and
  // are folded in by the machine.  kNoEvent when nothing self-scheduled
  // remains.
  [[nodiscard]] std::uint64_t next_event_cycle(std::uint64_t now) const;

  // Accounts `delta` cycles during which the machine fast-forwarded time
  // past this core while it was provably unable to change state ("frozen"
  // at the state observed at cycle `now`).  Replays exactly the per-cycle
  // stall counters a lock-stepped tick would have accrued at each skipped
  // cycle, so results stay bit-identical with the cycle-by-cycle
  // scheduler.
  void account_idle_cycles(std::uint64_t now, std::uint64_t delta);

  // Mispredicted branches that reached resolution since the last
  // clear_resolved(); the buffer keeps its capacity across clears.
  [[nodiscard]] std::span<const ResolvedBranch> resolved() const noexcept {
    return resolved_;
  }
  void clear_resolved() noexcept { resolved_.clear(); }

  [[nodiscard]] const CoreConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const CoreStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const IssueWork& work() const noexcept { return work_; }
  [[nodiscard]] std::size_t window_occupancy() const noexcept {
    return window_count_;
  }
  [[nodiscard]] std::size_t input_occupancy() const noexcept {
    return input_count_;
  }
  // Fire-and-forget prefetch fills still in flight at `now` (prefetch-only
  // cores; bounded by CoreConfig::prefetch_buffer).
  [[nodiscard]] std::size_t prefetch_occupancy(std::uint64_t now) const {
    return static_cast<std::size_t>(prefetch_slots_.busy(now));
  }

  // Forensics: why the oldest op in the core cannot move at `now`.
  // Walks the same gates as do_commit / do_issue, without mutating
  // anything.  `valid` is false when the core is drained.
  struct StallProbe {
    bool valid = false;
    diag::StallWhy why = diag::StallWhy::None;
    std::string op;                    // mnemonic of the oldest op
    std::int32_t static_idx = -1;
    std::int64_t trace_pos = -1;
    const TimedFifo* queue = nullptr;  // involved queue on pop/push stalls
  };
  [[nodiscard]] StallProbe probe_oldest_stall(std::uint64_t now) const;

  // Recomputes every incremental frontier (completion wheel, source
  // counts, consumer links, ready and unissued sets, per-queue push
  // cursors, store ring and filter, mem-op count) by brute-force window
  // scan and throws
  // std::logic_error on any disagreement.  Test-only: valid after a tick
  // (or for a drained core); the invariant tests call it every step.
  void debug_check_invariants(std::uint64_t now) const;

  void reset();

 private:
  static constexpr std::uint8_t kNoLink = 0xFF;

  // One window (RUU) entry.  Hot issue/complete fields first; the decoded
  // StaticOp is embedded by value so the issue path never chases
  // `op.inst->info()`.
  struct Entry {
    StaticOp so;
    std::uint64_t seq = 0;
    // Producer tracking: seq of in-window producer (0 = value already
    // available) per source operand.
    std::uint64_t src_seq[2] = {0, 0};
    std::uint64_t complete_cycle = 0;
    TimedFifo* pop_queue = nullptr;   // null = no queue pop
    TimedFifo* push_queue = nullptr;  // queue written at completion
    // Consumer list, threaded through the consumers themselves: a link is
    // (ring slot << 1 | source index), kNoLink ends the list.  `consumers`
    // heads the list of entries waiting on this one; `next_consumer[k]`
    // chains this entry's own source k into its producer's list.
    std::uint8_t consumers = kNoLink;
    std::uint8_t next_consumer[2] = {kNoLink, kNoLink};
    std::uint8_t pending = 0;  // producers not yet complete
    bool push_eod = false;
    bool pushed = false;  // queue write already performed
    bool issued = false;
    bool forwarded = false;  // load satisfied by an older in-window store
    // Load dispatched with no older in-window store on its line: dispatch
    // is in-order, so later stores are younger and the disambiguation
    // walk can never make it wait or forward — skip the probe for life.
    bool no_conflict = false;
    DynOp op;
  };

  // The window lives in a power-of-two ring (`slots_`), so resolving a seq
  // to its entry — the single hottest operation of the issue path — is two
  // adds and a mask, not a deque block walk.
  [[nodiscard]] const Entry* find_by_seq(std::uint64_t seq) const noexcept {
    const auto idx = seq - base_seq_;  // wraps huge for committed seqs
    if (idx >= window_count_) return nullptr;
    return &slots_[(window_head_ + idx) & window_mask_];
  }
  [[nodiscard]] Entry* find_by_seq(std::uint64_t seq) noexcept {
    const auto idx = seq - base_seq_;
    if (idx >= window_count_) return nullptr;
    return &slots_[(window_head_ + idx) & window_mask_];
  }
  // Entry at window position `i` (0 = oldest).
  [[nodiscard]] const Entry& window_at(std::size_t i) const noexcept {
    return slots_[(window_head_ + i) & window_mask_];
  }
  [[nodiscard]] Entry& window_at(std::size_t i) noexcept {
    return slots_[(window_head_ + i) & window_mask_];
  }
  [[nodiscard]] bool completed(const Entry& e, std::uint64_t now) const
      noexcept {
    return e.issued && e.complete_cycle <= now;
  }
  void wake_completed(std::uint64_t now);
  void do_commit(std::uint64_t now);
  void do_pushes(std::uint64_t now);
  void do_issue(std::uint64_t now);
  void do_dispatch(std::uint64_t now);
  void issue_one(Entry& e, std::uint64_t now);
  [[nodiscard]] FuPool* pool_ptr(PoolKind kind);
  [[nodiscard]] const FuPool* pool_ptr(PoolKind kind) const noexcept {
    return const_cast<OoOCore*>(this)->pool_ptr(kind);
  }
  [[nodiscard]] TimedFifo* queue_ptr(QueueRole role) const noexcept;
  // Per-queue index (LDQ 0, SDQ 1, otherwise 2) of the pending-push
  // cursors and of select's per-cycle pop state.
  [[nodiscard]] int queue_slot(const TimedFifo* q) const noexcept {
    return q == queues_.ldq ? 0 : q == queues_.sdq ? 1 : 2;
  }
  // Memory disambiguation against the store ring: whether the load
  // `seq` at `line` must wait for an older incomplete store, and whether a
  // completed older store forwards to it.
  struct Disambiguation {
    bool wait = false;
    bool forward = false;
  };
  [[nodiscard]] Disambiguation check_older_stores(std::uint64_t line,
                                                  std::uint64_t seq,
                                                  std::uint64_t now) const;
  // Whether an in-window store writes `line` (filter first, then the ring).
  [[nodiscard]] bool store_in_window(std::uint64_t line) const noexcept;

  CoreConfig cfg_;
  mem::MemorySystem* memsys_;
  Queues queues_;
  const StaticOpTable* table_;

  // Input queue as a fixed ring (size = cfg_.input_queue rounded up to a
  // power of two, allocated once) — enqueue/front/pop are index math, no
  // deque block management on the per-instruction path.
  std::vector<DynOp> input_slots_;
  std::size_t input_head_ = 0;
  std::size_t input_count_ = 0;
  std::size_t input_mask_ = 0;
  [[nodiscard]] const DynOp& input_front() const noexcept {
    return input_slots_[input_head_];
  }
  void input_pop() noexcept {
    input_head_ = (input_head_ + 1) & input_mask_;
    --input_count_;
  }
  // Scheduling window as a ring over `slots_` (size = cfg_.window rounded
  // up to a power of two, allocated once): front at window_head_,
  // window_count_ live entries, seqs contiguous from base_seq_.
  std::vector<Entry> slots_;
  std::size_t window_head_ = 0;
  std::size_t window_count_ = 0;
  std::size_t window_mask_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t base_seq_ = 1;  // seq of the oldest window entry
  int mem_ops_in_window_ = 0;

  // Per architectural register: seq of the most recent in-flight writer
  // (0 when the committed register file already holds the value).
  std::vector<std::uint64_t> last_writer_;

  FuPool int_alu_, int_muldiv_, fp_alu_, fp_muldiv_, mem_ports_;
  // Prefetch-only cores: one "unit" per in-flight fire-and-forget fill
  // (cfg_.prefetch_buffer of them), busy until the fill lands.
  FuPool prefetch_slots_;

  // Incremental frontiers (all invariants in docs/MACHINE.md) ------------
  //
  // (complete_cycle, ring slot) of every issued entry that has not
  // completed yet.  tick() drains every event <= now first, waking the
  // completed entries' consumers, so between ticks the earliest held event
  // is exactly the earliest future completion.
  CompletionWheel completion_events_;
  // One bit per ring slot.  `unissued_`: window entries not yet issued.
  // `ready_`: those among them whose sources are all complete.  Walking a
  // set rotated to start at window_head_ visits it in program order.
  std::uint64_t unissued_ = 0;
  std::uint64_t ready_ = 0;
  // A slot set re-indexed by age: bit i of the result is the entry at
  // window position i (0 = oldest).
  [[nodiscard]] std::uint64_t by_age(std::uint64_t slots) const noexcept;
  [[nodiscard]] std::size_t slot_of(const Entry& e) const noexcept {
    return static_cast<std::size_t>(&e - slots_.data());
  }
  // Per queue slot: seqs of entries with an unperformed queue write, in
  // program order.  Front = the oldest write do_pushes must drain next.
  WindowRing<std::uint64_t> pending_push_[3];
  // In-window stores in program order (front = oldest, the next to
  // commit), each with its 8-byte line.  `store_filter_` counts them per
  // hashed line (see filter_index): a zero count proves no in-window store
  // writes a line, so most loads never walk the ring.
  struct StoreRef {
    std::uint64_t line = 0;
    std::uint64_t seq = 0;
  };
  WindowRing<StoreRef> stores_;
  static constexpr std::size_t kStoreFilter = 256;
  [[nodiscard]] static std::size_t filter_index(std::uint64_t line) noexcept {
    return static_cast<std::size_t>(line >> 3) & (kStoreFilter - 1);
  }
  std::array<std::uint8_t, kStoreFilter> store_filter_{};

  CoreStats stats_;
  IssueWork work_;
  std::vector<ResolvedBranch> resolved_;
  bool progress_ = false;  // state changed during the current tick
};

}  // namespace hidisc::uarch
