#include "diag/deadlock.hpp"

#include <sstream>

#include "stats/json.hpp"

namespace hidisc::diag {

namespace {

const QueueSnapshot* find_queue(const DeadlockReport& rep,
                                const std::string& name) {
  for (const auto& q : rep.queues)
    if (q.name == name) return &q;
  return nullptr;
}

}  // namespace

DeadlockCause classify(DeadlockReport& rep) {
  // 1. Queue-full cycle: a producer's completed queue write cannot drain
  // because the queue is at capacity — the consumer side never pops, so
  // capacity can never free up (the sequential batch-overflow layout the
  // verifier rejects, and any dropped-pop separator bug).
  for (const auto& c : rep.cores) {
    if (!c.has_stall || c.why != StallWhy::PushFull) continue;
    const QueueSnapshot* q = find_queue(rep, c.queue);
    std::ostringstream os;
    os << c.name << " cannot drain its " << c.queue << " write ('" << c.op
       << "' at trace " << c.trace_pos << "): " << c.queue << " is full";
    if (q != nullptr)
      os << " (" << q->size << "/" << q->capacity << ", " << q->pushes
         << " pushes vs " << q->pops << " pops)";
    os << " and its consumer never pops";
    rep.cause = DeadlockCause::QueueFullCycle;
    rep.cause_detail = os.str();
    return rep.cause;
  }

  // 2. EOD mismatch: a BEOD guard waits for an End-Of-Data token on an
  // empty queue — the producer finished without a PUTEOD (or the counts
  // disagree), so the guard can never resolve.
  for (const auto& c : rep.cores) {
    if (!c.has_stall || c.why != StallWhy::PopEmpty) continue;
    if (c.op != "beod") continue;
    const QueueSnapshot* q = find_queue(rep, c.queue);
    std::ostringstream os;
    os << c.name << " 'beod' at trace " << c.trace_pos
       << " waits for an EOD token on empty " << c.queue;
    if (q != nullptr)
      os << " (" << q->pushes << " pushes, " << q->pops << " pops)";
    os << "; the producer never signalled end-of-data";
    rep.cause = DeadlockCause::EodMismatch;
    rep.cause_detail = os.str();
    return rep.cause;
  }

  // 3. Cross-stream imbalance: a consumer pops an empty queue whose
  // producer side has nothing left to push (dropped push annotation,
  // or plain pop-count > push-count in hand-decoupled code).
  for (const auto& c : rep.cores) {
    if (!c.has_stall || c.why != StallWhy::PopEmpty) continue;
    const QueueSnapshot* q = find_queue(rep, c.queue);
    std::ostringstream os;
    os << c.name << " '" << c.op << "' at trace " << c.trace_pos
       << " pops empty " << c.queue;
    if (q != nullptr)
      os << " (" << q->pushes << " pushes already consumed by " << q->pops
         << " pops)";
    os << "; the producer stream has no pending push for it";
    rep.cause = DeadlockCause::CrossStreamImbalance;
    rep.cause_detail = os.str();
    return rep.cause;
  }

  // 4. No pending event: the event set is empty and no core reports a
  // queue-level stall — the machine is wedged in a state no timed event
  // can ever change (e.g. the front end waits on something that already
  // drained away).
  if (rep.no_pending_event) {
    std::ostringstream os;
    os << "no timed event anywhere and no queue-level stall; fetched "
       << rep.fetch_pos << "/" << rep.trace_size
       << (rep.fetch_blocked ? ", front end blocked" : "") << ", "
       << rep.cmp_contexts_active << " CMP contexts active";
    rep.cause = DeadlockCause::NoPendingEvent;
    rep.cause_detail = os.str();
    return rep.cause;
  }

  // Unknown — but say what the heads were doing; an in-flight head with
  // the watchdog fired usually means the threshold is too tight for the
  // configured memory latency, not a protocol bug.
  std::ostringstream os;
  bool in_flight = false;
  for (const auto& c : rep.cores)
    if (c.has_stall && c.why == StallWhy::InFlight) {
      if (in_flight) os << "; ";
      os << c.name << " '" << c.op << "' still in flight";
      in_flight = true;
    }
  if (in_flight)
    os << " — watchdog_cycles may be too tight for this memory latency";
  else
    os << "no classified stall pattern matched";
  rep.cause = DeadlockCause::Unknown;
  rep.cause_detail = os.str();
  return rep.cause;
}

std::string DeadlockReport::summary() const {
  std::ostringstream os;
  os << "machine deadlock: no progress since cycle " << last_progress_cycle
     << " (preset " << preset << ", fetched " << fetch_pos << "/"
     << trace_size << "): " << cause_name(cause);
  if (!cause_detail.empty()) os << " — " << cause_detail;
  return os.str();
}

std::string DeadlockReport::to_json() const {
  stats::JsonWriter w;
  w.begin_object().field("kind", "deadlock").field("preset", preset);
  w.field("scheduler", scheduler).field("cause", cause_name(cause));
  w.field("cause_detail", cause_detail).field("now", now);
  w.field("last_progress_cycle", last_progress_cycle);
  w.field("watchdog_cycles", watchdog_cycles);
  w.field("no_pending_event", no_pending_event);
  w.key("fetch").begin_object().field("pos", fetch_pos);
  w.field("trace_size", trace_size).field("blocked", fetch_blocked);
  w.field("pending_branch_pos", pending_branch_pos);
  w.field("cmp_contexts_active", cmp_contexts_active).end_object();
  w.key("queues").begin_array();
  for (const QueueSnapshot& q : queues) {
    w.begin_object().field("name", q.name).field("size", q.size);
    w.field("capacity", q.capacity).field("pushes", q.pushes);
    w.field("pops", q.pops).field("has_head", q.has_head);
    if (q.has_head)
      w.field("head_ready", q.head_ready)
          .field("head_producer", q.head_producer)
          .field("head_eod", q.head_eod);
    w.end_object();
  }
  w.end_array().key("cores").begin_array();
  for (const CoreSnapshot& c : cores) {
    w.begin_object().field("name", c.name).field("drained", c.drained);
    w.field("window", c.window).field("window_capacity", c.window_capacity);
    w.field("input", c.input).field("input_capacity", c.input_capacity);
    w.field("has_stall", c.has_stall);
    if (c.has_stall)
      w.field("why", stall_why_name(c.why)).field("op", c.op)
          .field("static_idx", c.static_idx).field("trace_pos", c.trace_pos)
          .field("queue", c.queue);
    w.end_object();
  }
  w.end_array().key("recent").begin_array();
  for (const StepRecord& r : recent) {
    w.begin_object().field("cycle", r.cycle);
    w.field("kind", step_kind_name(r.kind)).field("arg", r.arg);
    w.field("fetch_pos", r.fetch_pos).field("ldq", r.ldq);
    w.field("sdq", r.sdq).field("scq", r.scq).key("window").begin_array();
    for (const auto n : r.window) w.value(n);
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::string DeadlockReport::to_text() const {
  std::ostringstream os;
  os << summary() << "\n\n";
  os << "scheduler " << scheduler << ", watchdog " << watchdog_cycles
     << " cycles, stuck at cycle " << now
     << (no_pending_event ? " (no pending event)" : "") << "\n";
  os << "front end: fetched " << fetch_pos << "/" << trace_size
     << (fetch_blocked ? ", blocked" : "");
  if (pending_branch_pos >= 0)
    os << " on branch at trace " << pending_branch_pos;
  if (cmp_contexts_active > 0)
    os << "; " << cmp_contexts_active << " CMP contexts active";
  os << "\n\nqueues:\n";
  for (const auto& q : queues) {
    os << "  " << q.name << "  " << q.size << "/" << q.capacity
       << " occupied, " << q.pushes << " pushes / " << q.pops << " pops";
    if (q.has_head)
      os << "; head ready at cycle " << q.head_ready << " from trace "
         << q.head_producer << (q.head_eod ? " [EOD]" : "");
    os << "\n";
  }
  os << "\ncores:\n";
  for (const auto& c : cores) {
    os << "  " << c.name << "  window " << c.window << "/"
       << c.window_capacity << ", input " << c.input << "/"
       << c.input_capacity;
    if (c.drained) {
      os << "  (drained)";
    } else if (c.has_stall) {
      os << "  oldest op '" << c.op << "' (static " << c.static_idx
         << ", trace " << c.trace_pos << ") " << stall_why_name(c.why);
      if (!c.queue.empty()) os << " on " << c.queue;
    }
    os << "\n";
  }
  if (!recent.empty()) {
    os << "\nlast " << recent.size() << " recorded transitions:\n";
    for (const auto& r : recent) {
      os << "  cycle " << r.cycle << "  " << step_kind_name(r.kind);
      if (r.kind == StepKind::Skip) os << " +" << r.arg;
      os << "  fetch " << r.fetch_pos << "  LDQ " << r.ldq << " SDQ "
         << r.sdq << " SCQ " << r.scq << "  win [" << r.window[0] << " "
         << r.window[1] << " " << r.window[2] << " " << r.window[3]
         << "]\n";
    }
  }
  return os.str();
}

}  // namespace hidisc::diag
