#include "serve/service.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "diag/process.hpp"
#include "lab/fingerprint.hpp"
#include "lab/serialize.hpp"
#include "serve/chaos.hpp"
#include "serve/journal.hpp"
#include "serve/transport.hpp"
#include "serve/worker.hpp"
#include "stats/json.hpp"

namespace hidisc::serve {

namespace {

using Clock = std::chrono::steady_clock;

// Self-pipe: signal handlers write the signal number, the poll loop
// reads it.  Async-signal-safe by construction.
int g_signal_wr = -1;

void on_signal(int sig) {
  const unsigned char b = static_cast<unsigned char>(sig);
  if (g_signal_wr >= 0) {
    const ssize_t ignored = ::write(g_signal_wr, &b, 1);
    (void)ignored;
  }
}

// One cell-shaped unit of computation, identified by its logical key and
// subscribed to by (plan, cell) pairs.  Plans — not clients — subscribe:
// a client death detaches its plans but the subscriptions (and the
// journal records they feed) survive.
struct Subscriber {
  std::uint64_t plan = 0;
  std::size_t cell = 0;
};

enum class JobState : std::uint8_t { Queued, Running };

struct Job {
  std::uint64_t id = 0;
  std::string base_key;    // logical cell key (memoization identity)
  std::string unique_key;  // base_key, or refresh-disambiguated variant
  JobSpec spec;            // what a worker needs to run it
  JobState state = JobState::Queued;
  int attempts = 0;             // crash/timeout re-dispatches so far
  std::int64_t not_before = 0;  // backoff gate, ms on the service clock
  std::int64_t deadline = 0;    // running-job timeout, 0 = none
  int worker = -1;
  std::vector<Subscriber> subs;
};

// Service-level plan state: owned by the daemon, not the client, so it
// survives a disconnect (client == -1) and can be re-attached by token.
struct PlanState {
  std::uint64_t id = 0;
  std::string token;  // resume handle, journaled with the plan
  PlanRequest req;
  int client = -1;  // attached client id; -1 = detached
  std::size_t cells = 0;
  std::size_t remaining = 0;
  std::size_t simulated = 0;
  std::size_t cached = 0;
  std::size_t deduped = 0;
  std::size_t failed = 0;
  std::int64_t start_ms = 0;
  bool recovered = false;  // re-materialized from the journal
  std::vector<bool> done;
  // Exact CellDone payload per completed cell, kept for idempotent
  // redelivery after a ResumePlan (the daemon cannot know which
  // deliveries the old connection actually carried).
  std::vector<std::string> payloads;
  // A plan that completes while detached stays resumable: its PlanDone
  // payload and completion time, until its client resumes it or the
  // client idle timeout passes.
  std::string done_payload;
  std::int64_t finished_ms = 0;
};

struct ClientState {
  int id = -1;
  FaultConn conn;
  bool dead = false;
  std::int64_t last_ms = 0;  // last inbound activity (frames or Pings)
  std::set<std::uint64_t> plans;  // attached plan ids
};

struct WorkerProc {
  pid_t pid = -1;
  Conn conn;
  bool busy = false;
  std::uint64_t job = 0;
  std::uint64_t jobs_done = 0;
};

struct Counters {
  std::uint64_t clients_total = 0;
  std::uint64_t plans_submitted = 0;
  std::uint64_t plans_completed = 0;
  std::uint64_t cells_total = 0;
  std::uint64_t jobs_done = 0;
  std::uint64_t jobs_failed = 0;  // infrastructure failure after retries
  std::uint64_t cells_failed = 0; // deterministic cell errors (prep/sim/..)
  std::uint64_t retries = 0;
  std::uint64_t dedup_hits = 0;   // subscriptions attached to a live job
  std::uint64_t mem_hits = 0;     // served from the completed-job memo
  std::uint64_t disk_cache_hits = 0;
  std::uint64_t cross_client_shared_jobs = 0;
  std::uint64_t worker_restarts = 0;
  std::uint64_t worker_timeouts = 0;
  // Pipeline node work aggregated over worker job completions (each job
  // is a single-cell pipeline run; dedup/memo deliveries add nothing).
  std::uint64_t compile_nodes_rebuilt = 0;
  std::uint64_t trace_nodes_hit = 0;
  std::uint64_t trace_nodes_rebuilt = 0;
  // Per-cell simulation latency (simulated cells only).
  std::uint64_t lat_count = 0;
  double lat_total_ms = 0, lat_min_ms = 0, lat_max_ms = 0;
  // Crash recovery + reconnect-resume (PR-9).
  std::uint64_t journal_records_replayed = 0;
  std::uint64_t journal_bad_bytes = 0;
  std::uint64_t journal_plans_recovered = 0;
  std::uint64_t journal_cells_recovered = 0;  // done records honored
  std::uint64_t resumes = 0;
  std::uint64_t resume_unknown_token = 0;
  std::uint64_t clients_dropped_idle = 0;
  std::uint64_t clients_dropped_slow = 0;
};

std::string logical_key(const lab::Cell& c) {
  return c.workload.id() + "|" + lab::describe(c.compile) + "|" +
         machine::preset_name(c.preset) + "|" + lab::describe(c.config);
}

class Service {
 public:
  explicit Service(const ServeOptions& opt) : opt_(opt) {}
  int run();

 private:
  void log(const char* fmt, ...) {
    if (opt_.quiet) return;
    va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "hiserved: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
  }

  [[nodiscard]] std::int64_t now_ms() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

  [[nodiscard]] std::string journal_path() const;
  [[nodiscard]] std::string make_token(std::uint64_t plan_id) const;
  void recover_from_journal();
  void spawn_worker(std::size_t slot);
  void worker_died(std::size_t slot);
  void requeue_or_fail(std::uint64_t job_id, const std::string& why);
  void handle_worker_frame(std::size_t slot, const Frame& f);
  void handle_client_frame(ClientState& c, const Frame& f);
  void submit_plan(ClientState& c, const PlanRequest& req);
  void resume_plan(ClientState& c, const KvMap& kv);
  void enqueue_cells(std::uint64_t plan_id, const lab::ExperimentPlan& plan,
                     const std::vector<bool>* recovered_done);
  void complete_job(Job& job, const lab::CellResult& res);
  void deliver_cell(std::uint64_t plan_id, std::size_t cell,
                    const lab::CellResult& res, bool cached, bool dedup);
  bool queue_to_client(ClientState& c, const Frame& f);
  void finish_plan(ClientState& c, std::uint64_t plan_id);
  void reap_idle_clients();
  void drop_dead_clients();
  void schedule();
  void check_timeouts();
  [[nodiscard]] std::int64_t next_wakeup() const;
  [[nodiscard]] std::string stats_json() const;
  void write_stats_file();

  ServeOptions opt_;
  Clock::time_point start_ = Clock::now();
  FaultListener listener_;
  FaultPlan fault_plan_;
  JobJournal journal_;
  int sig_rd_ = -1, sig_wr_ = -1;
  bool draining_ = false;

  std::vector<WorkerProc> workers_;
  std::map<int, ClientState> clients_;
  std::map<std::uint64_t, PlanState> plans_;
  std::map<std::string, std::uint64_t> plans_by_token_;
  std::map<std::uint64_t, Job> jobs_;
  std::map<std::string, std::uint64_t> jobs_by_key_;  // unique_key -> id
  // Completed-cell memo, keyed by logical cell key: the in-process layer
  // of the pub-sub result store (the on-disk ResultCache is the
  // cross-process layer).  Late joiners are served from here without
  // touching a worker.
  std::map<std::string, lab::CellResult> completed_;

  int next_client_id_ = 1;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t next_plan_id_ = 1;
  std::uint64_t assigns_ = 0;
  std::uint64_t token_salt_ = 0;
  Counters n_;
};

std::string Service::journal_path() const {
  if (!opt_.journal) return "";
  if (!opt_.journal_file.empty()) return opt_.journal_file;
  if (!opt_.cache_dir.empty()) return opt_.cache_dir + "/journal.hsjl";
  return "";
}

std::string Service::make_token(std::uint64_t plan_id) const {
  // pid + boot-time salt keeps tokens from colliding across daemon
  // restarts (a stale token must dereference to "unknown", never to a
  // different plan); plan_id keeps them unique within one daemon.
  char buf[48];
  std::snprintf(buf, sizeof buf, "%016llx-%llu",
                static_cast<unsigned long long>(
                    token_salt_ ^ (plan_id * 0x9E3779B97F4A7C15ull)),
                static_cast<unsigned long long>(plan_id));
  return buf;
}

void Service::recover_from_journal() {
  const std::string path = journal_path();
  if (path.empty()) return;
  JournalReplay rep = JobJournal::replay(path);
  journal_ = JobJournal(path);
  if (!journal_.active() && !rep.plans.empty())
    log("journal %s is locked by another daemon; recovery skipped",
        path.c_str());
  if (!journal_.active()) return;
  n_.journal_records_replayed = rep.records;
  n_.journal_bad_bytes = rep.bad_bytes;
  if (!rep.quarantine.empty())
    log("journal: quarantined %llu damaged tail bytes to %s",
        static_cast<unsigned long long>(rep.bad_bytes),
        rep.quarantine.c_str());
  // The replayed log is consumed: live plans (including the recovered
  // ones) are re-recorded below, so the journal never grows across
  // restarts.
  journal_.truncate_all();
  for (JournalPlan& jp : rep.plans) {
    if (jp.complete) continue;
    lab::ExperimentPlan plan;
    try {
      plan = materialize_plan(jp.req);
    } catch (const std::exception& e) {
      log("journal: cannot recover plan %s (%s): %s", jp.token.c_str(),
          jp.req.plan.c_str(), e.what());
      continue;
    }
    if (plan.cells.size() != jp.cells) {
      log("journal: plan %s (%s) is %zu cells now, was %zu; dropped",
          jp.token.c_str(), jp.req.plan.c_str(), plan.cells.size(), jp.cells);
      continue;
    }
    const std::uint64_t plan_id = next_plan_id_++;
    PlanState ps;
    ps.id = plan_id;
    ps.token = jp.token;
    ps.req = jp.req;
    ps.client = -1;  // detached until a ResumePlan claims the token
    ps.cells = plan.cells.size();
    ps.remaining = plan.cells.size();
    ps.start_ms = now_ms();
    ps.recovered = true;
    ps.done.assign(ps.cells, false);
    ps.payloads.assign(ps.cells, std::string());
    plans_by_token_[ps.token] = plan_id;
    plans_.emplace(plan_id, std::move(ps));
    ++n_.plans_submitted;
    ++n_.journal_plans_recovered;
    n_.journal_cells_recovered += jp.done_count();
    n_.cells_total += plan.cells.size();
    journal_.record_plan(jp.token, jp.req, plan.cells.size());
    log("journal: recovered plan %s (%s/%s): %zu cells, %zu already done",
        jp.token.c_str(), jp.req.plan.c_str(), jp.req.scale.c_str(),
        plan.cells.size(), jp.done_count());
    // Every cell is re-enqueued; journal-done cells run as non-refresh
    // jobs even in a refresh plan, so they come straight back from the
    // shared ResultCache (zero re-simulation) instead of re-running.
    enqueue_cells(plan_id, plan, &jp.done);
  }
}

void Service::spawn_worker(std::size_t slot) {
  SocketPair sp = make_socketpair();
  const pid_t pid = ::fork();
  if (pid < 0) throw TransportError("hiserved: fork failed");
  if (pid == 0) {
    // Worker child: drop every daemon fd except our socketpair end, then
    // serve jobs until EOF.  PDEATHSIG guarantees no orphan workers
    // outlive a SIGKILLed daemon.
    sp.parent.close();
    listener_.abandon();  // close() would unlink the parent's socket file
    if (sig_rd_ >= 0) ::close(sig_rd_);
    if (sig_wr_ >= 0) ::close(sig_wr_);
    for (auto& [id, c] : clients_) c.conn.close();
    for (auto& w : workers_) w.conn.close();
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::_exit(worker_main(std::move(sp.child), opt_.cache_dir));
  }
  sp.child.close();
  WorkerProc& w = workers_[slot];
  w.pid = pid;
  w.conn = std::move(sp.parent);
  w.conn.set_nonblocking(true);
  w.busy = false;
  w.job = 0;
  log("worker %d started (slot %zu)", static_cast<int>(pid), slot);
}

void Service::worker_died(std::size_t slot) {
  WorkerProc& w = workers_[slot];
  if (w.pid < 0) return;
  int status = 0;
  ::waitpid(w.pid, &status, 0);
  const std::string why = diag::describe_wait_status(status);
  log("worker %d died: %s%s", static_cast<int>(w.pid), why.c_str(),
      w.busy ? " (job in flight)" : "");
  const std::uint64_t orphan = w.busy ? w.job : 0;
  w.conn.close();
  w.pid = -1;
  w.busy = false;
  w.job = 0;
  if (orphan != 0) requeue_or_fail(orphan, why);
  if (!draining_) {
    spawn_worker(slot);
    ++n_.worker_restarts;
  }
  schedule();
}

void Service::requeue_or_fail(std::uint64_t job_id, const std::string& why) {
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  Job& job = it->second;
  ++job.attempts;
  job.worker = -1;
  job.deadline = 0;
  if (job.attempts <= opt_.max_retries) {
    job.state = JobState::Queued;
    job.not_before = now_ms() + (static_cast<std::int64_t>(opt_.backoff_ms)
                                 << (job.attempts - 1));
    ++n_.retries;
    log("job %llu retry %d/%d after worker %s (backoff %lld ms)",
        static_cast<unsigned long long>(job.id), job.attempts,
        opt_.max_retries, why.c_str(),
        static_cast<long long>(job.not_before - now_ms()));
    return;
  }
  lab::CellResult res;
  res.error = "worker died (" + why + ") " + std::to_string(job.attempts) +
              " times; job abandoned";
  res.error_class = "worker";
  ++n_.jobs_failed;
  log("job %llu failed permanently after %d attempts",
      static_cast<unsigned long long>(job.id), job.attempts);
  complete_job(job, res);
}

void Service::complete_job(Job& job, const lab::CellResult& res) {
  // Memoize by logical key — including deterministic cell failures, so a
  // resubmitted deadlocking cell reports instantly instead of burning a
  // watchdog timeout per client.  Infrastructure failures ("worker") are
  // NOT memoized: a healthier service should retry them.
  if (res.error_class != "worker") completed_[job.base_key] = res;
  std::set<int> distinct;
  for (const auto& sub : job.subs) {
    const auto pit = plans_.find(sub.plan);
    if (pit != plans_.end() && pit->second.client >= 0)
      distinct.insert(pit->second.client);
  }
  if (distinct.size() > 1) ++n_.cross_client_shared_jobs;
  if (!res.ok() && res.error_class != "worker") ++n_.cells_failed;
  for (std::size_t i = 0; i < job.subs.size(); ++i)
    deliver_cell(job.subs[i].plan, job.subs[i].cell, res, res.from_cache,
                 i > 0);
  jobs_by_key_.erase(job.unique_key);
  jobs_.erase(job.id);
}

bool Service::queue_to_client(ClientState& c, const Frame& f) {
  if (c.dead || !c.conn.valid()) return false;
  c.conn.queue_frame(f);
  if (!c.conn.valid()) {  // injected drop closed the fd
    c.dead = true;
    return false;
  }
  if (c.conn.queued_bytes() > opt_.client_queue_max) {
    log("client %d dropped: outbound queue over %zu bytes (slow peer)", c.id,
        opt_.client_queue_max);
    ++n_.clients_dropped_slow;
    c.dead = true;
    return false;
  }
  if (!c.conn.flush_queue()) {
    c.dead = true;
    return false;
  }
  return true;
}

void Service::deliver_cell(std::uint64_t plan_id, std::size_t cell,
                           const lab::CellResult& res, bool cached,
                           bool dedup) {
  const auto pit = plans_.find(plan_id);
  if (pit == plans_.end()) return;
  PlanState& ps = pit->second;
  if (cell >= ps.cells || ps.done[cell]) return;  // idempotence guard

  KvMap kv = cell_result_to_kv(res);
  kv["cell"] = std::to_string(cell);
  kv["cached"] = (cached || res.from_cache) ? "1" : "0";
  kv["dedup"] = dedup ? "1" : "0";
  if (dedup) {
    // The node work behind this result was already reported to whichever
    // delivery ran it; zero the provenance so clients can sum freely.
    kv["n.compile"] = "0";
    kv["n.trace_hit"] = "0";
    kv["n.trace"] = "0";
  }
  ps.done[cell] = true;
  ps.payloads[cell] = kv_encode(kv);
  journal_.record_cell(ps.token, cell);

  if (!res.ok()) ++ps.failed;
  else if (cached || res.from_cache) ++ps.cached;
  else ++ps.simulated;
  if (dedup) ++ps.deduped;
  if (ps.remaining > 0) --ps.remaining;

  const auto cit = clients_.find(ps.client);
  ClientState* client =
      (cit != clients_.end() && !cit->second.dead) ? &cit->second : nullptr;
  if (client)
    queue_to_client(*client, Frame{MsgType::CellDone, ps.payloads[cell]});

  if (ps.remaining == 0) {
    KvMap done;
    done["cells"] = std::to_string(ps.cells);
    done["simulated"] = std::to_string(ps.simulated);
    done["cached"] = std::to_string(ps.cached);
    done["dedup"] = std::to_string(ps.deduped);
    done["failed"] = std::to_string(ps.failed);
    done["wall_ms"] = stats::format_double(
        static_cast<double>(now_ms() - ps.start_ms));
    ps.done_payload = kv_encode(done);
    journal_.record_done(ps.token);
    ++n_.plans_completed;
    log("plan %llu (%s) done: %zu cells, %zu simulated, %zu cached, %zu "
        "failed%s",
        static_cast<unsigned long long>(ps.id), ps.token.c_str(), ps.cells,
        ps.simulated, ps.cached, ps.failed,
        ps.client < 0 ? " (detached)" : "");
    if (client) finish_plan(*client, plan_id);
    else ps.finished_ms = now_ms();
  }
}

void Service::finish_plan(ClientState& c, std::uint64_t plan_id) {
  const auto pit = plans_.find(plan_id);
  queue_to_client(c, Frame{MsgType::PlanDone, pit->second.done_payload});
  c.plans.erase(plan_id);
  plans_by_token_.erase(pit->second.token);
  plans_.erase(pit);
}

void Service::enqueue_cells(std::uint64_t plan_id,
                            const lab::ExperimentPlan& plan,
                            const std::vector<bool>* recovered_done) {
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    // `ps` may have been erased by a completing memo-hit delivery below,
    // so look it up fresh each iteration.
    const auto pit = plans_.find(plan_id);
    if (pit == plans_.end()) return;
    const PlanRequest req = pit->second.req;
    // Journal-done cells of a recovered refresh plan already re-simulated
    // before the crash; fetching them from the cache IS the recovery.
    const bool refresh_this =
        req.refresh && !(recovered_done && (*recovered_done)[i]);
    const std::string base = logical_key(plan.cells[i]);
    // A refresh plan must re-simulate, so its jobs get plan-unique keys;
    // results still land in the shared memo/cache under the base key.
    const std::string unique =
        refresh_this ? base + "|refresh#" + std::to_string(plan_id) : base;
    if (!refresh_this) {
      const auto hit = completed_.find(base);
      if (hit != completed_.end()) {
        ++n_.mem_hits;
        deliver_cell(plan_id, i, hit->second, /*cached=*/true, /*dedup=*/true);
        continue;
      }
    }
    const auto jit = jobs_by_key_.find(unique);
    if (jit != jobs_by_key_.end()) {
      jobs_.at(jit->second).subs.push_back(Subscriber{plan_id, i});
      ++n_.dedup_hits;
      continue;
    }
    Job job;
    job.id = next_job_id_++;
    job.base_key = base;
    job.unique_key = unique;
    job.spec.job_id = job.id;
    job.spec.plan = req;
    job.spec.plan.refresh = refresh_this;
    job.spec.cell = i;
    job.subs.push_back(Subscriber{plan_id, i});
    jobs_by_key_[unique] = job.id;
    jobs_.emplace(job.id, std::move(job));
  }
}

void Service::submit_plan(ClientState& c, const PlanRequest& req) {
  if (draining_) {
    queue_to_client(c, Frame{MsgType::Error,
                             kv_encode({{"message",
                                         "service is draining; resubmit to "
                                         "the next daemon"}})});
    return;
  }
  lab::ExperimentPlan plan;
  try {
    plan = materialize_plan(req);
  } catch (const std::exception& e) {
    std::string msg = e.what();
    if (msg.find("plan") == std::string::npos)
      msg = "unknown plan '" + req.plan + "'";
    std::string names;
    for (const auto& name : lab::plan_names())
      names += (names.empty() ? "" : " ") + name;
    queue_to_client(
        c, Frame{MsgType::Error,
                 kv_encode({{"message", msg}, {"plans", names}})});
    return;
  }

  const std::uint64_t plan_id = next_plan_id_++;
  PlanState ps;
  ps.id = plan_id;
  ps.token = make_token(plan_id);
  ps.req = req;
  ps.client = c.id;
  ps.cells = plan.cells.size();
  ps.remaining = plan.cells.size();
  ps.start_ms = now_ms();
  ps.done.assign(ps.cells, false);
  ps.payloads.assign(ps.cells, std::string());
  const std::string token = ps.token;
  plans_by_token_[token] = plan_id;
  plans_.emplace(plan_id, std::move(ps));
  c.plans.insert(plan_id);
  ++n_.plans_submitted;
  n_.cells_total += plan.cells.size();
  journal_.record_plan(token, req, plan.cells.size());
  queue_to_client(
      c, Frame{MsgType::PlanAccepted,
               kv_encode({{"cells", std::to_string(plan.cells.size())},
                          {"plan_id", std::to_string(plan_id)},
                          {"token", token}})});
  log("client %d submitted plan %s/%s: %zu cells%s (token %s)", c.id,
      req.plan.c_str(), req.scale.c_str(), plan.cells.size(),
      req.refresh ? " (refresh)" : "", token.c_str());

  enqueue_cells(plan_id, plan, nullptr);
  schedule();
}

void Service::resume_plan(ClientState& c, const KvMap& kv) {
  const std::string token = kv_get(kv, "token", "");
  const auto tit = plans_by_token_.find(token);
  if (tit == plans_by_token_.end()) {
    // Completed while detached longer than the client idle timeout, lost
    // to a journal gap, or simply stale:
    // the client should fall back to a fresh submit — warm cells come
    // back from the memo/cache, so the fallback is cheap.
    ++n_.resume_unknown_token;
    queue_to_client(
        c, Frame{MsgType::Error,
                 kv_encode({{"code", "resubmit"},
                            {"message", "unknown plan token '" + token +
                                            "'; resubmit the plan"}})});
    return;
  }
  const std::uint64_t plan_id = tit->second;
  PlanState& ps = plans_.at(plan_id);
  if (ps.client >= 0 && ps.client != c.id) {
    const auto old = clients_.find(ps.client);
    if (old != clients_.end()) old->second.plans.erase(plan_id);
  }
  ps.client = c.id;
  c.plans.insert(plan_id);
  ++n_.resumes;
  std::size_t done_cells = 0;
  for (const bool d : ps.done) done_cells += d ? 1 : 0;
  log("client %d resumed plan %llu (%s): %zu/%zu cells done", c.id,
      static_cast<unsigned long long>(plan_id), token.c_str(), done_cells,
      ps.cells);
  queue_to_client(
      c, Frame{MsgType::ResumeOk,
               kv_encode({{"cells", std::to_string(ps.cells)},
                          {"done", std::to_string(done_cells)},
                          {"plan_id", std::to_string(plan_id)},
                          {"token", token}})});
  // Redeliver every completed cell verbatim; the client's received-set
  // makes duplicates harmless, and cells the old connection never
  // carried arrive here for the first time.
  for (std::size_t i = 0; i < ps.cells; ++i) {
    if (!ps.done[i]) continue;
    if (!queue_to_client(c, Frame{MsgType::CellDone, ps.payloads[i]})) return;
  }
  if (ps.remaining == 0) finish_plan(c, plan_id);
  schedule();
}

void Service::handle_client_frame(ClientState& c, const Frame& f) {
  switch (f.type) {
    case MsgType::Hello: {
      KvMap kv;
      kv["proto"] = std::to_string(kProtocolVersion);
      kv["pid"] = std::to_string(::getpid());
      kv["workers"] = std::to_string(workers_.size());
      queue_to_client(c, Frame{MsgType::HelloOk, kv_encode(kv)});
      return;
    }
    case MsgType::SubmitPlan:
      submit_plan(c, PlanRequest::from_kv(kv_parse(f.payload)));
      return;
    case MsgType::ResumePlan:
      resume_plan(c, kv_parse(f.payload));
      return;
    case MsgType::Ping:
      queue_to_client(c, Frame{MsgType::Pong, ""});
      return;
    case MsgType::Pong:
      return;  // heartbeat answer; last_ms already updated by the read
    case MsgType::GetStats:
      queue_to_client(c, Frame{MsgType::Stats, stats_json()});
      return;
    default:
      queue_to_client(
          c, Frame{MsgType::Error,
                   kv_encode({{"message",
                               std::string("unexpected frame ") +
                                   msg_type_name(f.type)}})});
      return;
  }
}

void Service::handle_worker_frame(std::size_t slot, const Frame& f) {
  WorkerProc& w = workers_[slot];
  if (f.type == MsgType::Pong) return;
  if (f.type != MsgType::JobDone) return;
  const KvMap kv = kv_parse(f.payload);
  const std::uint64_t job_id = kv_get_u64(kv, "job");
  w.busy = false;
  w.job = 0;
  ++w.jobs_done;
  const auto it = jobs_.find(job_id);
  // A stale completion (job already retried elsewhere or abandoned) is
  // dropped; the authoritative result is whichever completion owns the
  // job entry.
  if (it == jobs_.end() || it->second.worker != static_cast<int>(slot))
    return;
  lab::CellResult res = cell_result_from_kv(kv);
  ++n_.jobs_done;
  n_.compile_nodes_rebuilt += res.compile_nodes_rebuilt;
  n_.trace_nodes_hit += res.trace_nodes_hit;
  n_.trace_nodes_rebuilt += res.trace_nodes_rebuilt;
  if (res.from_cache) {
    ++n_.disk_cache_hits;
  } else if (res.ok()) {
    ++n_.lat_count;
    n_.lat_total_ms += res.wall_ms;
    if (n_.lat_count == 1 || res.wall_ms < n_.lat_min_ms)
      n_.lat_min_ms = res.wall_ms;
    if (res.wall_ms > n_.lat_max_ms) n_.lat_max_ms = res.wall_ms;
  }
  complete_job(it->second, res);
  schedule();
}

void Service::schedule() {
  const std::int64_t now = now_ms();
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    WorkerProc& w = workers_[slot];
    if (w.pid < 0 || w.busy) continue;
    // FIFO by job id over ready queued jobs: deterministic and fair.
    Job* pick = nullptr;
    for (auto& [id, job] : jobs_) {
      if (job.state != JobState::Queued || job.not_before > now) continue;
      pick = &job;
      break;
    }
    if (!pick) return;
    pick->state = JobState::Running;
    pick->worker = static_cast<int>(slot);
    pick->deadline =
        opt_.job_timeout_s > 0
            ? now + static_cast<std::int64_t>(opt_.job_timeout_s * 1000.0)
            : 0;
    w.busy = true;
    w.job = pick->id;
    try {
      w.conn.send_frame(Frame{MsgType::Job, kv_encode(pick->spec.to_kv())});
    } catch (const std::exception&) {
      worker_died(slot);
      return;  // worker_died() reschedules
    }
    ++assigns_;
    if (opt_.chaos_kill_at_assign != 0 &&
        assigns_ == opt_.chaos_kill_at_assign) {
      log("chaos: SIGKILL worker %d on assignment %llu",
          static_cast<int>(w.pid),
          static_cast<unsigned long long>(assigns_));
      ::kill(w.pid, SIGKILL);
    }
  }
}

void Service::check_timeouts() {
  const std::int64_t now = now_ms();
  for (auto& [id, job] : jobs_) {
    if (job.state != JobState::Running || job.deadline == 0 ||
        now < job.deadline)
      continue;
    job.deadline = 0;  // one kill per expiry; the death path requeues
    ++n_.worker_timeouts;
    const WorkerProc& w = workers_[static_cast<std::size_t>(job.worker)];
    log("job %llu timed out; killing worker %d",
        static_cast<unsigned long long>(id), static_cast<int>(w.pid));
    if (w.pid > 0) ::kill(w.pid, SIGKILL);
  }
}

std::int64_t Service::next_wakeup() const {
  std::int64_t next = -1;
  const auto consider = [&](std::int64_t t) {
    if (t > 0 && (next < 0 || t < next)) next = t;
  };
  for (const auto& [id, job] : jobs_) {
    if (job.state == JobState::Running) consider(job.deadline);
    else consider(job.not_before);
  }
  if (opt_.client_idle_timeout_s > 0)
    for (const auto& [id, c] : clients_)
      if (!c.dead)
        consider(c.last_ms +
                 static_cast<std::int64_t>(opt_.client_idle_timeout_s) * 1000);
  return next;
}

std::string Service::stats_json() const {
  std::size_t queued = 0, running = 0;
  for (const auto& [id, job] : jobs_)
    (job.state == JobState::Queued ? queued : running)++;
  std::size_t connected = 0;
  for (const auto& [id, c] : clients_)
    if (!c.dead) ++connected;
  std::size_t detached_plans = 0;
  for (const auto& [id, p] : plans_)
    if (p.client < 0) ++detached_plans;

  stats::JsonWriter w;
  w.begin_object().field("uptime_ms", now_ms()).field("draining", draining_);
  w.key("workers").begin_array();
  for (const WorkerProc& wp : workers_)
    w.begin_object().field("pid", wp.pid).field("busy", wp.busy)
        .field("jobs", wp.jobs_done).end_object();
  w.end_array();
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"worker_restarts", n_.worker_restarts},
      {"worker_timeouts", n_.worker_timeouts}, {"clients_connected", connected},
      {"clients_total", n_.clients_total},
      {"clients_dropped_idle", n_.clients_dropped_idle},
      {"clients_dropped_slow", n_.clients_dropped_slow},
      {"plans_submitted", n_.plans_submitted},
      {"plans_completed", n_.plans_completed}, {"plans_active", plans_.size()},
      {"plans_detached", detached_plans}, {"cells_total", n_.cells_total},
      {"jobs_queued", queued}, {"jobs_running", running},
      {"jobs_done", n_.jobs_done}, {"jobs_failed", n_.jobs_failed},
      {"cells_failed", n_.cells_failed}, {"retries", n_.retries},
      {"dedup_hits", n_.dedup_hits}, {"mem_hits", n_.mem_hits},
      {"disk_cache_hits", n_.disk_cache_hits},
      {"cross_client_shared_jobs", n_.cross_client_shared_jobs},
      {"compile_nodes_rebuilt", n_.compile_nodes_rebuilt},
      {"trace_nodes_hit", n_.trace_nodes_hit},
      {"trace_nodes_rebuilt", n_.trace_nodes_rebuilt},
      {"journal_records_replayed", n_.journal_records_replayed},
      {"journal_bad_bytes", n_.journal_bad_bytes},
      {"journal_plans_recovered", n_.journal_plans_recovered},
      {"journal_cells_recovered", n_.journal_cells_recovered},
      {"resumes", n_.resumes},
      {"resume_unknown_token", n_.resume_unknown_token},
      {"chaos_conns", fault_plan_.conns()},
      {"chaos_drops_injected", fault_plan_.drops_injected()},
      {"chaos_corruptions_injected", fault_plan_.corruptions_injected()},
      {"chaos_stalls_injected", fault_plan_.stalls_injected()}};
  for (const auto& [name, count] : counters) w.field(name, count);
  const double avg =
      n_.lat_count ? n_.lat_total_ms / static_cast<double>(n_.lat_count) : 0.0;
  w.key("cell_latency_ms").begin_object().field("count", n_.lat_count);
  w.field("total", n_.lat_total_ms).field("min", n_.lat_min_ms);
  w.field("max", n_.lat_max_ms).field("avg", avg).end_object().end_object();
  return w.str();
}

void Service::write_stats_file() {
  if (opt_.stats_file.empty()) return;
  std::ofstream out(opt_.stats_file, std::ios::trunc);
  if (!out) {
    log("cannot write stats file %s", opt_.stats_file.c_str());
    return;
  }
  out << stats_json();
}

void Service::reap_idle_clients() {
  if (opt_.client_idle_timeout_s <= 0) return;
  const std::int64_t cutoff =
      now_ms() - static_cast<std::int64_t>(opt_.client_idle_timeout_s) * 1000;
  for (auto& [id, c] : clients_) {
    if (c.dead || c.last_ms > cutoff) continue;
    log("client %d dropped: idle for %d s", id, opt_.client_idle_timeout_s);
    ++n_.clients_dropped_idle;
    c.dead = true;
  }
  // A plan that completed detached waits as long as an idle client would.
  std::erase_if(plans_, [&](const auto& entry) {
    const PlanState& ps = entry.second;
    if (ps.finished_ms == 0 || ps.finished_ms > cutoff) return false;
    plans_by_token_.erase(ps.token);
    return true;
  });
}

void Service::drop_dead_clients() {
  for (auto it = clients_.begin(); it != clients_.end();) {
    if (!it->second.dead) {
      ++it;
      continue;
    }
    // Detach — don't cancel — this client's plans: the jobs keep
    // running, results keep landing in the memo/journal, and a
    // reconnecting client re-attaches by token (the space/time
    // decoupling of the pub-sub model).
    for (const std::uint64_t plan_id : it->second.plans) {
      const auto pit = plans_.find(plan_id);
      if (pit != plans_.end() && pit->second.client == it->first)
        pit->second.client = -1;
    }
    log("client %d disconnected%s", it->first,
        it->second.plans.empty() ? "" : " (plans detached)");
    it = clients_.erase(it);
  }
}

int Service::run() {
  if (const auto spec = chaos_spec_from(opt_.chaos_net)) {
    fault_plan_.arm(*spec);
    log("chaos: network fault injection armed (seed %llu)",
        static_cast<unsigned long long>(spec->seed));
  }
  listener_ = FaultListener::listen(opt_.endpoint, &fault_plan_);
  token_salt_ = lab::fnv1a64(opt_.endpoint + "|" +
                             std::to_string(::getpid()) + "|" +
                             std::to_string(::time(nullptr)));

  int pipefd[2];
  if (::pipe(pipefd) != 0)
    throw TransportError("hiserved: pipe failed");
  for (const int fd : {pipefd[0], pipefd[1]}) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
  sig_rd_ = pipefd[0];
  sig_wr_ = pipefd[1];
  g_signal_wr = sig_wr_;
  ::signal(SIGPIPE, SIG_IGN);
  ::signal(SIGTERM, on_signal);
  ::signal(SIGINT, on_signal);

  workers_.resize(static_cast<std::size_t>(std::max(1, opt_.workers)));
  for (std::size_t i = 0; i < workers_.size(); ++i) spawn_worker(i);
  log("listening on %s with %zu workers (cache: %s)", opt_.endpoint.c_str(),
      workers_.size(),
      opt_.cache_dir.empty() ? "disabled" : opt_.cache_dir.c_str());
  recover_from_journal();
  schedule();

  for (;;) {
    if (draining_ && jobs_.empty()) break;

    std::vector<pollfd> fds;
    // Index maps: which poll entry belongs to what.
    const std::size_t sig_idx = fds.size();
    fds.push_back({sig_rd_, POLLIN, 0});
    std::size_t listen_idx = SIZE_MAX;
    if (!draining_) {
      listen_idx = fds.size();
      fds.push_back({listener_.fd(), POLLIN, 0});
    }
    std::vector<std::pair<std::size_t, std::size_t>> worker_idx;  // poll,slot
    for (std::size_t i = 0; i < workers_.size(); ++i)
      if (workers_[i].pid >= 0) {
        worker_idx.emplace_back(fds.size(), i);
        fds.push_back({workers_[i].conn.fd(), POLLIN, 0});
      }
    std::vector<std::pair<std::size_t, int>> client_idx;  // poll,client id
    for (auto& [id, c] : clients_)
      if (!c.dead) {
        client_idx.emplace_back(fds.size(), id);
        const short ev =
            POLLIN | (c.conn.queued_bytes() > 0 ? POLLOUT : 0);
        fds.push_back({c.conn.fd(), ev, 0});
      }

    std::int64_t timeout = -1;
    const std::int64_t wake = next_wakeup();
    if (wake >= 0)
      timeout = std::max<std::int64_t>(0, wake - now_ms());
    const int rc = ::poll(fds.data(), fds.size(),
                          static_cast<int>(std::min<std::int64_t>(
                              timeout < 0 ? -1 : timeout, 60'000)));
    if (rc < 0 && errno != EINTR)
      throw TransportError("hiserved: poll failed");

    // Signals first: a drain request should gate this iteration's accepts.
    if (fds[sig_idx].revents & POLLIN) {
      unsigned char buf[64];
      ssize_t got;
      while ((got = ::read(sig_rd_, buf, sizeof buf)) > 0) {
        for (ssize_t i = 0; i < got; ++i)
          if (buf[i] == SIGTERM || buf[i] == SIGINT) {
            if (!draining_)
              log("drain requested (signal %d): finishing %zu jobs",
                  buf[i], jobs_.size());
            draining_ = true;
          }
      }
    }

    if (listen_idx != SIZE_MAX && (fds[listen_idx].revents & POLLIN)) {
      FaultConn conn = listener_.accept();
      conn.set_nonblocking(true);
      const int id = next_client_id_++;
      ClientState c;
      c.id = id;
      c.conn = std::move(conn);
      c.last_ms = now_ms();
      clients_.emplace(id, std::move(c));
      ++n_.clients_total;
      log("client %d connected", id);
    }

    for (const auto& [pidx, slot] : worker_idx) {
      if (!(fds[pidx].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      WorkerProc& w = workers_[slot];
      if (w.pid < 0) continue;  // died earlier this iteration
      bool alive = true;
      try {
        alive = w.conn.read_into_decoder();
        while (auto f = w.conn.next_frame()) handle_worker_frame(slot, *f);
      } catch (const std::exception&) {
        alive = false;  // protocol corruption from a worker: treat as death
        if (w.pid > 0) ::kill(w.pid, SIGKILL);
      }
      if (!alive) worker_died(slot);
    }

    for (const auto& [pidx, id] : client_idx) {
      const auto it = clients_.find(id);
      if (it == clients_.end()) continue;
      ClientState& c = it->second;
      if (fds[pidx].revents & POLLOUT) {
        if (!c.conn.flush_queue()) c.dead = true;
      }
      if (!(fds[pidx].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (c.dead) continue;
      c.last_ms = now_ms();
      bool alive = true;
      try {
        alive = c.conn.read_into_decoder();
        while (auto f = c.conn.next_frame()) handle_client_frame(c, *f);
      } catch (const std::exception&) {
        alive = false;  // protocol corruption: hang up on the client
      }
      if (!alive) c.dead = true;
    }

    reap_idle_clients();
    drop_dead_clients();
    check_timeouts();
    schedule();
  }

  // Drained: flush what the clients are still owed, then orderly worker
  // shutdown, stats snapshot, exit.
  for (auto& [id, c] : clients_)
    if (!c.dead && c.conn.queued_bytes() > 0) c.conn.flush_blocking(2000);
  for (auto& w : workers_) {
    if (w.pid < 0) continue;
    try {
      w.conn.send_frame(Frame{MsgType::Shutdown, ""});
    } catch (const std::exception&) {
    }
    w.conn.close();
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    w.pid = -1;
  }
  write_stats_file();
  log("drained; bye");
  return 0;
}

}  // namespace

int serve_main(const ServeOptions& opt) {
  Service s(opt);
  return s.run();
}

}  // namespace hidisc::serve
