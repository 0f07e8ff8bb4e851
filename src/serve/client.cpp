#include "serve/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <vector>

#include "serve/chaos.hpp"
#include "serve/transport.hpp"

namespace hidisc::serve {

namespace {

using Clock = std::chrono::steady_clock;

// Internal control-flow signal: the daemon rejected our ResumePlan
// (unknown token) and asked for a fresh submit.
class ResumeRejected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] void throw_daemon_error(const Frame& f) {
  const KvMap kv = kv_parse(f.payload);
  std::string msg = "hiserve daemon: " + kv_get(kv, "message", "error");
  if (kv_get(kv, "code") == "resubmit") throw ResumeRejected(msg);
  const std::string plans = kv_get(kv, "plans");
  if (!plans.empty()) msg += "\navailable plans: " + plans;
  throw std::runtime_error(msg);
}

// A connection to the daemon that remembers when it last sent: the
// outbound heartbeat is due heartbeat_ms after the last frame of any
// kind, however many frames have arrived since.
struct Link {
  FaultConn conn;
  Clock::time_point last_send = Clock::now();

  void send(const Frame& f) {
    conn.send_frame(f);
    last_send = Clock::now();
  }
};

// Next frame of substance: Pings are answered, Pongs absorbed, Error
// frames thrown.  Frame silence is heartbeated — after heartbeat_ms we
// Ping, after dead_after_ms of total silence the daemon is declared
// dead (TransportError, which the reconnect loop owns).
Frame expect_stream(Link& link, const ClientOptions& opt) {
  const int beat = opt.heartbeat_ms > 0 ? opt.heartbeat_ms : 2500;
  const int dead_after = std::max(opt.dead_after_ms, beat);
  int silent_ms = 0;
  const auto ping = [&] { link.send(Frame{MsgType::Ping, ""}); };
  for (;;) {
    // Keep the *outbound* heartbeat going even while the daemon is
    // streaming: the daemon reaps clients on inbound silence, and a
    // client that only receives would look dead to it.
    if (std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - link.last_send)
            .count() >= beat)
      ping();
    bool timed_out = false;
    auto f = link.conn.recv_frame_for(beat, &timed_out);
    if (timed_out) {
      silent_ms += beat;
      if (silent_ms >= dead_after)
        throw TransportError("hiserve client: daemon silent for " +
                             std::to_string(silent_ms) + " ms");
      ping();
      continue;
    }
    if (!f)
      throw TransportError("hiserve client: daemon closed the connection");
    silent_ms = 0;
    if (f->type == MsgType::Pong) continue;
    if (f->type == MsgType::Ping) {
      link.send(Frame{MsgType::Pong, ""});
      continue;
    }
    if (f->type == MsgType::Error) throw_daemon_error(*f);
    return std::move(*f);
  }
}

Link handshake(const ClientOptions& opt, FaultPlan* chaos) {
  Conn raw = connect_to(opt.endpoint);
  Link link{(chaos && chaos->enabled())
                ? FaultConn(std::move(raw), chaos->next_schedule())
                : FaultConn(std::move(raw))};
  link.send(Frame{MsgType::Hello,
                  kv_encode({{"proto", std::to_string(kProtocolVersion)}})});
  const Frame ok = expect_stream(link, opt);
  if (ok.type != MsgType::HelloOk)
    throw ProtocolError("hiserve client: expected HelloOk, got " +
                        std::string(msg_type_name(ok.type)));
  return link;
}

}  // namespace

ConnectedRun run_plan_connected(const PlanRequest& req,
                                const lab::ExperimentPlan& plan,
                                const ClientOptions& opt) {
  const auto start = Clock::now();
  FaultPlan chaos;
  if (const auto spec = chaos_spec_from(opt.chaos_net)) chaos.arm(*spec);

  ConnectedRun out;
  out.run.cells.resize(plan.cells.size());
  std::vector<char> got(plan.cells.size(), 0);  // received-set: dedups
                                                // resume redeliveries
  std::size_t done = 0;
  bool ever_connected = false;
  bool finished = false;
  int attempts = 0;

  while (!finished) {
    try {
      Link link = handshake(opt, &chaos);
      ever_connected = true;

      // Re-attach by token when we have one; a rejected resume falls
      // back to a fresh submit (warm cells return from the memo/cache).
      bool attached = false;
      if (!out.token.empty()) {
        link.send(Frame{MsgType::ResumePlan,
                        kv_encode({{"token", out.token}})});
        try {
          const Frame f = expect_stream(link, opt);
          if (f.type != MsgType::ResumeOk)
            throw ProtocolError("hiserve client: expected ResumeOk, got " +
                                std::string(msg_type_name(f.type)));
          attached = true;
          ++out.resumes;
        } catch (const ResumeRejected&) {
          out.token.clear();
        }
      }
      if (!attached) {
        link.send(Frame{MsgType::SubmitPlan, kv_encode(req.to_kv())});
        const Frame accepted = expect_stream(link, opt);
        if (accepted.type != MsgType::PlanAccepted)
          throw ProtocolError("hiserve client: expected PlanAccepted, got " +
                              std::string(msg_type_name(accepted.type)));
        const KvMap akv = kv_parse(accepted.payload);
        const std::size_t cells = kv_get_u64(akv, "cells");
        if (cells != plan.cells.size())
          throw std::runtime_error(
              "hiserve client: daemon materialized " + std::to_string(cells) +
              " cells for plan '" + req.plan + "' but this client built " +
              std::to_string(plan.cells.size()) +
              " — client/daemon plan registries disagree (version skew?)");
        out.token = kv_get(akv, "token");
      }

      for (;;) {
        const Frame f = expect_stream(link, opt);
        if (f.type == MsgType::CellDone) {
          const KvMap kv = kv_parse(f.payload);
          const std::size_t idx = kv_get_u64(kv, "cell");
          if (idx >= out.run.cells.size())
            throw ProtocolError("hiserve client: cell index " +
                                std::to_string(idx) + " out of range");
          if (got[idx]) continue;  // resume redelivery of a cell we have
          got[idx] = 1;
          out.run.cells[idx] = cell_result_from_kv(kv);
          // The daemon marks dedup- and memo-served cells cached on the
          // wire even when the underlying job simulated (from another
          // client's submission); from_cache is the client-visible
          // meaning.
          out.run.cells[idx].from_cache = kv_get(kv, "cached") == "1";
          if (kv_get(kv, "dedup") == "1") ++out.dedup;
          ++done;
          if (opt.on_cell)
            opt.on_cell(plan.cells[idx], done, plan.cells.size(),
                        out.run.cells[idx].from_cache);
          continue;
        }
        if (f.type == MsgType::PlanDone) {
          const KvMap kv = kv_parse(f.payload);
          out.run.simulated = kv_get_u64(kv, "simulated");
          out.run.cache_hits = kv_get_u64(kv, "cached");
          out.run.failed = kv_get_u64(kv, "failed");
          out.server_wall_ms = kv_get_double(kv, "wall_ms");
          finished = true;
          break;
        }
        throw ProtocolError("hiserve client: unexpected frame " +
                            std::string(msg_type_name(f.type)));
      }
    } catch (const TransportError& e) {
      if (attempts >= opt.max_reconnects) {
        if (!ever_connected)
          throw ConnectError("hiserve client: cannot reach daemon at " +
                             opt.endpoint + ": " + e.what());
        throw;
      }
      ++attempts;
      ++out.reconnects;
      const int backoff_ms =
          std::min(50 << std::min(attempts - 1, 10), 2000);
      ::usleep(static_cast<useconds_t>(backoff_ms) * 1000);
    } catch (const ProtocolError&) {
      // Framing corruption (a chaos-injected bit flip, a garbled
      // stream): the decoder is poisoned, so the connection is useless —
      // reconnect like a transport loss.  Semantic protocol breaches
      // (wrong frame type, bad cell index) reconnect too; if the daemon
      // truly misbehaves the attempt budget bounds the damage.
      if (attempts >= opt.max_reconnects) throw;
      ++attempts;
      ++out.reconnects;
      const int backoff_ms =
          std::min(50 << std::min(attempts - 1, 10), 2000);
      ::usleep(static_cast<useconds_t>(backoff_ms) * 1000);
    }
  }
  if (done != plan.cells.size())
    throw std::runtime_error("hiserve client: plan finished after " +
                             std::to_string(done) + "/" +
                             std::to_string(plan.cells.size()) + " cells");

  out.run.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  out.run.sim_cycles_per_sec = lab::sim_cycles_per_sec(out.run.cells);
  // Reconstruct pipeline node stats: compile/trace work travels on the
  // wire per cell (zeroed by the daemon for dedup/memo deliveries, so
  // summing never double counts); the sim row is derivable locally from
  // the delivery flags.  Totals for compile/trace are unknowable here —
  // node sharing happens daemon-side — so they mirror the observed work.
  {
    pipeline::NodeStats& n = out.run.nodes;
    for (const auto& c : out.run.cells) {
      n.compile.rebuilt += c.compile_nodes_rebuilt;
      n.trace.hits += c.trace_nodes_hit;
      n.trace.rebuilt += c.trace_nodes_rebuilt;
      ++n.sim.total;
      if (!c.ok()) ++n.sim.failed;
      else if (c.from_cache) ++n.sim.hits;
      else ++n.sim.rebuilt;
    }
    n.compile.total = n.compile.hits + n.compile.rebuilt + n.compile.failed;
    n.trace.total = n.trace.hits + n.trace.rebuilt + n.trace.failed;
    out.run.preps = n.compile.rebuilt;
    out.run.traces = n.trace.rebuilt;
  }
  return out;
}

std::string fetch_service_stats(const std::string& endpoint) {
  ClientOptions opt;
  opt.endpoint = endpoint;
  Link link = handshake(opt, nullptr);
  link.send(Frame{MsgType::GetStats, ""});
  const Frame f = expect_stream(link, opt);
  if (f.type != MsgType::Stats)
    throw ProtocolError("hiserve client: expected Stats, got " +
                        std::string(msg_type_name(f.type)));
  return f.payload;
}

}  // namespace hidisc::serve
