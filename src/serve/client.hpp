// Thin hiserve client: submit a named plan to a running daemon and get a
// lab::PlanRun back — the same shape lab::run_plan returns, so `hilab
// --connect` shares the table/JSON/CSV path with local mode and the
// acceptance criterion ("connected results bit-identical to local runs")
// is checkable with lab::results_identical.
//
// The client rebuilds the plan locally (plans are named registry
// entries; both ends materialize identical cells), streams CellDone
// frames into the right run slots as they arrive — any order, any
// interleaving with the other clients the daemon is serving — and
// finishes on PlanDone.  A daemon-side Error frame throws; per-cell
// failures arrive in the error slots like local runs.
//
// Connection loss is survivable (PR-9): the daemon issues a plan token
// with PlanAccepted, and on a transport or framing failure the client
// reconnects with bounded exponential backoff and re-attaches via
// ResumePlan.  Redelivered cells are deduplicated by a received-set, an
// unknown token (the plan finished longer than the daemon's client idle
// timeout ago, or the daemon lost its journal) falls back to a fresh
// submit — warm cells return from the daemon's memo/cache — and
// Ping/Pong heartbeats distinguish a slow daemon from a dead one.  Only when the daemon was NEVER reachable does
// the client give up with ConnectError, which `hilab --connect` maps to
// its dedicated exit code.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "lab/plan.hpp"
#include "lab/runner.hpp"
#include "serve/protocol.hpp"

namespace hidisc::serve {

// The daemon could not be reached at all (refused/timed out before any
// handshake succeeded) — distinct from a mid-plan failure so callers can
// print a "is hiserved running?" hint and exit accordingly.
class ConnectError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ClientOptions {
  std::string endpoint;  // unix path or tcp:HOST:PORT
  // Progress callback, same contract as lab::RunOptions::on_cell.
  std::function<void(const lab::Cell& cell, std::size_t done,
                     std::size_t total, bool from_cache)>
      on_cell;
  // Client-side deterministic fault injection ("SEED:SPEC", see
  // serve/chaos.hpp); "" consults HIDISC_CHAOS_NET, unset = off.
  std::string chaos_net;
  // Reconnect-resume attempts after a connection failure (0 = fail on
  // the first loss); backoff is 50ms doubling, capped at 2s.
  int max_reconnects = 8;
  // Heartbeat cadence: after this much frame silence send a Ping...
  int heartbeat_ms = 2500;
  // ...and declare the daemon dead (triggering a reconnect) after this.
  int dead_after_ms = 15000;
};

struct ConnectedRun {
  lab::PlanRun run;          // indexed by cell, like lab::run_plan
  std::size_t dedup = 0;     // cells served by sharing another plan's job
  double server_wall_ms = 0; // daemon-side plan wall clock
  std::size_t reconnects = 0;  // connection losses survived
  std::size_t resumes = 0;     // successful ResumePlan re-attaches
  std::string token;           // daemon-issued plan token ("" = none)
};

// Submits `req` and blocks until the plan completes.  `plan` must be the
// client-side materialization of the same request (see
// materialize_plan); it provides cell count and progress labels.
// Throws std::runtime_error on daemon errors (unknown plan, draining)
// and TransportError/ProtocolError on connection problems.
[[nodiscard]] ConnectedRun run_plan_connected(const PlanRequest& req,
                                              const lab::ExperimentPlan& plan,
                                              const ClientOptions& opt);

// Fetches the daemon's service-stats JSON over a fresh connection.
[[nodiscard]] std::string fetch_service_stats(const std::string& endpoint);

}  // namespace hidisc::serve
