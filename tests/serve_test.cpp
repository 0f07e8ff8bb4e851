// Unit tests for the hiserve wire protocol: frame round-trips, the
// incremental decoder's handling of truncated / corrupt / oversize
// input, kv payload escaping, CellResult wire completeness, and a
// splitmix64-seeded fuzz round-trip (random payloads, random chunk
// boundaries, random corruptions) reusing the fuzz subsystem's seed
// derivation so failures replay from a campaign seed.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/campaign.hpp"
#include "lab/serialize.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/transport.hpp"
#include "serve/worker.hpp"

namespace {

using namespace hidisc;
using namespace hidisc::serve;

Frame frame(MsgType t, std::string payload) {
  Frame f;
  f.type = t;
  f.payload = std::move(payload);
  return f;
}

// --- framing ---------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTrip) {
  const Frame in = frame(MsgType::SubmitPlan, "plan fig8\nscale test\n");
  FrameDecoder dec;
  dec.feed(encode_frame(in));
  const auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(ServeProtocol, EmptyPayloadRoundTrip) {
  FrameDecoder dec;
  dec.feed(encode_frame(frame(MsgType::GetStats, "")));
  const auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, MsgType::GetStats);
  EXPECT_TRUE(out->payload.empty());
}

TEST(ServeProtocol, BackToBackFramesOneFeed) {
  const Frame a = frame(MsgType::Hello, "proto 1\n");
  const Frame b = frame(MsgType::PlanDone, "cells 32\n");
  FrameDecoder dec;
  dec.feed(encode_frame(a) + encode_frame(b));
  EXPECT_EQ(dec.next(), a);
  EXPECT_EQ(dec.next(), b);
  EXPECT_FALSE(dec.next().has_value());
}

TEST(ServeProtocol, TruncatedFrameIsNotAFrame) {
  // Every proper prefix of the wire bytes must yield "need more", never a
  // frame and never an exception: truncation is a transport condition
  // (peer died mid-send), not corruption.
  const std::string wire =
      encode_frame(frame(MsgType::CellDone, "cell 3\nerror \n"));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(wire.data(), cut);
    EXPECT_FALSE(dec.next().has_value()) << "prefix length " << cut;
    EXPECT_EQ(dec.buffered(), cut);
  }
}

TEST(ServeProtocol, ByteAtATimeDelivery) {
  const Frame in = frame(MsgType::JobDone, "job 7\nkey abc\n");
  const std::string wire = encode_frame(in);
  FrameDecoder dec;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    dec.feed(wire.data() + i, 1);
    EXPECT_FALSE(dec.next().has_value());
  }
  dec.feed(wire.data() + wire.size() - 1, 1);
  EXPECT_EQ(dec.next(), in);
}

TEST(ServeProtocol, BadMagicThrowsAndPoisons) {
  std::string wire = encode_frame(frame(MsgType::Hello, "x 1\n"));
  wire[0] ^= 0xFF;
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_THROW((void)dec.next(), ProtocolError);
  // Poisoned: even a pristine frame can't revive the decoder, because the
  // stream offset is untrustworthy after framing corruption.  (feed() on
  // a poisoned decoder rethrows too.)
  EXPECT_THROW(
      {
        dec.feed(encode_frame(frame(MsgType::Hello, "x 1\n")));
        (void)dec.next();
      },
      ProtocolError);
}

TEST(ServeProtocol, WrongVersionThrows) {
  std::string wire = encode_frame(frame(MsgType::Hello, ""));
  wire[4] ^= 0x01;  // version field, little-endian low byte
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_THROW((void)dec.next(), ProtocolError);
}

TEST(ServeProtocol, OversizePayloadLengthThrows) {
  std::string wire = encode_frame(frame(MsgType::Hello, "abc"));
  const std::uint32_t huge = kMaxPayload + 1;
  std::memcpy(&wire[8], &huge, sizeof huge);
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_THROW((void)dec.next(), ProtocolError);
}

TEST(ServeProtocol, PayloadBitFlipFailsChecksum) {
  const std::string payload = "plan fig8\nscale paper\n";
  std::string wire = encode_frame(frame(MsgType::SubmitPlan, payload));
  wire[kHeaderSize + 4] ^= 0x20;
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_THROW((void)dec.next(), ProtocolError);
}

TEST(ServeProtocol, ChecksumFieldBitFlipThrows) {
  std::string wire = encode_frame(frame(MsgType::SubmitPlan, "plan fig8\n"));
  wire[12] ^= 0x01;  // first checksum byte
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_THROW((void)dec.next(), ProtocolError);
}

// --- kv payloads -----------------------------------------------------------

TEST(ServeProtocol, KvEscapeRoundTrip) {
  const std::vector<std::string> cases = {
      "",      "plain",           "with space",
      "tab\t", "newline\nin it",  "backslash \\ and \\n literal",
      "\n",    "\\",              "\\\n\\\n",
  };
  for (const auto& v : cases)
    EXPECT_EQ(kv_unescape(kv_escape(v)), v) << "value: " << v;
}

TEST(ServeProtocol, KvEncodeParseRoundTrip) {
  KvMap kv;
  kv["plan"] = "fig8";
  kv["error"] = "line one\nline two\\with backslash";
  kv["empty"] = "";
  EXPECT_EQ(kv_parse(kv_encode(kv)), kv);
}

TEST(ServeProtocol, KvParseRejectsMalformedLines) {
  EXPECT_THROW((void)kv_parse("noseparator\n"), ProtocolError);
  EXPECT_THROW((void)kv_parse(" emptyname\n"), ProtocolError);
}

TEST(ServeProtocol, PlanRequestRoundTrip) {
  PlanRequest req;
  req.plan = "fig10";
  req.scale = "test";
  req.watchdog = 12345;
  req.lockstep = true;
  req.refresh = true;
  const PlanRequest back = PlanRequest::from_kv(req.to_kv());
  EXPECT_EQ(back.plan, req.plan);
  EXPECT_EQ(back.scale, req.scale);
  EXPECT_EQ(back.watchdog, req.watchdog);
  EXPECT_EQ(back.lockstep, req.lockstep);
  EXPECT_EQ(back.refresh, req.refresh);
}

// --- CellResult wire completeness ------------------------------------------

lab::CellResult sample_ok_result() {
  lab::CellResult r;
  r.result.cycles = 123456;
  r.result.instructions = 98765;
  r.result.ipc = 0.8;
  r.key = "0123456789abcdef0123456789abcdef";
  r.orig_dynamic_instructions = 4242;
  r.from_cache = true;
  r.wall_ms = 17.25;
  r.sim_cycles_per_sec = 1.5e6;
  return r;
}

TEST(ServeProtocol, CellResultRoundTripOk) {
  const lab::CellResult in = sample_ok_result();
  const lab::CellResult out = cell_result_from_kv(cell_result_to_kv(in));
  EXPECT_TRUE(lab::results_identical(in.result, out.result));
  EXPECT_EQ(out.key, in.key);
  EXPECT_EQ(out.orig_dynamic_instructions, in.orig_dynamic_instructions);
  EXPECT_EQ(out.from_cache, in.from_cache);
  EXPECT_DOUBLE_EQ(out.wall_ms, in.wall_ms);
  EXPECT_TRUE(out.ok());
}

TEST(ServeProtocol, CellResultRoundTripError) {
  lab::CellResult in;
  in.error = "watchdog: no retirement\nfor 100 cycles";
  in.error_class = "deadlock:memory-wait";
  in.diagnostic_json = "{\"kind\": \"deadlock\",\n \"cause\": \"x\"}";
  const lab::CellResult out = cell_result_from_kv(cell_result_to_kv(in));
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error, in.error);
  EXPECT_EQ(out.error_class, in.error_class);
  EXPECT_EQ(out.diagnostic_json, in.diagnostic_json);
}

TEST(ServeProtocol, CellResultMissingFieldIsProtocolError) {
  // Same required-field rule as the result cache: an ok cell whose Result
  // encoding lost a field must fail loudly, not decode as zeros.
  KvMap kv = cell_result_to_kv(sample_ok_result());
  kv.erase("r.cycles");
  EXPECT_THROW((void)cell_result_from_kv(kv), ProtocolError);
}

// --- fuzz round-trip -------------------------------------------------------

// Random printable-ish payloads through encode -> chunked feed -> decode;
// then a corruption pass: one random byte flipped anywhere in the wire
// image must either throw ProtocolError, yield nothing yet (when the flip
// lands in the length field and the decoder now waits for more), or —
// never — produce a frame equal to the original with a corrupt payload.
TEST(ServeProtocolFuzz, RoundTripAndCorruption) {
  constexpr std::uint64_t seed_base = 20260808;  // fixed campaign seed
  constexpr int kRuns = 200;
  for (int run = 0; run < kRuns; ++run) {
    std::mt19937_64 rng(fuzz::derive_seed(seed_base, run));
    // Build a random frame.
    Frame in;
    in.type = static_cast<MsgType>(1 + rng() % 12);
    const std::size_t len = rng() % 512;
    in.payload.reserve(len);
    for (std::size_t i = 0; i < len; ++i)
      in.payload.push_back(static_cast<char>(rng() % 256));
    const std::string wire = encode_frame(in);

    // Clean round-trip under random chunking.
    {
      FrameDecoder dec;
      std::size_t off = 0;
      std::optional<Frame> got;
      while (off < wire.size()) {
        const std::size_t chunk =
            std::min<std::size_t>(1 + rng() % 64, wire.size() - off);
        dec.feed(wire.data() + off, chunk);
        off += chunk;
        if (auto f = dec.next()) got = std::move(f);
      }
      ASSERT_TRUE(got.has_value()) << "run " << run;
      EXPECT_EQ(*got, in) << "run " << run;
    }

    // Single-byte corruption must never round-trip silently.
    {
      std::string bad = wire;
      const std::size_t pos = rng() % bad.size();
      char flip;
      do {
        flip = static_cast<char>(rng() % 256);
      } while (flip == bad[pos]);
      bad[pos] = flip;
      FrameDecoder dec;
      try {
        dec.feed(bad);
        auto f = dec.next();
        // A flip in the length field may leave the decoder waiting for
        // more input (nullopt) — acceptable.  A decoded frame identical
        // to the original would mean the corruption went undetected.
        if (f.has_value()) EXPECT_NE(*f, in) << "run " << run;
      } catch (const ProtocolError&) {
        // detected — the expected common case
      }
    }
  }
}

// --- plan materialization --------------------------------------------------

TEST(ServeWorker, MaterializePlanMatchesRegistry) {
  PlanRequest req;
  req.plan = "fig10";
  req.scale = "test";
  const lab::ExperimentPlan plan = materialize_plan(req);
  const lab::ExperimentPlan direct =
      lab::make_plan("fig10", workloads::Scale::Test);
  ASSERT_EQ(plan.cells.size(), direct.cells.size());
}

TEST(ServeWorker, MaterializePlanAppliesOverrides) {
  PlanRequest req;
  req.plan = "fig10";
  req.scale = "test";
  req.watchdog = 777;
  req.lockstep = true;
  const lab::ExperimentPlan plan = materialize_plan(req);
  for (const auto& cell : plan.cells) {
    EXPECT_EQ(cell.config.watchdog_cycles, 777u);
    EXPECT_EQ(cell.config.scheduler, machine::SchedulerKind::Lockstep);
  }
}

TEST(ServeWorker, MaterializePlanUnknownNameThrows) {
  PlanRequest req;
  req.plan = "no-such-plan";
  EXPECT_THROW((void)materialize_plan(req), std::out_of_range);
}

// --- chaos spec parsing ----------------------------------------------------

TEST(ServeChaos, ParseSpecFull) {
  const ChaosSpec s =
      parse_chaos_spec("7:drop@4x2,corrupt@1,split,stall@3=15,window=32");
  EXPECT_EQ(s.seed, 7u);
  EXPECT_TRUE(s.drop);
  EXPECT_EQ(s.drop_at, 4u);
  EXPECT_EQ(s.drop_budget, 2u);
  EXPECT_TRUE(s.corrupt);
  EXPECT_EQ(s.corrupt_at, 1u);
  EXPECT_EQ(s.corrupt_budget, 1u);
  EXPECT_TRUE(s.split);
  EXPECT_TRUE(s.stall);
  EXPECT_EQ(s.stall_at, 3u);
  EXPECT_EQ(s.stall_ms, 15);
  EXPECT_EQ(s.window, 32u);
}

TEST(ServeChaos, ParseSpecDefaults) {
  const ChaosSpec s = parse_chaos_spec("42:drop");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_TRUE(s.drop);
  EXPECT_EQ(s.drop_at, 0u);  // derived per connection
  EXPECT_EQ(s.drop_budget, 1u);
  EXPECT_FALSE(s.corrupt);
  EXPECT_FALSE(s.split);
  EXPECT_FALSE(s.stall);
  EXPECT_EQ(s.window, 8u);
}

TEST(ServeChaos, ParseSpecMalformedThrows) {
  EXPECT_THROW((void)parse_chaos_spec("drop"), std::runtime_error);
  EXPECT_THROW((void)parse_chaos_spec("x:drop"), std::runtime_error);
  EXPECT_THROW((void)parse_chaos_spec("1:"), std::runtime_error);
  EXPECT_THROW((void)parse_chaos_spec("1:bogus"), std::runtime_error);
  EXPECT_THROW((void)parse_chaos_spec("1:drop@0"), std::runtime_error);
  EXPECT_THROW((void)parse_chaos_spec("1:dropx0"), std::runtime_error);
  EXPECT_THROW((void)parse_chaos_spec("1:window"), std::runtime_error);
}

TEST(ServeChaos, EnvFallback) {
  ::setenv("HIDISC_CHAOS_NET", "5:drop", 1);
  const auto from_env = chaos_spec_from("");
  ASSERT_TRUE(from_env.has_value());
  EXPECT_EQ(from_env->seed, 5u);
  EXPECT_TRUE(from_env->drop);
  // The CLI value wins over the environment.
  const auto from_cli = chaos_spec_from("6:corrupt");
  ASSERT_TRUE(from_cli.has_value());
  EXPECT_EQ(from_cli->seed, 6u);
  EXPECT_FALSE(from_cli->drop);
  ::unsetenv("HIDISC_CHAOS_NET");
  EXPECT_FALSE(chaos_spec_from("").has_value());
}

// --- fault schedules -------------------------------------------------------

TEST(ServeChaos, SchedulesAreDeterministicFromSeed) {
  const ChaosSpec spec =
      parse_chaos_spec("99:drop,corrupt,stall,split,window=16");
  FaultPlan a(spec), b(spec);
  std::vector<std::uint64_t> drop_draws;
  for (int i = 0; i < 8; ++i) {
    const FaultSchedule sa = a.next_schedule();
    const FaultSchedule sb = b.next_schedule();
    EXPECT_EQ(sa.drop_at, sb.drop_at) << "conn " << i;
    EXPECT_EQ(sa.corrupt_at, sb.corrupt_at) << "conn " << i;
    EXPECT_EQ(sa.corrupt_pos, sb.corrupt_pos) << "conn " << i;
    EXPECT_EQ(sa.corrupt_xor, sb.corrupt_xor) << "conn " << i;
    EXPECT_EQ(sa.split_seed, sb.split_seed) << "conn " << i;
    EXPECT_EQ(sa.stall_at, sb.stall_at) << "conn " << i;
    EXPECT_TRUE(sa.split);
    EXPECT_NE(sa.corrupt_xor, 0);  // a zero xor would be a silent no-op
    EXPECT_GE(sa.drop_at, 1u);
    EXPECT_LE(sa.drop_at, 16u);
    drop_draws.push_back(sa.drop_at);
  }
  // Different connection ordinals draw different positions (that is the
  // point of deriving from (seed, ordinal), not seed alone).
  const bool all_same = std::all_of(
      drop_draws.begin(), drop_draws.end(),
      [&](std::uint64_t d) { return d == drop_draws.front(); });
  EXPECT_FALSE(all_same);
}

TEST(ServeChaos, PinnedPositionsOverrideDerivation) {
  const ChaosSpec spec = parse_chaos_spec("3:drop@9,corrupt@2,stall@5=1");
  FaultPlan plan(spec);
  for (int i = 0; i < 4; ++i) {
    const FaultSchedule s = plan.next_schedule();
    EXPECT_EQ(s.drop_at, 9u);
    EXPECT_EQ(s.corrupt_at, 2u);
    EXPECT_EQ(s.stall_at, 5u);
  }
}

TEST(ServeChaos, BudgetsAreProcessGlobal) {
  FaultPlan p2(parse_chaos_spec("1:dropx2,corrupt"));
  EXPECT_TRUE(p2.take_drop());
  EXPECT_TRUE(p2.take_drop());
  EXPECT_FALSE(p2.take_drop());  // budget of 2 exhausted
  EXPECT_EQ(p2.drops_injected(), 2u);
  EXPECT_TRUE(p2.take_corrupt());
  EXPECT_FALSE(p2.take_corrupt());
  EXPECT_EQ(p2.corruptions_injected(), 1u);
  // Once a budget is gone, fresh schedules come back disarmed for it.
  const FaultSchedule s = p2.next_schedule();
  EXPECT_EQ(s.drop_at, 0u);
  EXPECT_EQ(s.corrupt_at, 0u);
}

TEST(ServeChaos, DefaultPlanAndConnArePassThrough) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  const FaultSchedule s = plan.next_schedule();
  EXPECT_EQ(s.drop_at, 0u);
  EXPECT_EQ(s.corrupt_at, 0u);
  EXPECT_FALSE(s.split);
  EXPECT_EQ(s.stall_at, 0u);

  SocketPair sp = make_socketpair();
  FaultConn tx(std::move(sp.parent));
  FaultConn rx(std::move(sp.child));
  const Frame f = frame(MsgType::CellDone, "cell 1\nkey k\n");
  tx.send_frame(f);
  const auto got = rx.recv_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, f);
}

// A frame already waiting on the socket is read even when the timeout is
// shorter than the time it takes to reach the first poll.
TEST(ServeTransport, ShortTimeoutReadsBytesAlreadyWaiting) {
  SocketPair sp = make_socketpair();
  const Frame f = frame(MsgType::Ping, "");
  sp.parent.send_frame(f);
  bool timed_out = true;
  const auto got = sp.child.recv_frame_for(1, &timed_out);
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(*got, f);
  // Nothing more waiting: the same short timeout now reports a timeout.
  EXPECT_FALSE(sp.child.recv_frame_for(1, &timed_out).has_value());
  EXPECT_TRUE(timed_out);
}

// --- fault injection over a real socketpair --------------------------------

TEST(ServeChaos, SendSideDropLooksLikePeerLossNeverCorruption) {
  FaultPlan plan(parse_chaos_spec("9:drop@3"));
  SocketPair sp = make_socketpair();
  FaultConn tx(std::move(sp.parent), plan.next_schedule());
  Conn rx = std::move(sp.child);

  const Frame f1 = frame(MsgType::CellDone, "cell 1\n");
  const Frame f2 = frame(MsgType::CellDone, "cell 2\n");
  tx.send_frame(f1);
  tx.send_frame(f2);
  EXPECT_THROW(tx.send_frame(frame(MsgType::CellDone, "cell 3\n")),
               TransportError);
  EXPECT_FALSE(tx.valid());
  EXPECT_EQ(plan.drops_injected(), 1u);

  // The receiver sees the pre-drop frames intact, then a *clean* EOF —
  // an injected drop is indistinguishable from a peer loss, and must
  // never manifest as framing corruption.
  EXPECT_EQ(rx.recv_frame(), f1);
  EXPECT_EQ(rx.recv_frame(), f2);
  EXPECT_FALSE(rx.recv_frame().has_value());
}

TEST(ServeChaos, RecvSideDropThrowsAfterTheFrameLands) {
  FaultPlan plan(parse_chaos_spec("4:drop@2"));
  SocketPair sp = make_socketpair();
  Conn tx = std::move(sp.parent);
  FaultConn rx(std::move(sp.child), plan.next_schedule());

  tx.send_frame(frame(MsgType::JobDone, "job 1\n"));
  tx.send_frame(frame(MsgType::JobDone, "job 2\n"));
  const auto first = rx.recv_frame();  // total frames crossed: 1 < 2
  ASSERT_TRUE(first.has_value());
  EXPECT_THROW((void)rx.recv_frame(), TransportError);
  EXPECT_FALSE(rx.valid());
  EXPECT_EQ(plan.drops_injected(), 1u);
}

TEST(ServeChaos, SplitDeliversEveryFrameIntact) {
  FaultPlan plan(parse_chaos_spec("5:split"));
  SocketPair sp = make_socketpair();
  FaultConn tx(std::move(sp.parent), plan.next_schedule());
  Conn rx = std::move(sp.child);

  std::mt19937_64 rng(20260808);
  std::vector<Frame> sent;
  for (int i = 0; i < 10; ++i) {
    Frame f;
    f.type = MsgType::CellDone;
    const std::size_t len = (i % 3 == 0) ? 0 : rng() % 600;
    for (std::size_t b = 0; b < len; ++b)
      f.payload.push_back(static_cast<char>(rng() % 256));
    tx.send_frame(f);
    sent.push_back(std::move(f));
  }
  for (const auto& f : sent) EXPECT_EQ(rx.recv_frame(), f);
}

TEST(ServeChaos, StallDelaysTheScheduledFrame) {
  FaultPlan plan(parse_chaos_spec("3:stall@1=30"));
  SocketPair sp = make_socketpair();
  FaultConn tx(std::move(sp.parent), plan.next_schedule());
  Conn rx = std::move(sp.child);
  const auto t0 = std::chrono::steady_clock::now();
  tx.send_frame(frame(MsgType::Ping, ""));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 30);
  EXPECT_EQ(plan.stalls_injected(), 1u);
  EXPECT_TRUE(rx.recv_frame().has_value());
}

TEST(ServeChaos, QueueFlushDeliversInOrder) {
  SocketPair sp = make_socketpair();
  FaultConn tx(std::move(sp.parent));
  Conn rx = std::move(sp.child);
  const Frame a = frame(MsgType::CellDone, "cell 0\n");
  const Frame b = frame(MsgType::PlanDone, "cells 1\n");
  tx.queue_frame(a);
  tx.queue_frame(b);
  EXPECT_EQ(tx.queued_bytes(), 2 * kHeaderSize + a.payload.size() +
                                   b.payload.size());
  EXPECT_TRUE(tx.flush_queue());
  EXPECT_EQ(tx.queued_bytes(), 0u);
  EXPECT_EQ(rx.recv_frame(), a);
  EXPECT_EQ(rx.recv_frame(), b);
}

// --- seeded corruption campaign over the wire ------------------------------

// A campaign of seeded single-byte corruptions injected by FaultConn into
// a live socketpair stream: in every run the receiver must either (a)
// detect the damage (ProtocolError from the decoder, or TransportError
// from a partial frame at EOF when the flip landed in the length field),
// or (b) surface a frame that differs from what was sent (a flip in the
// unchecksummed type field — FrameDecoder passes unknown types through
// by design).  What must NEVER happen is a silently clean stream: every
// frame decoding equal to its original with no error raised.  Frames
// ahead of the corruption point must round-trip untouched.
TEST(ServeChaosFuzz, CorruptionCampaignNeverPassesSilently) {
  constexpr std::uint64_t seed_base = 20260809;
  constexpr int kRuns = 25;
  constexpr std::size_t kFrames = 6;
  for (int run = 0; run < kRuns; ++run) {
    const std::uint64_t seed = fuzz::derive_seed(seed_base, run);
    std::mt19937_64 rng(seed);
    const std::size_t corrupt_at = 1 + rng() % kFrames;
    FaultPlan plan(parse_chaos_spec(std::to_string(seed) + ":corrupt@" +
                                    std::to_string(corrupt_at)));
    SocketPair sp = make_socketpair();
    FaultConn tx(std::move(sp.parent), plan.next_schedule());
    Conn rx = std::move(sp.child);

    std::vector<Frame> sent;
    for (std::size_t i = 0; i < kFrames; ++i) {
      Frame f;
      f.type = MsgType::CellDone;
      const std::size_t len = rng() % 256;
      for (std::size_t b = 0; b < len; ++b)
        f.payload.push_back(static_cast<char>(rng() % 256));
      tx.send_frame(f);
      sent.push_back(std::move(f));
    }
    tx.close();
    EXPECT_EQ(plan.corruptions_injected(), 1u) << "run " << run;

    bool anomaly = false;
    std::size_t idx = 0;
    try {
      for (;;) {
        const auto f = rx.recv_frame();
        if (!f) break;  // EOF
        if (idx < sent.size() && *f == sent[idx]) {
          ++idx;
          continue;
        }
        anomaly = true;  // decoded, but not the frame that was sent
        ++idx;
      }
    } catch (const ProtocolError&) {
      anomaly = true;
    } catch (const TransportError&) {
      anomaly = true;
    }
    EXPECT_TRUE(anomaly) << "run " << run << " seed " << seed
                         << ": corrupted stream decoded clean";
    // Everything ahead of the corrupted frame round-tripped intact.
    EXPECT_GE(idx + 1, corrupt_at) << "run " << run << " seed " << seed;
  }
}

// --- client heartbeat --------------------------------------------------------

// A test thread plays the daemon: it streams a CellDone every
// heartbeat_ms/5 for eight heartbeats and notes when the client's Pings
// arrive.  The daemon reaps clients on inbound silence, so the client
// owes a Ping every heartbeat_ms however busy the inbound stream is.
TEST(ServeClient, StreamingClientKeepsHeartbeating) {
  using Clock = std::chrono::steady_clock;
  constexpr int kBeatMs = 200;
  constexpr std::size_t kCells = 40;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("hidisc_serve_heartbeat_" + std::to_string(::getpid()) + ".sock"))
          .string();
  Listener listener = Listener::listen(path);

  std::vector<Clock::time_point> marks;  // stream start, Pings, stream end
  std::string daemon_error, client_error;
  std::thread daemon([&] {
    try {
      Conn c = listener.accept();
      const auto expect = [&c](MsgType t) {
        const auto f = c.recv_frame();
        if (!f || f->type != t)
          throw std::runtime_error(std::string("expected ") +
                                   msg_type_name(t));
      };
      expect(MsgType::Hello);
      c.send_frame(frame(MsgType::HelloOk, ""));
      expect(MsgType::SubmitPlan);
      c.send_frame(frame(MsgType::PlanAccepted,
                         kv_encode({{"cells", std::to_string(kCells)},
                                    {"token", "t"}})));
      marks.push_back(Clock::now());
      for (std::size_t i = 0; i < kCells; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(kBeatMs / 5));
        KvMap kv = cell_result_to_kv(lab::CellResult{});
        kv["cell"] = std::to_string(i);
        c.send_frame(frame(MsgType::CellDone, kv_encode(kv)));
        bool timed_out = false;
        while (const auto f = c.recv_frame_for(5, &timed_out))
          if (f->type == MsgType::Ping) marks.push_back(Clock::now());
      }
      marks.push_back(Clock::now());
      c.send_frame(frame(MsgType::PlanDone, kv_encode({{"failed", "0"}})));
      while (c.recv_frame()) {
      }
    } catch (const std::exception& e) {
      daemon_error = e.what();
    }
  });

  lab::ExperimentPlan plan;
  plan.cells.resize(kCells);
  PlanRequest req;
  req.plan = "fig8";
  ClientOptions opt;
  opt.endpoint = path;
  opt.heartbeat_ms = kBeatMs;
  opt.max_reconnects = 0;
  try {
    const auto run = run_plan_connected(req, plan, opt);
    EXPECT_EQ(run.run.cells.size(), kCells);
  } catch (const std::exception& e) {
    client_error = e.what();
  }
  daemon.join();
  ASSERT_EQ(daemon_error, "");
  ASSERT_EQ(client_error, "");
  ASSERT_GE(marks.size(), 2u);
  for (std::size_t i = 1; i < marks.size(); ++i)
    EXPECT_LE(std::chrono::duration_cast<std::chrono::milliseconds>(
                  marks[i] - marks[i - 1])
                  .count(),
              2 * kBeatMs)
        << "gap before mark " << i << " of " << marks.size();
}

}  // namespace
