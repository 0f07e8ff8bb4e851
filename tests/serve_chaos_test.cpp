// Unit tests for the crash-recovery layers under the chaos-hardened
// experiment service: the append-only checksummed job journal (record /
// replay round-trips, torn-tail and corrupt-line quarantine, the
// single-writer flock, re-record-after-truncate) and the shared
// forensic-quarantine naming.  The end-to-end kill-restart-resume
// scenario lives in serve_e2e_test.cpp; these tests pin the journal's
// byte-level contract so that scenario's recovery is explainable when it
// regresses.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "diag/quarantine.hpp"
#include "lab/serialize.hpp"
#include "serve/journal.hpp"

namespace fs = std::filesystem;

namespace {

using namespace hidisc;
using namespace hidisc::serve;

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/hiserve-journal-XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

PlanRequest sample_request() {
  PlanRequest req;
  req.plan = "fig10";
  req.scale = "test";
  req.watchdog = 500000;
  req.lockstep = true;
  req.refresh = false;
  return req;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

// A journal line with a *valid* checksum, as the daemon would write it —
// for forging records past a damage boundary.
std::string good_line(const std::string& payload) {
  char sum[20];
  std::snprintf(sum, sizeof sum, "%016llx",
                static_cast<unsigned long long>(lab::fnv1a64(payload)));
  return "HSJL1 " + std::string(sum) + " " + payload + "\n";
}

// --- record / replay round-trips -------------------------------------------

TEST(ServeJournal, IncompletePlanRoundTrips) {
  TempDir dir;
  const std::string path = dir.path + "/journal.hsjl";
  const PlanRequest req = sample_request();
  {
    JobJournal j(path);
    ASSERT_TRUE(j.active());
    j.record_plan("tokA-1", req, 5);
    j.record_cell("tokA-1", 0);
    j.record_cell("tokA-1", 2);
  }
  const JournalReplay r = JobJournal::replay(path);
  EXPECT_EQ(r.records, 3u);
  EXPECT_EQ(r.bad_bytes, 0u);
  EXPECT_TRUE(r.quarantine.empty());
  ASSERT_EQ(r.plans.size(), 1u);
  const JournalPlan& p = r.plans[0];
  EXPECT_EQ(p.token, "tokA-1");
  EXPECT_EQ(p.cells, 5u);
  EXPECT_FALSE(p.complete);
  EXPECT_EQ(p.done_count(), 2u);
  EXPECT_TRUE(p.done[0]);
  EXPECT_FALSE(p.done[1]);
  EXPECT_TRUE(p.done[2]);
  // The request survives field-for-field: recovery re-materializes the
  // plan from exactly what the client submitted.
  EXPECT_EQ(p.req.plan, req.plan);
  EXPECT_EQ(p.req.scale, req.scale);
  EXPECT_EQ(p.req.watchdog, req.watchdog);
  EXPECT_EQ(p.req.lockstep, req.lockstep);
  EXPECT_EQ(p.req.refresh, req.refresh);
}

TEST(ServeJournal, DoneRecordMarksComplete) {
  TempDir dir;
  const std::string path = dir.path + "/j.hsjl";
  {
    JobJournal j(path);
    j.record_plan("t1", sample_request(), 2);
    j.record_cell("t1", 0);
    j.record_cell("t1", 1);
    j.record_done("t1");
  }
  const JournalReplay r = JobJournal::replay(path);
  EXPECT_EQ(r.records, 4u);
  ASSERT_EQ(r.plans.size(), 1u);
  EXPECT_TRUE(r.plans[0].complete);
  EXPECT_EQ(r.plans[0].done_count(), 2u);
}

TEST(ServeJournal, OutOfRangeCellIndexIsToleratedNotFatal) {
  // A cell record past the plan's cell count (version drift between the
  // writer and this reader) parses as a valid record whose bit is simply
  // dropped — forward damage containment without data loss.
  TempDir dir;
  const std::string path = dir.path + "/j.hsjl";
  {
    JobJournal j(path);
    j.record_plan("t1", sample_request(), 4);
    j.record_cell("t1", 99);
  }
  const JournalReplay r = JobJournal::replay(path);
  EXPECT_EQ(r.records, 2u);
  EXPECT_EQ(r.bad_bytes, 0u);
  ASSERT_EQ(r.plans.size(), 1u);
  EXPECT_EQ(r.plans[0].done_count(), 0u);
}

TEST(ServeJournal, MissingFileIsAnEmptyReplay) {
  const JournalReplay r = JobJournal::replay("/no/such/dir/journal.hsjl");
  EXPECT_TRUE(r.plans.empty());
  EXPECT_EQ(r.records, 0u);
  EXPECT_EQ(r.bad_bytes, 0u);
}

TEST(ServeJournal, ReRecordedPlanIsAuthoritative) {
  // A daemon that recovers a plan re-records it (and the done cells it
  // trusts); a second crash must replay the *newest* record, not merge
  // with the stale one.
  TempDir dir;
  const std::string path = dir.path + "/j.hsjl";
  {
    JobJournal j(path);
    j.record_plan("t1", sample_request(), 4);
    j.record_cell("t1", 0);
    j.record_plan("t1", sample_request(), 4);  // re-record: resets done
    j.record_cell("t1", 3);
  }
  const JournalReplay r = JobJournal::replay(path);
  ASSERT_EQ(r.plans.size(), 1u);
  EXPECT_EQ(r.plans[0].done_count(), 1u);
  EXPECT_FALSE(r.plans[0].done[0]);  // pre-re-record bit did not survive
  EXPECT_TRUE(r.plans[0].done[3]);
}

// --- damage handling -------------------------------------------------------

TEST(ServeJournal, TornTailIsQuarantinedAndTruncated) {
  TempDir dir;
  const std::string path = dir.path + "/j.hsjl";
  {
    JobJournal j(path);
    j.record_plan("t1", sample_request(), 3);
    j.record_cell("t1", 0);
  }
  const auto good_size = fs::file_size(path);
  append_raw(path, "HSJL1 12ab");  // SIGKILL mid-append: no newline

  const JournalReplay r = JobJournal::replay(path);
  EXPECT_EQ(r.records, 2u);  // every intact record survived
  EXPECT_EQ(r.bad_bytes, 10u);
  ASSERT_FALSE(r.quarantine.empty());
  EXPECT_EQ(slurp(r.quarantine), "HSJL1 12ab");
  // The journal itself was truncated back to the last good record, so
  // future appends never interleave with garbage...
  EXPECT_EQ(fs::file_size(path), good_size);
  // ...and a second replay is clean.
  const JournalReplay again = JobJournal::replay(path);
  EXPECT_EQ(again.records, 2u);
  EXPECT_EQ(again.bad_bytes, 0u);
  ASSERT_EQ(again.plans.size(), 1u);
  EXPECT_TRUE(again.plans[0].done[0]);
}

TEST(ServeJournal, CorruptLineIsADamageBoundary) {
  // A line whose checksum fails ends the trustworthy prefix: records
  // beyond it — even ones that checksum fine — are quarantined with it,
  // because the stream offset is no longer trustworthy (same poisoning
  // discipline as the wire FrameDecoder).
  TempDir dir;
  const std::string path = dir.path + "/j.hsjl";
  {
    JobJournal j(path);
    j.record_plan("t1", sample_request(), 3);
  }
  const auto good_size = fs::file_size(path);
  const std::string forged =
      "HSJL1 0000000000000000 cell t1 1\n" + good_line("cell t1 2");
  append_raw(path, forged);

  const JournalReplay r = JobJournal::replay(path);
  EXPECT_EQ(r.records, 1u);
  EXPECT_EQ(r.bad_bytes, forged.size());
  ASSERT_FALSE(r.quarantine.empty());
  EXPECT_EQ(slurp(r.quarantine), forged);
  EXPECT_EQ(fs::file_size(path), good_size);
  ASSERT_EQ(r.plans.size(), 1u);
  EXPECT_EQ(r.plans[0].done_count(), 0u);  // neither cell bit applied
}

TEST(ServeJournal, UnknownTokenRecordIsDamage) {
  // A checksummed-valid cell record naming a token with no plan line
  // means the plan record was lost (quarantined earlier, or version
  // drift): stop at the last line we can fully interpret.
  TempDir dir;
  const std::string path = dir.path + "/j.hsjl";
  {
    JobJournal j(path);
    j.record_cell("ghost", 0);
  }
  const JournalReplay r = JobJournal::replay(path);
  EXPECT_EQ(r.records, 0u);
  EXPECT_GT(r.bad_bytes, 0u);
  EXPECT_TRUE(r.plans.empty());
  EXPECT_EQ(fs::file_size(path), 0u);
}

// --- writer lock and lifecycle ---------------------------------------------

TEST(ServeJournal, SecondWriterIsExcludedNotFatal) {
  TempDir dir;
  const std::string path = dir.path + "/j.hsjl";
  JobJournal first(path);
  ASSERT_TRUE(first.active());
  first.record_plan("t1", sample_request(), 1);

  JobJournal second(path);  // two daemons, one journal: the flock holds
  EXPECT_FALSE(second.active());
  second.record_plan("t2", sample_request(), 1);  // silently dropped

  const JournalReplay r = JobJournal::replay(path);
  ASSERT_EQ(r.plans.size(), 1u);
  EXPECT_EQ(r.plans[0].token, "t1");

  first = JobJournal{};  // releases the lock with the fd
  JobJournal third(path);
  EXPECT_TRUE(third.active());
}

TEST(ServeJournal, TruncateAllThenReRecordKeepsTheLogBounded) {
  TempDir dir;
  const std::string path = dir.path + "/j.hsjl";
  JobJournal j(path);
  j.record_plan("old", sample_request(), 8);
  for (std::size_t i = 0; i < 8; ++i) j.record_cell("old", i);
  j.record_done("old");
  // Startup replay consumed the log: recovered state is re-recorded
  // fresh, so the journal never grows across restarts.
  j.truncate_all();
  j.record_plan("new", sample_request(), 2);
  j.record_cell("new", 1);

  const JournalReplay r = JobJournal::replay(path);
  EXPECT_EQ(r.records, 2u);
  ASSERT_EQ(r.plans.size(), 1u);
  EXPECT_EQ(r.plans[0].token, "new");
  EXPECT_TRUE(r.plans[0].done[1]);
}

TEST(ServeJournal, EmptyPathIsInactive) {
  JobJournal j{std::string()};
  EXPECT_FALSE(j.active());
  j.record_plan("t", sample_request(), 1);  // must be a safe no-op
}

// --- quarantine naming -----------------------------------------------------

TEST(DiagQuarantine, PathsAreUniquePerCall) {
  const std::string a = diag::quarantine_path_for("/tmp/x/journal.hsjl");
  const std::string b = diag::quarantine_path_for("/tmp/x/journal.hsjl");
  EXPECT_NE(a, b);
  EXPECT_NE(a.find("/tmp/x/journal.hsjl.corrupt."), std::string::npos) << a;
}

TEST(DiagQuarantine, FileMoveKeepsTheSpecimen) {
  TempDir dir;
  const std::string victim = dir.path + "/damaged.bin";
  append_raw(victim, "specimen-bytes");
  const std::string dest = diag::quarantine_file(victim);
  ASSERT_FALSE(dest.empty());
  EXPECT_FALSE(fs::exists(victim));
  EXPECT_EQ(slurp(dest), "specimen-bytes");
}

// --- atomic publish ----------------------------------------------------------

TEST(DiagPublish, WritesTheEntryAndLeavesNoTempOnFailure) {
  TempDir dir;
  const std::string entry = dir.path + "/entry";
  EXPECT_TRUE(diag::publish_file(entry, [](std::ostream& o) { o << "v1"; }));
  EXPECT_EQ(slurp(entry), "v1");

  // A failed write keeps the published entry and removes its temp file.
  EXPECT_FALSE(diag::publish_file(entry, [](std::ostream& o) {
    o << "torn";
    o.setstate(std::ios::badbit);
  }));
  EXPECT_EQ(slurp(entry), "v1");
  for (const auto& f : fs::directory_iterator(dir.path)) {
    const std::string name = f.path().filename().string();
    EXPECT_TRUE(name == "entry" || name == "entry.lock") << name;
  }

  EXPECT_FALSE(diag::publish_file(dir.path + "/missing/entry",
                                  [](std::ostream& o) { o << "x"; }));
}

}  // namespace
