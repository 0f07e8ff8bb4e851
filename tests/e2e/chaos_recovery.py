#!/usr/bin/env python3
"""Crash recovery of the experiment service (docs/SERVE.md).

Usage: chaos_recovery.py HISERVED HILAB

  1. Ground truth: the test-scale paper plan run locally, uncached.
  2. A one-worker daemon runs the plan for a client under seeded network
     chaos (`--chaos-net '17:corrupt@2,split'`: a corrupted frame and
     split sends).  Once at least 5 cells are in the job journal (polled
     every 10 ms) the daemon is SIGKILLed.  If the plan finishes before
     the kill lands, the script fails.
  3. A successor daemon on the same socket and cache replays the
     journal.  The client reconnects and resumes by token; its results
     are bit-identical to the local run, and no journaled cell is
     simulated again.
  4. A warm client run with another injected drop (`23:drop@6`) times
     the reconnect-resume path.

Both client runs write `--bench-json` legs (SVC_recover/kill-restart,
SVC_recover/reconnect).
"""
import os
import subprocess
import sys
import time

from e2e_common import (Daemon, load, plan_cmd, results, run_plan,
                        service_stats, threads, workdir)


def journaled_cells(cache):
    try:
        with open(os.path.join(cache, "journal.hsjl"), "rb") as f:
            return sum(1 for line in f if b" cell " in line)
    except FileNotFoundError:
        return 0


PAPER = ["--plan", "paper", "--scale", "test"]


def kill_mid_plan(doomed, client, cache):
    """SIGKILL the daemon once at least 5 cells are journaled."""
    deadline = time.monotonic() + 120
    while (journaled_cells(cache) < 5 and client.poll() is None
           and time.monotonic() < deadline):
        time.sleep(0.01)
    n = journaled_cells(cache)
    print("journaled cells before kill:", n)
    assert client.poll() is None, "plan finished before the kill"
    assert n >= 5, n
    doomed.kill()


def check_recovery(hilab, wd, successor, local):
    stats = service_stats(hilab, successor.endpoint,
                          os.path.join(wd, "chaos-stats.json"))
    remote = load(os.path.join(wd, "remote.json"))

    # The crash + chaos were invisible in the results: bit-identical to
    # the local run, nothing failed.
    assert results(local) == results(remote), \
        "recovered results diverged from local run"
    assert remote["failed"] == 0, remote

    # The successor actually recovered from the journal and the client
    # actually re-attached (not re-submitted).
    assert stats["journal_plans_recovered"] == 1, stats
    recovered = stats["journal_cells_recovered"]
    assert recovered >= 5, stats
    assert stats["resumes"] >= 1, stats
    assert stats["jobs_failed"] == 0, stats
    assert stats["cells_failed"] == 0, stats

    # Zero journaled-warm cells were re-simulated: the successor's
    # simulation count is bounded by the cells the journal did NOT vouch
    # for (journaled cells return as disk-cache or intra-plan dedup hits).
    cells = len(remote["cells"])
    simulated = stats["cell_latency_ms"]["count"]
    assert simulated <= cells - recovered, (simulated, cells, recovered)
    assert stats["disk_cache_hits"] >= 1, stats
    print("cells:", cells, "recovered:", recovered, "re-simulated:",
          simulated, "disk hits:", stats["disk_cache_hits"])


def warm_reconnect(hilab, wd, successor):
    """Everything is cached, and a seeded drop severs the stream
    mid-delivery, so the wall clock is dominated by reconnect + resume."""
    warm = run_plan(hilab, wd, "warm.json", "--connect", successor.endpoint,
                    *PAPER, "--chaos-net", "23:drop@6", "--reconnect", "8",
                    bench="SVC_recover/reconnect")
    assert warm["simulated"] == 0, warm
    assert warm["failed"] == 0, warm


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    hiserved, hilab = sys.argv[1:]
    with workdir("chaos_recovery") as wd:
        local = run_plan(hilab, wd, "local.json", *PAPER, "--no-cache",
                         "--threads", threads())
        cache = os.path.join(wd, "cache")

        # One worker keeps the plan in flight long enough to kill the
        # daemon mid-run; the client rides seeded chaos on top of the
        # crash it is about to survive.
        with Daemon(hiserved, os.path.join(wd, "daemon-a.log"),
                    "--workers", "1", "--cache-dir", cache) as doomed:
            client = subprocess.Popen(
                plan_cmd(hilab, wd, "remote.json", "--connect",
                         doomed.endpoint, *PAPER,
                         "--chaos-net", "17:corrupt@2,split",
                         "--reconnect", "25",
                         bench="SVC_recover/kill-restart"),
                stdout=subprocess.DEVNULL)
            try:
                kill_mid_plan(doomed, client, cache)
                with Daemon(hiserved, os.path.join(wd, "daemon-b.log"),
                            "--workers", "2", "--cache-dir", cache,
                            "--stats-file",
                            os.path.join(wd, "chaos-stats-exit.json"),
                            sock=doomed.endpoint) as successor:
                    assert client.wait() == 0, "client did not recover"
                    check_recovery(hilab, wd, successor, local)
                    warm_reconnect(hilab, wd, successor)
                    successor.drain()
            finally:
                if client.poll() is None:
                    client.kill()
            print(doomed.log_text())


if __name__ == "__main__":
    main()
