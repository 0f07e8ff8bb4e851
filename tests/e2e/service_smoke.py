#!/usr/bin/env python3
"""The experiment service end to end, over a Unix socket and over TCP.

Usage: service_smoke.py HISERVED HILAB

  1. A hiserved daemon with 2 forked workers and a fresh cache runs the
     test-scale paper plan for a client, with one worker SIGKILLed by
     the daemon itself (`--chaos-kill-assign 5`, certain to land even
     when the plan is quick) and one more from outside.  The crashes
     surface as retries, never as failures.
  2. A warm re-run simulates zero cells and returns the cold results.
  3. The daemon drains on SIGTERM within 10 s.
  4. A second daemon on a free loopback TCP port shares the cache.  A
     client under seeded network chaos (`--chaos-net '29:drop@5,split'`:
     a mid-stream drop plus split sends) reconnects, resumes by plan
     token, and gets the Unix-socket results with zero simulations.
     That daemon drains too.
"""
import os
import subprocess
import sys

from e2e_common import (Daemon, load, plan_cmd, results, run_plan,
                        service_stats, workdir)

PAPER = ["--plan", "paper", "--scale", "test"]


def kill_one_worker(daemon):
    children = subprocess.run(["pgrep", "-P", str(daemon.proc.pid)],
                              stdout=subprocess.PIPE, text=True).stdout
    worker = children.split()[0]
    print("killing worker", worker)
    subprocess.run(["kill", "-KILL", worker], check=True)


def unix_leg(hiserved, hilab, wd):
    cache = os.path.join(wd, "cache")
    with Daemon(hiserved, os.path.join(wd, "daemon.log"),
                "--workers", "2", "--cache-dir", cache,
                "--chaos-kill-assign", "5",
                "--stats-file", os.path.join(wd, "service-stats-exit.json")
                ) as daemon:
        client = subprocess.Popen(
            plan_cmd(hilab, wd, "cold.json", "--connect", daemon.endpoint,
                     *PAPER),
            stdout=subprocess.DEVNULL)
        # Give the plan a moment to start, then kill one worker process
        # (a direct child of the daemon): the plan must still succeed.
        try:
            client.wait(timeout=2)
        except subprocess.TimeoutExpired:
            pass
        kill_one_worker(daemon)
        assert client.wait() == 0, "cold client failed"

        warm = run_plan(hilab, wd, "warm.json", "--connect", daemon.endpoint,
                        *PAPER)
        stats = service_stats(hilab, daemon.endpoint,
                              os.path.join(wd, "service-stats.json"))

        cold = load(os.path.join(wd, "cold.json"))
        assert cold["simulated"] > 0, cold
        assert warm["simulated"] == 0, warm
        assert warm["cache_hits"] == len(warm["cells"]), warm
        # Identical results cold vs warm, and the kill was a retry.
        assert results(cold) == results(warm), "cold/warm results diverged"
        assert stats["retries"] >= 1, stats
        assert stats["worker_restarts"] >= 1, stats
        assert stats["jobs_failed"] == 0, stats
        assert stats["cells_failed"] == 0, stats
        print("jobs_done:", stats["jobs_done"], "retries:", stats["retries"],
              "mem_hits:", stats["mem_hits"])

        daemon.drain()
    return cache, warm


def tcp_leg(hiserved, hilab, wd, cache, warm):
    with Daemon(hiserved, os.path.join(wd, "daemon-tcp.log"),
                "--workers", "2", "--cache-dir", cache, tcp=True) as daemon:
        tcp = run_plan(hilab, wd, "tcp.json", "--connect", daemon.endpoint,
                       *PAPER, "--chaos-net", "29:drop@5,split",
                       "--reconnect", "8")
        stats = service_stats(hilab, daemon.endpoint,
                              os.path.join(wd, "service-stats-tcp.json"))

        assert results(warm) == results(tcp), "tcp/unix-socket results diverged"
        # The cache directory is shared with the Unix leg, so every cell
        # must be served without simulation.
        assert tcp["simulated"] == 0, tcp
        assert stats["plans_completed"] >= 1, stats
        print("tcp leg ok:", len(tcp["cells"]), "cells,", tcp["cache_hits"],
              "cache hits")

        daemon.drain()


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    hiserved, hilab = sys.argv[1:]
    with workdir("service_smoke") as wd:
        cache, warm = unix_leg(hiserved, hilab, wd)
        tcp_leg(hiserved, hilab, wd, cache, warm)


if __name__ == "__main__":
    main()
