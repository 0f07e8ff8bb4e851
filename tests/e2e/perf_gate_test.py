#!/usr/bin/env python3
"""tools/perf_gate.py on synthetic google-benchmark JSON.

Usage: perf_gate_test.py PERF_GATE

  1. A run within --max-regression of the baseline passes; one beyond it
     fails, and names the regressed benchmark.
  2. A failing gate still appends its entry to the trajectory.
  3. Each leg's unit comes from its label: "items = simulated cycles"
     gives cycles/s (plus sim_cycles_per_sec), "items = cells" gives
     cells/s, no label gives items/s.  Every entry records host and nproc.
  4. A placeholder commit id is refused when CI is set, and only warned
     about otherwise.
  5. Several run files merge into one set of legs, for the gate, the
     trajectory and --update alike.
"""
import json
import os
import sys

from e2e_common import load, run, workdir

COMMIT = "0123456789abcdef0123456789abcdef01234567"


def bench(name, ips, label=None):
    b = {"name": name, "run_type": "iteration", "items_per_second": ips}
    if label:
        b["label"] = label
    return b


def write(wd, name, *benchmarks):
    path = os.path.join(wd, name)
    with open(path, "w") as f:
        json.dump({"benchmarks": list(benchmarks)}, f)
    return path


def gate(tool, *args, ci=False):
    env = {k: v for k, v in os.environ.items()
           if k not in ("CI", "GITHUB_SHA")}
    if ci:
        env["CI"] = "true"
    return run([sys.executable, tool, *args], env=env)


def check_gate(tool, wd):
    base = write(wd, "base.json", bench("BM_A", 100.0), bench("BM_B", 50.0))
    within = write(wd, "within.json", bench("BM_A", 80.0), bench("BM_B", 60.0))
    proc = gate(tool, base, within, "--max-regression", "0.25")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "perf_gate: pass" in proc.stdout, proc.stdout

    beyond = write(wd, "beyond.json", bench("BM_A", 70.0), bench("BM_B", 50.0))
    proc = gate(tool, base, beyond, "--max-regression", "0.25")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "BM_A" in proc.stderr and "BM_B" not in proc.stderr, proc.stderr

    # The same drop passes a looser bound.
    proc = gate(tool, base, beyond, "--max-regression", "0.35")
    assert proc.returncode == 0, proc.stdout + proc.stderr

    # The median aggregate of a repeated run stands for the benchmark.
    repeated = write(wd, "repeated.json",
                     bench("BM_A", 10.0),
                     {"name": "BM_A_median", "run_name": "BM_A",
                      "run_type": "aggregate", "aggregate_name": "median",
                      "items_per_second": 99.0})
    proc = gate(tool, base, repeated)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    print("gate: pass within bound, fail beyond it")
    return base, beyond


def check_trajectory(tool, wd, base, beyond):
    traj = os.path.join(wd, "trajectory.json")
    proc = gate(tool, base, beyond, "--append-trajectory", traj,
                "--commit", COMMIT)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    history = load(traj)
    assert len(history) == 1, history
    entry = history[0]
    assert entry["commit"] == COMMIT, entry
    assert entry["benchmarks"]["BM_A"]["items_per_second"] == 70.0, entry
    assert entry["host"] and entry["nproc"] >= 1, entry
    assert "label" not in entry, entry
    print("trajectory: append survives a failing gate")

    units = write(wd, "units.json",
                  bench("BM_Machine", 2e6, "items = simulated cycles, Pointer"),
                  bench("PIPE_paper/cold", 600.0, "items = cells"),
                  bench("BM_Bare", 5.0))
    proc = gate(tool, base, units, "--append-trajectory", traj,
                "--commit", COMMIT, "--label", "pipeline")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    entry = load(traj)[-1]
    assert entry["label"] == "pipeline", entry
    legs = entry["benchmarks"]
    assert legs["BM_Machine"] == {"items_per_second": 2e6, "unit": "cycles/s",
                                  "sim_cycles_per_sec": 2e6}, legs
    assert legs["PIPE_paper/cold"] == {"items_per_second": 600.0,
                                       "unit": "cells/s"}, legs
    assert legs["BM_Bare"] == {"items_per_second": 5.0,
                               "unit": "items/s"}, legs
    print("trajectory: units inferred from labels")
    return traj


def check_commit_hygiene(tool, base, traj):
    before = len(load(traj))
    proc = gate(tool, base, base, "--append-trajectory", traj, ci=True)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    proc = gate(tool, base, base, "--append-trajectory", traj,
                "--commit", "local", ci=True)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert len(load(traj)) == before, "a refused entry was appended"

    proc = gate(tool, base, base, "--append-trajectory", traj,
                "--commit", "local")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "warning" in proc.stderr, proc.stderr
    assert load(traj)[-1]["commit"] == "local"
    print("hygiene: placeholder commit refused under CI")


def check_merge(tool, wd, base):
    cold = write(wd, "bench-cold.json",
                 bench("PF_prefetch/cold", 300.0, "items = cells"))
    warm = write(wd, "bench-warm.json",
                 bench("PF_prefetch/warm", 9000.0, "items = cells"))
    traj = os.path.join(wd, "merged.json")
    proc = gate(tool, base, cold, warm, "--append-trajectory", traj,
                "--commit", COMMIT, "--label", "prefetch")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    history = load(traj)
    assert len(history) == 1, history
    assert sorted(history[0]["benchmarks"]) == ["PF_prefetch/cold",
                                                "PF_prefetch/warm"], history

    # A regression in any one file of the set fails the gate.
    slow = write(wd, "slow.json", bench("BM_B", 10.0))
    proc = gate(tool, base, cold, slow)
    assert proc.returncode == 1, proc.stdout + proc.stderr

    new_base = os.path.join(wd, "new-base.json")
    proc = gate(tool, new_base, cold, warm, "--update")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    names = [b["name"] for b in load(new_base)["benchmarks"]]
    assert names == ["PF_prefetch/cold", "PF_prefetch/warm"], names
    print("merge: several run files form one set")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    tool = sys.argv[1]
    with workdir("perf_gate") as wd:
        base, beyond = check_gate(tool, wd)
        traj = check_trajectory(tool, wd, base, beyond)
        check_commit_hygiene(tool, base, traj)
        check_merge(tool, wd, base)


if __name__ == "__main__":
    main()
