#!/usr/bin/env python3
"""Every JSON document the command-line tools emit parses and carries its
fields.

Usage: json_outputs.py HISA HILAB DEADLOCK_KERNEL

  1. The deliberately deadlocking kernel under `hisa sim --lockstep
     --watchdog 1 --deadlock-json` exits 3, and its report is well-formed
     and classified.
  2. `hilab --plan fig10 --scale test --no-cache --json -` owns stdout
     with one JSON document.
  3. `hilab --bench-json - --bench-name NAME` does the same for a name
     holding a quote, a backslash, a tab and 600 more bytes, and keeps the
     name intact.
  4. `hilab --plan fig8 --scale test --no-cache --lockstep --watchdog 1
     --json -` fails every cell with a deadlock report, and still puts
     each of its 28 cells, diagnostic included, on a line of its own.
"""
import json
import os
import sys

from e2e_common import run, workdir


def check_deadlock_report(hisa, kernel, wd):
    path = os.path.join(wd, "deadlock.json")
    proc = run([hisa, "sim", kernel, "--machine", "ss", "--lockstep",
                "--watchdog", "1", "--deadlock-json", path])
    print("hisa exit code:", proc.returncode)
    assert proc.returncode == 3, proc.stderr

    with open(path) as f:
        rep = json.load(f)
    assert rep["kind"] == "deadlock", rep
    for field in ("cause", "cause_detail", "preset", "scheduler", "now",
                  "last_progress_cycle", "queues", "cores", "recent",
                  "fetch"):
        assert field in rep, f"missing {field}"
    assert rep["queues"], "no queue snapshots"
    assert rep["recent"], "flight recorder empty"
    print("cause:", rep["cause"])
    print("detail:", rep["cause_detail"])


def check_plan_export(hilab):
    proc = run([hilab, "--plan", "fig10", "--scale", "test", "--no-cache",
                "--quiet", "--json", "-"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["plan"] == "fig10", doc["plan"]
    assert doc["failed"] == 0, doc
    assert doc["cells"], "no cells"
    for cell in doc["cells"]:
        assert cell["ok"] is True, cell
        assert cell["result"]["cycles"] > 0, cell
    print("fig10 export:", len(doc["cells"]), "cells")


def check_bench_json(hilab):
    name = 'q"x\\y\t' + "n" * 600
    proc = run([hilab, "--plan", "fig10", "--scale", "test", "--no-cache",
                "--quiet", "--bench-json", "-", "--bench-name", name])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    bench = doc["benchmarks"][0]
    assert bench["name"] == name, bench["name"]
    assert bench["items_per_second"] > 0, bench
    assert bench["label"] == "items = cells", bench
    print("bench json: name of", len(name), "bytes intact")


def check_failed_cells_one_line_each(hilab):
    proc = run([hilab, "--plan", "fig8", "--scale", "test", "--no-cache",
                "--lockstep", "--watchdog", "1", "--quiet", "--json", "-"])
    assert proc.returncode == 4, (proc.returncode, proc.stderr)
    doc = json.loads(proc.stdout)
    lines = proc.stdout.splitlines()
    first = lines.index('  "cells": [') + 1
    last = lines.index("  ]", first)
    cell_lines = lines[first:last]
    assert len(cell_lines) == len(doc["cells"]) == 28, len(cell_lines)
    for line, cell in zip(cell_lines, doc["cells"]):
        parsed = json.loads(line.strip().rstrip(","))
        assert parsed == cell, line
        assert cell["ok"] is False, cell
        assert cell["diagnostic"]["kind"] == "deadlock", cell
    print("failed fig8 export:", len(cell_lines), "cells on one line each")


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    hisa, hilab, kernel = sys.argv[1:]
    with workdir("json_outputs") as wd:
        check_deadlock_report(hisa, kernel, wd)
    check_plan_export(hilab)
    check_bench_json(hilab)
    check_failed_cells_one_line_each(hilab)


if __name__ == "__main__":
    main()
