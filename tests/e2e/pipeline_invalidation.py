#!/usr/bin/env python3
"""Cache invalidation of the artifact pipeline (docs/PIPELINE.md).

Usage: pipeline_invalidation.py HILAB

Runs `hilab --plan paper --scale test` three times against one fresh
cache directory, asserting on the per-phase node stats of each export:

  1. cold: traces and sims are built;
  2. `--override 'HiDISC:dram=200'`: a machine-preset-only change
     rebuilds zero trace nodes and re-simulates exactly the HiDISC cells;
  3. warm: nothing rebuilds, and the results are identical to cold.

Each run writes a `--bench-json` leg (PIPE_paper/cold,
PIPE_paper/preset-invalidate, PIPE_paper/warm).
"""
import os
import sys

from e2e_common import results, run_plan, threads, workdir


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    hilab = sys.argv[1]
    with workdir("pipeline_invalidation") as wd:
        plan = ["--plan", "paper", "--scale", "test", "--cache-dir",
                os.path.join(wd, "cache"), "--threads", threads()]
        cold = run_plan(hilab, wd, "cold.json", *plan,
                        bench="PIPE_paper/cold")
        inval = run_plan(hilab, wd, "invalidate.json", *plan,
                         "--override", "HiDISC:dram=200",
                         bench="PIPE_paper/preset-invalidate")
        warm = run_plan(hilab, wd, "warm.json", *plan, bench="PIPE_paper/warm")

    # Cold: the graph actually ran — traces and sims were built.
    assert cold["nodes"]["trace"]["rebuilt"] > 0, cold["nodes"]
    assert cold["nodes"]["sim"]["rebuilt"] > 0, cold["nodes"]
    assert cold["failed"] == 0, cold

    # Preset-only change: ZERO trace nodes rebuilt (machine config never
    # reaches trace keys), and the cells that re-simulated are exactly
    # the overridden preset's.  A cell counts as re-simulated when its
    # result was computed in this run: cells of one config (Pointer on
    # HiDISC at the default latencies and at 12/120) share a sim key, and
    # whichever stores its result first serves the other as a cache hit.
    assert inval["nodes"]["trace"]["rebuilt"] == 0, inval["nodes"]
    fresh = {c["key"] for c in inval["cells"] if not c["cached"]}
    resimulated = {(c["workload"], c["preset"], c["tag"])
                   for c in inval["cells"] if c["key"] in fresh}
    hidisc = {(c["workload"], c["preset"], c["tag"])
              for c in inval["cells"] if c["preset"] == "HiDISC"}
    assert resimulated == hidisc, (resimulated, hidisc)
    assert inval["failed"] == 0, inval

    # Warm: nothing rebuilt anywhere, results identical to cold.
    assert warm["nodes"]["trace"]["rebuilt"] == 0, warm["nodes"]
    assert warm["nodes"]["sim"]["rebuilt"] == 0, warm["nodes"]
    assert warm["simulated"] == 0, warm
    assert results(cold) == results(warm), "cold/warm results diverged"

    print("cold nodes:", cold["nodes"])
    print("invalidate nodes:", inval["nodes"])
    print("warm nodes:", warm["nodes"])


if __name__ == "__main__":
    main()
