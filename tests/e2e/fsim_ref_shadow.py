#!/usr/bin/env python3
"""The reference interpreter shadows every threaded run of the paper plan.

Usage: fsim_ref_shadow.py HILAB

  1. cold: the test-scale paper plan against an empty cache with
     HIDISC_FSIM_REF=1, so the reference switch interpreter
     shadow-executes every threaded run.  A divergence throws inside
     trace generation and fails its cell, so a clean cold run with
     traces rebuilt is a byte-identity proof over the whole grid.
  2. warm: the same plan with the shadow off simulates nothing.

The runs write `--bench-json` legs FSIM_paper/cold and FSIM_paper/warm.
"""
import os
import sys

from e2e_common import run_plan, threads, workdir


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    hilab = sys.argv[1]
    with workdir("fsim_ref_shadow") as wd:
        plan = ["--plan", "paper", "--scale", "test", "--cache-dir",
                os.path.join(wd, "cache"), "--threads", threads()]
        shadow = {**os.environ, "HIDISC_FSIM_REF": "1"}
        no_shadow = {k: v for k, v in os.environ.items()
                     if k != "HIDISC_FSIM_REF"}
        cold = run_plan(hilab, wd, "cold.json", *plan,
                        bench="FSIM_paper/cold", env=shadow)
        warm = run_plan(hilab, wd, "warm.json", *plan,
                        bench="FSIM_paper/warm", env=no_shadow)

    # A shadow divergence throws inside trace generation, so the node
    # would land in `failed`: zero failures IS the equivalence assertion.
    assert cold["failed"] == 0, cold["nodes"]
    assert cold["nodes"]["trace"]["rebuilt"] > 0, cold["nodes"]
    assert warm["failed"] == 0, warm["nodes"]
    assert warm["simulated"] == 0, warm
    print("cold nodes:", cold["nodes"])
    print("warm nodes:", warm["nodes"])


if __name__ == "__main__":
    main()
