#!/usr/bin/env python3
"""The prefetch plan's figure shape and cache-invalidation scope.

Usage: prefetch_plan.py HILAB

Runs `hilab --plan prefetch --scale test` three times against one fresh
cache directory:

  1. cold: every +pf cell (CP+AP with an L1D hardware prefetcher) carries
     prefetch accounting, and the plain cells train no prefetcher;
  2. warm: nothing rebuilds, and the results are identical to cold;
  3. with `--override 'CP+AP:prefetch=nextline:deg1'`: no trace rebuilds,
     and only CP+AP cells re-simulate.

The cold and warm runs write `--bench-json` legs PF_prefetch/cold and
PF_prefetch/warm.
"""
import os
import sys

from e2e_common import results, run_plan, threads, workdir


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    hilab = sys.argv[1]
    with workdir("prefetch_plan") as wd:
        plan = ["--plan", "prefetch", "--scale", "test", "--cache-dir",
                os.path.join(wd, "cache"), "--threads", threads()]
        cold = run_plan(hilab, wd, "prefetch-cold.json", *plan,
                        bench="PF_prefetch/cold")
        warm = run_plan(hilab, wd, "prefetch-warm.json", *plan,
                        bench="PF_prefetch/warm")
        over = run_plan(hilab, wd, "prefetch-override.json", *plan,
                        "--override", "CP+AP:prefetch=nextline:deg1")

    # Five curves per (workload, latency) point, +pf cells carry
    # nonzero prefetch accounting on the regular workload.
    assert cold["failed"] == 0, cold
    pf_cells = [c for c in cold["cells"] if c["tag"].endswith("+pf")]
    assert len(pf_cells) * 5 == len(cold["cells"]), len(cold["cells"])
    for c in pf_cells:
        r = c["result"]
        assert "pf.coverage" in r and "pf.accuracy" in r, r.keys()
        if c["workload"] == "Neighborhood":
            assert r["pf.issued"] > 0 and r["pf.coverage"] > 0.2, r
    plain = [c for c in cold["cells"] if not c["tag"].endswith("+pf")]
    assert all(c["result"]["pf.trains"] == 0 for c in plain)

    # Warm: full cache hit, results bit-identical to cold.
    assert warm["nodes"]["trace"]["rebuilt"] == 0, warm["nodes"]
    assert warm["nodes"]["sim"]["rebuilt"] == 0, warm["nodes"]
    assert results(cold) == results(warm), "cold/warm results diverged"

    # Prefetcher override: ZERO trace rebuilds, and only the
    # overridden preset's cells re-simulated.  (A subset, not an
    # exact match: the override collapses the plain and +pf CP+AP
    # cells into identical configs, so some dedupe into same-run
    # cache hits.)
    assert over["nodes"]["trace"]["rebuilt"] == 0, over["nodes"]
    resim = {(c["workload"], c["preset"], c["tag"])
             for c in over["cells"] if not c["cached"]}
    target = {(c["workload"], c["preset"], c["tag"])
              for c in over["cells"] if c["preset"] == "CP+AP"}
    assert resim and resim <= target, (resim, target)
    assert over["failed"] == 0, over

    print("pf cells:", len(pf_cells), "of", len(cold["cells"]))
    print("override nodes:", over["nodes"])


if __name__ == "__main__":
    main()
