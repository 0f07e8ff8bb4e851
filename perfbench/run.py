#!/usr/bin/env python3
"""Build and run the perfbench host-time benchmark from a source checkout.

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (CMake, RelWithDebInfo) under
.bench_build/ at the checkout root, then runs the benchmark binary with a
scratch work directory under .bench_build/ that is removed afterwards.
Build output goes to standard error; the benchmark's standard output is
passed through, so its last line is the result JSON.  With --trace 1 the
traced pass's spans are written to .bench_build/spans-<workload>.json
(Chrome trace-event format, opens in Perfetto).

Exits with status 2, printing no result, when the checkout has no
simulator sources to build.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BUILD_TYPE = "RelWithDebInfo"


def build():
    BUILD_ROOT.mkdir(exist_ok=True)
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
             "-j", str(os.cpu_count() or 1)],
            check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench"


def source_id():
    """The git commit; with "-dirty-<digest>" when src/ or perfbench/
    differ from it, or "nogit-<digest>" in a source export without git
    metadata, so runs of different sources never share an id."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        commit = git("rev-parse", "--short=12", "HEAD")
        if not git("status", "--porcelain", "--", "src", "perfbench"):
            return commit
        commit += "-dirty"
    except (OSError, subprocess.CalledProcessError):
        commit = "nogit"
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return f"{commit}-{h.hexdigest()[:12]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["suite-cold", "pointer-sweep", "warm-replay"])
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 keeps the canonical seeds")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["paper", "test"], default="paper")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print(f"perfbench: no simulator sources under {ROOT}/src",
              file=sys.stderr)
        return 2

    binary = build()
    work = BUILD_ROOT / f"work-{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--work-dir", str(work),
           "--commit", source_id()]
    if args.trace:
        cmd += ["--spans", str(BUILD_ROOT / f"spans-{args.workload}.json")]
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
