#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 smtbench/run.py --workload fig5-cold --seed 1 --seconds 20 --trace 0

Builds the simulator and the smtbench driver from source into
.bench_build/ (an incremental no-op after the first run), then runs one
workload. The driver prints a provenance record, the paper-error table,
every metric with its unit, and as its last line the JSON summary
{"correct", "attempted", "failed", "metrics"}. The exit code is the
driver's: non-zero when any output check failed or the build failed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "smtbench"
WORKLOADS = ("fig5-cold", "table3-warm", "replay-remote")

# Wall-clock limits for one measured run and for one build step (the
# first run in a fresh checkout builds everything).
RUN_DEADLINE_S = 175.0
BUILD_DEADLINE_S = 850.0


def fail(code, message):
    print(f"smtbench: {message}", file=sys.stderr)
    sys.exit(code)


def jobs():
    return max(1, len(os.sched_getaffinity(0)))


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(2, f"no simulator sources in {ROOT}; nothing to benchmark")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "smtbench", "-j", str(jobs())])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_DEADLINE_S)
        except subprocess.TimeoutExpired:
            fail(3, "build timed out")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(3, f"build step failed: {' '.join(step)}")


def reap_group(pgid):
    """Kill whatever is left of the driver's process group (a store
    server orphaned by a fatal error) and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail(2, "--seed must be >= 0 and --seconds > 0")

    build()
    driver = [str(BUILD_DIR / "smtbench"),
              "--workload", args.workload,
              "--seed", str(args.seed),
              "--seconds", str(args.seconds),
              "--trace", args.trace,
              "--out-dir", str(BUILD_ROOT / "out"),
              "--reference", str(BENCH_DIR / "paper_reference.json"),
              "--smtstore", str(BUILD_DIR / "smtsim" / "smtstore")]
    started = time.monotonic()
    # Own process group: a timeout takes the driver's store server too.
    proc = subprocess.Popen(driver, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        reap_group(proc.pid)
        fail(4, f"run exceeded {RUN_DEADLINE_S:.0f} s")
    reap_group(proc.pid)
    sys.stdout.write(out)
    sys.stdout.flush()
    print(f"smtbench: driver finished in {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    sys.exit(0 if proc.returncode == 0 else max(1, proc.returncode))


if __name__ == "__main__":
    main()
