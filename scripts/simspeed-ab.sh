#!/usr/bin/env bash
# simspeed-ab.sh OLD NEW — same-host interleaved simulator-speed A/B.
#
# OLD and NEW are two smtsweep binaries (typically the merge-base and
# the head of a pull request, built side by side in one job). The
# script runs `--bench-simspeed` on each, alternating which side goes
# first, and records for every run its wall time and its own CPU time
# (user + system, from the child's rusage). Per shape it compares the
# per-pair NEW/OLD cycles/sec ratios.
#
# The number of pairs adapts to the noise: after at least 5 pairs, a
# percentile-bootstrap 95% interval of each shape's median ratio is
# computed, and pairs are added until every shape's interval lies
# wholly above or wholly below the 0.9 threshold, up to 30 pairs. It
# then prints per shape the median ratio with its interval and IQR,
# each side's median issue-stage ns per simulated cycle, and each
# side's median wall and CPU seconds per run.
#
# Exits 1 when a shape's interval lies wholly below 0.9 (a >10%
# throughput loss) or when a shape is still unresolved at the cap
# (the interval is printed); 2 on usage errors. Because both binaries
# run on the same machine in the same job, interleaved, the gate needs
# no host-locked baseline.
set -u

if [ $# -ne 2 ]; then
    echo "usage: simspeed-ab.sh OLD_SMTSWEEP NEW_SMTSWEEP" >&2
    exit 2
fi
for bin in "$1" "$2"; do
    if [ ! -x "$bin" ]; then
        echo "simspeed-ab: not an executable: $bin" >&2
        exit 2
    fi
done

exec python3 - "$1" "$2" <<'PY'
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

old, new = sys.argv[1], sys.argv[2]
MIN_PAIRS, MAX_PAIRS = 5, 30
THRESHOLD = 0.9
RESAMPLES = 2000


def run(binary, out):
    """One --bench-simspeed run: its shapes, wall and own CPU seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    proc = subprocess.run([binary, "--bench-simspeed", "--json", out],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    wall = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        sys.stderr.write(f"simspeed-ab: {binary} failed:\n")
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.exit(2)
    cpu = (after.ru_utime - before.ru_utime) + \
        (after.ru_stime - before.ru_stime)
    with open(out) as f:
        shapes = {s["name"]: s for s in json.load(f)["shapes"]}
    return {"shapes": shapes, "wall": wall, "cpu": cpu}


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def median_interval(ratios, rng):
    """Percentile-bootstrap 95% interval of the median."""
    meds = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                  for _ in range(RESAMPLES))
    return meds[int(0.025 * RESAMPLES)], meds[int(0.975 * RESAMPLES) - 1]


def issue_ns(s):
    return s["stage_ns"]["issue"] / s["cycles"] if s["cycles"] else 0.0


work = tempfile.mkdtemp(prefix="simspeed-ab.")
pairs = []  # (old run, new run)
rng = random.Random(1)  # fixed seed: the same runs give the same verdict
while True:
    i = len(pairs) + 1
    a = os.path.join(work, f"old-{i}.json")
    b = os.path.join(work, f"new-{i}.json")
    if i % 2:
        o = run(old, a)
        n = run(new, b)
    else:
        n = run(new, b)
        o = run(old, a)
    pairs.append((o, n))
    shapes = [s for s in pairs[0][0]["shapes"]
              if all(s in o["shapes"] and s in n["shapes"]
                     for o, n in pairs)]
    ratios = {s: [n["shapes"][s]["cycles_per_sec"] /
                  o["shapes"][s]["cycles_per_sec"] for o, n in pairs]
              for s in shapes}
    intervals = {s: median_interval(r, rng) for s, r in ratios.items()}
    unresolved = [s for s, (lo, hi) in intervals.items()
                  if lo < THRESHOLD <= hi]
    print(f"simspeed-ab: pair {i} done"
          + (f", unresolved: {', '.join(unresolved)}"
             if i >= MIN_PAIRS and unresolved else ""), flush=True)
    if i >= MIN_PAIRS and (not unresolved or i >= MAX_PAIRS):
        break

for f in os.listdir(work):
    os.remove(os.path.join(work, f))
os.rmdir(work)

print(f"\n{'shape':<20} {'ratio':>6} {'95% interval':>15} {'IQR':>6} "
      f"{'issue ns/cyc old':>17} {'new':>6}")
failed = []
for name in shapes:
    med = statistics.median(ratios[name])
    lo, hi = intervals[name]
    q1, q3 = quartiles(ratios[name])
    old_issue = statistics.median(issue_ns(o["shapes"][name])
                                  for o, _ in pairs)
    new_issue = statistics.median(issue_ns(n["shapes"][name])
                                  for _, n in pairs)
    mark = ""
    if hi < THRESHOLD:
        failed.append(name)
        mark = "  << regressed"
    elif lo < THRESHOLD:
        failed.append(name)
        mark = "  << unresolved"
    print(f"{name:<20} {med:>6.3f} [{lo:>6.3f}, {hi:>6.3f}] "
          f"{q3 - q1:>6.3f} {old_issue:>17.0f} {new_issue:>6.0f}{mark}")

for side, k in (("old", 0), ("new", 1)):
    wall = statistics.median(p[k]["wall"] for p in pairs)
    cpu = statistics.median(p[k]["cpu"] for p in pairs)
    print(f"{side}: median run {wall:.2f} s wall, {cpu:.2f} s CPU")
print(f"\n(ratio = median over {len(pairs)} interleaved pairs of new/old "
      f"cycles/sec; bootstrap interval of that median; IQR of the ratios)")
if failed:
    print(f"simspeed-ab: FAILED — interval not wholly above {THRESHOLD} "
          f"on: {', '.join(failed)}")
    sys.exit(1)
print(f"simspeed-ab: OK — every shape's interval lies above {THRESHOLD}.")
PY
