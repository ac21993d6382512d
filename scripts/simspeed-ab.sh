#!/usr/bin/env bash
# simspeed-ab.sh OLD NEW — same-host interleaved simulator-speed A/B.
#
# OLD and NEW are two smtsweep binaries (typically the merge-base and
# the head of a pull request, built side by side in one job). The
# script runs `--bench-simspeed` on each, alternating which side goes
# first, 5 times, then prints per shape:
#
#   - the median of the per-pair NEW/OLD cycles/sec ratios and the
#     interquartile range of those ratios;
#   - each side's median issue-stage ns per simulated cycle (from the
#     instrumented stage-breakdown pass).
#
# Exits 1 when any shape's median ratio is below 0.9 (a >10%
# throughput loss), 2 on usage errors. Because both binaries run on the
# same machine in the same job, interleaved, the gate needs no
# host-locked baseline.
set -u

if [ $# -ne 2 ]; then
    echo "usage: simspeed-ab.sh OLD_SMTSWEEP NEW_SMTSWEEP" >&2
    exit 2
fi
old="$1"
new="$2"
for bin in "$old" "$new"; do
    if [ ! -x "$bin" ]; then
        echo "simspeed-ab: not an executable: $bin" >&2
        exit 2
    fi
done
readonly pairs=5
readonly min_ratio=0.9

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

run() { # side index binary
    if ! "$3" --bench-simspeed --json "$work/$1-$2.json" \
            > "$work/$1-$2.log" 2>&1; then
        echo "simspeed-ab: $1 run $2 failed:" >&2
        cat "$work/$1-$2.log" >&2
        exit 2
    fi
}

for ((i = 1; i <= pairs; ++i)); do
    if ((i % 2)); then
        run old "$i" "$old"
        run new "$i" "$new"
    else
        run new "$i" "$new"
        run old "$i" "$old"
    fi
    echo "simspeed-ab: pair $i/$pairs done"
done

python3 - "$work" "$pairs" "$min_ratio" <<'PY'
import json
import statistics
import sys

work, pairs, min_ratio = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def load(side, i):
    doc = json.load(open(f"{work}/{side}-{i}.json"))
    return {s["name"]: s for s in doc["shapes"]}


runs = [(load("old", i), load("new", i)) for i in range(1, pairs + 1)]
shapes = [n for n in runs[0][0] if all(n in o and n in w for o, w in runs)]

failed = []
print(f"\n{'shape':<20} {'ratio':>7} {'IQR':>6} {'old cyc/s':>11} "
      f"{'new cyc/s':>11} {'issue ns/cyc old':>17} {'new':>6}")
for name in shapes:
    ratios = [w[name]["cycles_per_sec"] / o[name]["cycles_per_sec"]
              for o, w in runs]
    q1, q3 = quartiles(ratios)
    med = statistics.median(ratios)

    def issue_ns(s):
        return s["stage_ns"]["issue"] / s["cycles"] if s["cycles"] else 0.0

    old_cps = statistics.median(o[name]["cycles_per_sec"] for o, _ in runs)
    new_cps = statistics.median(w[name]["cycles_per_sec"] for _, w in runs)
    old_issue = statistics.median(issue_ns(o[name]) for o, _ in runs)
    new_issue = statistics.median(issue_ns(w[name]) for _, w in runs)
    mark = ""
    if med < min_ratio:
        failed.append(name)
        mark = "  << regressed"
    print(f"{name:<20} {med:>7.3f} {q3 - q1:>6.3f} {old_cps:>11.0f} "
          f"{new_cps:>11.0f} {old_issue:>17.0f} {new_issue:>6.0f}{mark}")

print(f"\n(ratio = median over {pairs} interleaved pairs of new/old "
      f"cycles/sec; IQR of those ratios)")
if failed:
    print(f"simspeed-ab: FAILED — median ratio below {min_ratio} on: "
          f"{', '.join(failed)}")
    sys.exit(1)
print(f"simspeed-ab: OK — no shape's median ratio below {min_ratio}.")
PY
