#!/usr/bin/env bash
# check-digest-compat.sh OLD NEW — measurement-digest compatibility.
#
# OLD and NEW are two smtsweep binaries (typically the merge-base and
# the head of a pull request). Each runs all eight paper grids at a
# tiny budget with no cache and writes its sweep artifact; the script
# then compares the (experiment, label, threads, digest) lists. Every
# cached or remote store entry is addressed by these digests, so a
# change that moves one orphans results without saying so.
#
# Exits 0 when the lists match, or — with a printed note — when the two
# artifacts' `schema` fields differ (an intentional kDigestSchema bump
# invalidates every old entry on purpose). Exits 1 on a mismatch, 2 on
# usage or run errors.
set -u

if [ $# -ne 2 ]; then
    echo "usage: check-digest-compat.sh OLD_SMTSWEEP NEW_SMTSWEEP" >&2
    exit 2
fi
for bin in "$1" "$2"; do
    if [ ! -x "$bin" ]; then
        echo "check-digest-compat: not an executable: $bin" >&2
        exit 2
    fi
done

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

grids=()
for e in fig3 fig4 fig5 fig6 fig7 table3 table4 table5; do
    grids+=(--experiment "$e")
done

run() { # side binary
    if ! "$2" "${grids[@]}" --cycles 200 --warmup 100 --runs 2 \
            --no-cache --json "$work/$1.json" > "$work/$1.log" 2>&1; then
        echo "check-digest-compat: $1 sweep failed:" >&2
        cat "$work/$1.log" >&2
        exit 2
    fi
}
run old "$1"
run new "$2"

python3 - "$work/old.json" "$work/new.json" <<'PY'
import json
import sys

old, new = (json.load(open(path)) for path in sys.argv[1:3])
if old["schema"] != new["schema"]:
    print(f"check-digest-compat: digest schema {old['schema']} -> "
          f"{new['schema']}: every old digest is invalidated on "
          "purpose; skipping the comparison")
    sys.exit(0)


def keys(doc):
    return [(e["experiment"], p["label"], p["threads"], p["digest"])
            for e in doc["experiments"] for p in e["points"]]


old_keys, new_keys = keys(old), keys(new)
if old_keys == new_keys:
    print(f"check-digest-compat: {len(new_keys)} points, "
          f"{len(set(k[3] for k in new_keys))} digests, all unchanged")
    sys.exit(0)
for a, b in zip(old_keys, new_keys):
    if a != b:
        print(f"  old {a}\n  new {b}")
if len(old_keys) != len(new_keys):
    print(f"  point count {len(old_keys)} -> {len(new_keys)}")
print("check-digest-compat: measurement digests changed without a "
      "kDigestSchema bump")
sys.exit(1)
PY
