#!/usr/bin/env bash
# Same-host kernel A/B: `repro bench kernel --quick` on a base revision
# and on this working tree, alternating so host drift hits both sides,
# then the median events/s of each side through the bench's own
# `--diff` gate (fails on a >25% drop).
#
#   scripts/kernel_ab.sh [REV]
#
# The base is `git archive REV`, unpacked into a temporary directory;
# the candidate is the working tree's src/, committed or not.  Without
# REV the base is the candidate's parent: HEAD while src/ has
# uncommitted changes, HEAD~1 once they are committed.  Both sides run
# with the same interpreter on the same host, 6 pairs, so the verdict
# says nothing about the host's absolute speed.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ -n "$(git status --porcelain -- src)" ]]; then
    default_rev=HEAD
else
    default_rev=HEAD~1
fi
rev="${1:-$default_rev}"
pairs=6
threshold=0.25
commit="$(git rev-parse --verify --quiet "$rev^{commit}")" || {
    echo "kernel A/B: cannot resolve revision '$rev'" >&2
    exit 2
}

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$commit" src | tar -x -C "$work/base"

run_side() {  # run_side SIDE SRC_DIR INDEX
    PYTHONPATH="$2" python -m repro bench kernel --quick --repeats 1 \
        --no-mem --json "$work/$1-$3.json" > /dev/null
}

for i in $(seq 1 "$pairs"); do
    run_side base "$work/base/src" "$i"
    run_side head "$PWD/src" "$i"
done

# Print the per-pair ratios, then fold each side's runs into one bench
# file carrying the median events/s per scale point.
python - "$work" "$pairs" "$commit" <<'EOF'
import copy
import json
import statistics
import sys

work, pairs, commit = sys.argv[1], int(sys.argv[2]), sys.argv[3]
runs = {
    side: [json.load(open(f"{work}/{side}-{i}.json"))
           for i in range(1, pairs + 1)]
    for side in ("base", "head")
}
print(f"kernel A/B: base {commit[:12]} vs working tree, {pairs} pairs")
for i, (base, head) in enumerate(zip(runs["base"], runs["head"]), 1):
    cells = []
    for name, point in head["points"].items():
        b = base["points"][name]["events_per_sec"]
        h = point["events_per_sec"]
        cells.append(f"{name} {b:,.0f} -> {h:,.0f} ev/s ({h / b:.2f}x)")
    print(f"  pair {i}: " + "; ".join(cells))
for side, results in runs.items():
    median = copy.deepcopy(results[0])
    for name, point in median["points"].items():
        point["events_per_sec"] = statistics.median(
            r["points"][name]["events_per_sec"] for r in results
        )
    with open(f"{work}/{side}-median.json", "w") as fh:
        json.dump(median, fh)
EOF

echo "medians:"
PYTHONPATH=src python -m repro bench kernel --threshold "$threshold" \
    --diff "$work/base-median.json" "$work/head-median.json"
