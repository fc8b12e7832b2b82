#!/usr/bin/env bash
# A/A check: two sets of five full runs of this tree on one seed, then one run
# on a second seed. Prints per-metric medians and quartiles side by side and
# exits 1 if a pair of medians differs by more than the metric's bound, if a
# count the engine keeps differs at all between runs of one seed, or if the
# second seed leaves such a count unchanged or makes a timed metric worse than
# the two sets' median by more than its bound. About 25 minutes.
#
#   benchmark/aa.sh [seed] [second seed]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
seed="${1:-1}"
second="${2:-2}"

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/lobbench"
dir="$here/out/aa"
mkdir -p "$dir"
rm -f "$dir"/*.json

workloads=(scan probe edit versioned)
for set in a b; do
    for i in 1 2 3 4 5; do
        for w in "${workloads[@]}"; do
            echo "aa: set $set, run $i, $w" >&2
            "$bin" --workload "$w" --seed "$seed" --trace 0 | tail -n 1 >"$dir/$set-$w-$i.json"
        done
    done
done
for w in "${workloads[@]}"; do
    echo "aa: seed $second, $w" >&2
    "$bin" --workload "$w" --seed "$second" --trace 0 | tail -n 1 >"$dir/c-$w-1.json"
done

"$bin" --aa-compare "$dir" "$root/BENCHMARK.json"
