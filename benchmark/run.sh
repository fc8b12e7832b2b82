#!/usr/bin/env bash
# lobbench driver. Builds the benchmark and the engine it measures from the
# working tree, then runs it.
#
#   benchmark/run.sh                       all four workloads, every end-to-end metric
#   benchmark/run.sh --workload <w> --seed <n> --seconds <s> --trace <0|1>
#                                          one run; the last line is the result object
#   benchmark/run.sh --trace <w>           traced run of one workload (per-layer metrics)
#   benchmark/run.sh --selfcheck           sensitivity self-check (obs sink on vs off)
#
# Files a run writes go to benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
out="$here/out"

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/lobbench"
mkdir -p "$out"

if [[ "${1:-}" == "--selfcheck" ]]; then
    exec "$bin" "$@"
fi

# Run the benchmark once; its output must end in one well-formed result object.
run() {
    "$bin" "$@" --out-dir "$out" | tee "$out/last-run.txt"
    shape='^\{"correct": (true|false), "attempted": [0-9]+, "failed": [0-9]+, "metrics": \{.*\}\}$'
    if ! tail -n 1 "$out/last-run.txt" | grep -Eq "$shape"; then
        echo "run.sh: the last line of the output is not a result object" >&2
        exit 1
    fi
}

if [[ " $* " == *" --workload "* || " $* " == *" --trace "* ]]; then
    run "$@"
else
    # Every workload in a process of its own (rss_peak_mb is the process's
    # high-water mark); print the tables and drop the result lines.
    for w in scan probe edit versioned; do
        run --workload "$w" "$@" | sed '$d'
    done
fi
