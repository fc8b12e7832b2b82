#!/bin/bash
# Regenerate every table and figure at the paper's scale (10 MB / 10k ops).
# Each binary prints its tables; its stdout is saved as results/<bin>.txt
# and its stderr as results/<bin>.err, while this script reports progress
# on the terminal. Extra arguments are forwarded to every binary — in particular
# `./run_all_benches.sh --quick` runs the whole sweep at the 1 MB /
# 1000 ops smoke scale (seconds instead of minutes). Exits non-zero if any
# binary failed. crates/bench/tests/experiment_index.rs holds the list
# below to crates/bench/src/bin/ and DESIGN.md §6.
set -u
cd "$(dirname "$0")"
cargo build --release --offline -p lobstore-bench || exit 1
mkdir -p results
mode="paper scale"
for a in "$@"; do [ "$a" = "--quick" ] && mode="smoke scale (--quick)"; done
echo "[$(date +%T)] bench sweep at $mode"
failed=0
for b in fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 table2 table3 fig_deletes summary46 \
         ablation_insert_algo ablation_buffering ablation_shadowing ablation_scaling; do
  echo "[$(date +%T)] running $b"
  ./target/release/$b "$@" > results/$b.txt 2> results/$b.err \
    || { echo "$b FAILED"; failed=1; }
done
echo "[$(date +%T)] all done"
exit $failed
