#!/usr/bin/env bash
# CI driver: the one list of gates. .github/workflows/ci.yml runs this
# script and nothing else. No step reads a wall clock: every verdict is
# the same on any machine. Wall-clock numbers are lobbench's
# (benchmark/README.md), compared by its driver.
# Usage: ./ci.sh   (from the workspace root; offline, no network needed)
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

# Style and static analysis first: these fail fastest. clippy carries
# the policy the compiler can decide with types: no `unsafe`, no
# `todo!`/`unimplemented!` anywhere ([workspace.lints] in Cargo.toml),
# and in the six library crates' non-test code documented public items,
# no `unwrap`/`expect` and no truncating `as` cast (the attribute block
# at the top of each library lib.rs). clippy.toml's disallowed-methods
# list names two funnels: lobstore_obs::sync's helpers are the only way
# to take a lock (under debug assertions each acquisition checks the
# lock order, sync::Rank, so every debug test below checks it too), and
# the only raw SimDisk::read/write calls are the cost-counted BufferPool
# wrappers', each under a statement-level allow (and simdisk's own
# tests). loblint carries what neither types nor tests decide: on-disk
# magic hygiene, the frozen arith-overflow/panic-path ratchet, unit
# mixing and disk-taint, the one CFG rule. The xtask suite runs
# explicitly before loblint: it carries the seeded-violation fixtures
# for every lint rule, so a broken rule fails loudly here rather than
# silently passing an under-linted workspace. loblint then runs against
# the committed ratchet baseline (loblint.baseline): any finding not
# already frozen there is printed with its evidence trail and fails the
# build.
run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings

# Documentation gate: rustdoc warnings (broken intra-doc links above
# all) are errors.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
run cargo test -q -p xtask
run cargo run -q -p xtask -- loblint

# Functional gates: the whole suite once. Every model configuration
# (tests/model.rs, proptest_model.rs, crash_fuzz.rs, txn_crash.rs,
# crash_points.rs, all drivers of lobstore_workload::model) runs the
# consistency walk,
# `Db::verify`, after every op: object invariants, pages claimed twice,
# both allocators against reachability and against their own
# directories, the allocation log (its chain reads back whole under the
# current generation, and its root set is the set the walk started
# from) and the version store. It reads cost-free, so no build needs a
# flag to carry it. Then the optimized passes. The buddy crate: its
# word-parallel bitmap search is checked
# against the bit-at-a-time fold it replaced, and that sweep (all space
# sizes x all orders) only reaches full depth without debug assertions;
# and its twin test (`in_place_manager_matches_the_decoding_one`: 24 000
# allocate/free/adopt steps on the directory page in place against the
# decode-and-write-back manager it replaced — page bytes, extents, hints,
# `IoStats`, `PoolStats` and trace after every step) must hold with the
# debug double-alloc/double-free asserts compiled out too. Likewise core's
# segment byte helpers (`segdata`: a read appended in place against a
# read into a buffer of its own, the block-move insert against
# `Vec::splice`). Likewise Starburst's streaming tail copy against the
# materialising copy it replaced: the proptest runs 256 cases of up to
# 3 MB optimized and 8 otherwise. And obs: its handles-and-names-are-one-registry model
# test runs 256 seeds of 4 000 interleaved updates optimized, 16 of 400
# otherwise. And core's node tests: the boundary sweep of `NodeView`
# against `Node` over full 507/511-pair pages runs 64 seeds optimized
# and 4 otherwise, and its range asserts must also hold without debug
# assertions; so does its sweep of the in-place pair edits (`NodeMut`:
# splice at every front/back/empty/full boundary, count add, pointer
# set) against decode -> `Vec` -> whole-page encode, byte for byte. And
# core's count-tree twin (`in_place_tree_matches_the_decoding_one`:
# 24 000 append/replace/remove/add_count steps optimized, 2 000
# otherwise, at fan-out 4, 6 and 507/511 with shadowing on and off,
# through the in-place write path against the decoding one it replaced
# -- every META page's bytes, `IoStats`, `PoolStats`, trace and the
# tree invariants after every step). And the one read cursor
# (`SpanCursor`), refilled a segment at a time by its source — the live
# one's `read_span`, or the pinned one's descent and page-run read: core's
# stream tests hold a streamed live scan to the `IoStats` of one bulk read
# of the same range, and tests/perf_equivalence.rs also to its disk
# trace, call by call, and on ESM and EOS to its pool fixes plus the
# reader's one size lookup, for ESM's direct (16-page) and buffered
# (4-page) leaves alike, and a pinned script to the same bytes, `IoStats`
# and LEAF reads through a borrowed `&Db` and `SharedDb`'s read tier; tree's
# `reads_fix_the_root_once` holds a read to one root fix, an out-of-range
# one included. And the model configurations, 256 seeds optimized and
# their old case counts otherwise, the walk after every op included,
# and tests/mvcc.rs's commit-interval rules (one pre-image per page per
# interval, the first; a transaction begins on a boundary) without
# debug assertions too, as must tests/golden_traces.rs's update-mix
# digests (ESM and EOS traces, pinned call by call), and
# tests/crash_points.rs, which crashes at every disk write call of 16
# seeded histories per scheme x log on/off x fan-out (1 seed otherwise). And simdisk optimized, where its copies run at full
# speed: a read of 1 MiB or more of an area's arena is copied as
# page-aligned pieces on scoped threads, and its tests hold that copy to
# `copy_from_slice` (1 MiB +-1 .. 4 MiB x 1, 2, 3, 7 pieces), a read across
# the arena frontier into sparse pages, one call's charge (`IoStats`, obs
# counters, trace event), and four concurrent 4 MiB readers beside a writer
# to exact `IoStats` sums. The workspace run includes tests/metric_catalog.rs, which
# holds the crates' declared metric handles to DESIGN.md section 10, and
# tests/aging.rs, which pins the aged store to the I/O call (section 14).
run cargo test -q --workspace
run cargo test -q --release -p lobstore-buddy
run cargo test -q --release -p lobstore-core segdata
run cargo test -q --release -p lobstore-core starburst
run cargo test -q --release -p lobstore-core node
run cargo test -q --release -p lobstore-core tree
run cargo test -q --release -p lobstore-core stream
run cargo test -q --release --test perf_equivalence
run cargo test -q --release -p lobstore-obs
run cargo test -q --release -p lobstore-simdisk
run cargo test -q --release --test model --test proptest_model --test crash_fuzz --test txn_crash --test crash_points --test mvcc --test golden_traces

# Mutation drill: the crash tests must catch a seeded break of the
# shadowing discipline (paper section 3.3) and a lost undo image, the
# META walk a pinned open that lets a non-root page through, the seeded
# schedules and the lock-order check a latch two pages share, a page
# guard held across a segment read and a lock helper that passes poison
# on, and the I/O accounting's twins a raw disk read above the pool
# (clippy), a segment write that skips its counter and a health recount
# that fixes a page. Each patch in mutants/ is applied to one copy of
# the tree under target/ (a patch that no longer applies fails here),
# the copy must still build, and then either each test named must fail
# or, for a `clippy` drill, clippy must; the patch is reversed before
# the next. The copy is fresh on every run, so its build never reuses
# another tree's artifacts.
mutant=target/mutants/tree
rm -rf "$mutant" && mkdir -p "$mutant"
tar --exclude=./target --exclude=./benchmark/target --exclude=./.git -cf - . | tar -xmf - -C "$mutant"
# drill <patch> <cargo test target args> -- <test>...: each test must fail.
# drill <patch> clippy <cargo clippy package args>: clippy must fail.
drill() {
    local patch=$1 target=()
    shift
    while [ $# -gt 0 ] && [ "$1" != -- ]; do
        target+=("$1")
        shift
    done
    [ $# -gt 0 ] && shift
    echo
    echo "==> mutation drill: mutants/$patch.patch must fail ${target[*]}${*:+ -- $*}"
    patch -s -p1 --forward --reject-file=- -d "$mutant" < "mutants/$patch.patch"
    if [ "${target[0]}" = clippy ]; then
        (cd "$mutant" && cargo build -q "${target[@]:1}")
        if (cd "$mutant" && cargo clippy -q "${target[@]:1}" -- -D warnings > /dev/null 2>&1); then
            echo "ci.sh: clippy ${target[*]:1} passes with mutants/$patch.patch applied"
            exit 1
        fi
    else
        (cd "$mutant" && cargo test -q "${target[@]}" --no-run)
        for name in "$@"; do
            if (cd "$mutant" && cargo test -q "${target[@]}" -- --exact "$name" > /dev/null 2>&1); then
                echo "ci.sh: ${target[*]} $name passes with mutants/$patch.patch applied"
                exit 1
            fi
        done
    fi
    patch -s -R -p1 -d "$mutant" < "mutants/$patch.patch"
}
# A shadowed page updated in place.
drill shadow-order --test deep_tree -- eos_mixed_ops_on_a_deep_tree
# Everything dirty made durable before the operation's shadows.
drill commit-point --test crash_consistency -- one_unflushed_op_never_damages_the_checkpoint \
    recovered_database_remains_usable crash_before_first_checkpoint_recovers_empty
# The superseded leaf extents never freed.
drill alloc-balance --test crash_consistency -- one_unflushed_op_never_damages_the_checkpoint \
    recovered_database_remains_usable
# A pinned open that checks a root's kind byte but not its magic.
drill pinned-root-check --test mvcc -- a_pinned_open_walk_of_the_meta_area_opens_the_roots_only
# A transaction's pre-images never logged (`log_undo_image` writes nothing).
drill undo-image --test txn_crash -- an_evicted_in_place_overwrite_is_undone_by_a_crash_before_commit
# Write guards on pages 16 apart share one latch: a reported deadlock.
drill shared-latch --test schedules -- guards_on_pages_sixteen_apart_do_not_wait_for_each_other
# Starburst's descriptor guard kept across its segment read: an order violation.
drill guard-across-io --test perf_equivalence -- starburst_large_append_reads_back_through_split_calls \
    starburst_streamed_accounting_matches_bulk
# The lock helpers pass a poisoned lock's panic on instead of recovering.
drill poison --test schedules -- pinned_scans_read_their_version_under_every_schedule
# A segment read straight from the disk, past the pool's dirty frames.
drill raw-io clippy -p lobstore-core
# `patch_in_place` writes without counting `core.seg.writes`.
drill uncounted-seg-write -p lobstore-core --lib -- segdata::tests::each_segment_write_counts_one_write
# `object_health` fixes a leaf page instead of peeking.
drill costed-inspector -p lobstore-core --lib -- verify::tests::the_walk_is_clean_and_costs_nothing

# lobbench (benchmark/) is a workspace of its own that the bench driver
# builds against this engine, so nothing above compiles it: build it and
# run its harness tests here, or a changed public signature reaches the
# driver unbuilt. (Build output lands in benchmark/target, untracked.)
run cargo build --release --offline --manifest-path benchmark/Cargo.toml
run cargo test --release --offline --manifest-path benchmark/Cargo.toml

# The paper bins at paper scale, each stdout against its pinned output
# (crates/bench/golden/paper/; the workspace run above held the --quick
# set the same way, tests/golden_outputs.rs).
run ./run_all_benches.sh
echo
echo "==> diff -u crates/bench/golden/paper/<bin>.txt results/<bin>.txt, every bin"
for golden in crates/bench/golden/paper/*.txt; do
    diff -u "$golden" "results/$(basename "$golden")"
done

echo
echo "ci.sh: all gates passed"
