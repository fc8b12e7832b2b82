//! Health telemetry is a *recount*, not a shadow ledger: for any
//! operation history, the sampler's published gauges must agree exactly
//! with independent walks of the same state (DESIGN.md §14).
//!
//! Three accountings of allocated LEAF/META pages must coincide:
//!
//! 1. the bitmap recount behind `Db::leaf_frag_stats` (cost-free peeks
//!    of the space directories — what the sampler publishes);
//! 2. the running allocation counters (`Db::leaf_pages_allocated`);
//! 3. the extent walk `Db::leaf_allocated_ranges` (the fsck-style
//!    enumeration `lobctl check` audits objects against).
//!
//! The same must hold after `checkpoint` + `crash_and_reboot`: health is
//! recomputed from disk state, so a reboot cannot change it.

use lobstore::{object_health, Db, ManagerSpec};
use proptest::prelude::*;

/// Abstract churn op; fractions scale to the current object size.
#[derive(Clone, Debug)]
enum Op {
    Append { len: usize },
    Delete { at: f64, len: usize },
    Recreate,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..40_000).prop_map(|len| Op::Append { len }),
        (0.0f64..=1.0, 1usize..30_000).prop_map(|(at, len)| Op::Delete { at, len }),
        Just(Op::Recreate),
    ]
}

fn fill(len: usize, seed: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + seed * 7 + 3) % 251) as u8)
        .collect()
}

/// Assert the three accountings agree for both areas, and that the
/// published gauges carry exactly the recounted values.
fn assert_health_closure(db: &mut Db, context: &str) {
    let sample = db.sample_health();
    for (area, st, counter, ranges) in [
        (
            "leaf",
            sample.leaf.clone(),
            db.leaf_pages_allocated(),
            db.leaf_allocated_ranges(),
        ),
        (
            "meta",
            sample.meta.clone(),
            db.meta_pages_allocated(),
            db.meta_allocated_ranges(),
        ),
    ] {
        let walked: u64 = ranges.iter().map(|e| u64::from(e.pages)).sum();
        assert_eq!(
            st.allocated_pages, counter,
            "{context}: {area} bitmap recount vs running counter"
        );
        assert_eq!(
            st.allocated_pages, walked,
            "{context}: {area} bitmap recount vs extent walk"
        );
        assert_eq!(
            st.allocated_pages + st.free_pages,
            st.total_pages(),
            "{context}: {area} allocated + free covers every data page"
        );
        assert_eq!(
            st.free_pages,
            st.free_runs.iter().map(|&r| u64::from(r)).sum::<u64>(),
            "{context}: {area} free runs partition the free pages"
        );
        assert_eq!(
            u64::from(st.largest_free_run),
            st.free_runs
                .iter()
                .map(|&r| u64::from(r))
                .max()
                .unwrap_or(0),
            "{context}: {area} largest run is the max run"
        );
        // The gauges the sampler just published are the same numbers.
        for (metric, expect) in [
            ("allocated_pages", st.allocated_pages as f64),
            ("free_pages", st.free_pages as f64),
            ("largest_free_run_pages", f64::from(st.largest_free_run)),
            ("frag_ratio", st.frag_ratio()),
            ("utilization", st.utilization()),
        ] {
            let name = format!("health.{area}.{metric}");
            let got = lobstore_obs::gauge_value(&name)
                .unwrap_or_else(|| panic!("{context}: gauge {name} unpublished"));
            assert_eq!(got, expect, "{context}: gauge {name}");
        }
    }
}

fn run_history(spec: ManagerSpec, ops: &[Op]) {
    lobstore_obs::reset();
    let mut db = Db::paper_default();
    let mut obj = spec.create(&mut db).unwrap();
    let mut size = 0usize;
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Append { len } => {
                obj.append(&mut db, &fill(len, i)).unwrap();
                size += len;
            }
            Op::Delete { at, len } => {
                if size == 0 {
                    continue;
                }
                let off = ((at * size as f64) as usize).min(size - 1);
                let len = len.min(size - off);
                if len == 0 {
                    continue;
                }
                obj.delete(&mut db, off as u64, len as u64).unwrap();
                size -= len;
            }
            Op::Recreate => {
                obj.destroy(&mut db).unwrap();
                obj = spec.create(&mut db).unwrap();
                size = 0;
            }
        }
    }
    assert_health_closure(&mut db, &format!("{} live", spec.label()));

    // Object health agrees with the object's own walk.
    let health = object_health(obj.as_ref(), &db);
    let util = obj.utilization(&db);
    assert_eq!(health.object_bytes, util.object_bytes);
    assert_eq!(health.segments, obj.segments(&db).len() as u64);
    assert!((0.0..=1.0).contains(&health.contiguity()));

    // Flushed state survives a crash with identical health: the recount
    // only ever looks at what the disk (plus pool) holds.
    let before = db.sample_health();
    db.checkpoint();
    db.crash_and_reboot();
    let after = db.sample_health();
    assert_eq!(before.leaf, after.leaf, "{}: reboot", spec.label());
    assert_eq!(before.meta, after.meta, "{}: reboot", spec.label());
    assert_health_closure(&mut db, &format!("{} rebooted", spec.label()));
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 100,
        ..ProptestConfig::default()
    })]

    #[test]
    fn esm_health_matches_recount(ops in prop::collection::vec(op_strategy(), 1..25)) {
        run_history(ManagerSpec::esm(4), &ops);
    }

    #[test]
    fn eos_health_matches_recount(ops in prop::collection::vec(op_strategy(), 1..25)) {
        run_history(ManagerSpec::eos(16), &ops);
    }

    #[test]
    fn starburst_health_matches_recount(ops in prop::collection::vec(op_strategy(), 1..18)) {
        run_history(ManagerSpec::starburst(), &ops);
    }
}

#[test]
fn sampler_tick_survives_reboot_monotonically() {
    // The op tick is session state, not disk state: after a reboot the
    // count keeps rising from where it was, so sample ticks from one
    // process stay strictly increasing.
    let mut db = Db::paper_default();
    let mut obj = ManagerSpec::eos(16).create(&mut db).unwrap();
    obj.append(&mut db, &[7u8; 50_000]).unwrap();
    let ticks_before = db.health_ops();
    db.checkpoint();
    db.crash_and_reboot();
    obj.append(&mut db, &[8u8; 10_000]).unwrap();
    assert!(db.health_ops() > ticks_before);
    assert_eq!(db.sample_health().tick, db.health_ops());
}
