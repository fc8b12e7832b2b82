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

use lobstore::workload::model::{for_seeds, Driver, Kind, Op, OpGen};
use lobstore::{object_health, Db, ManagerSpec};

/// Appends, deletes and whole-object recreation, equally weighted.
const MIX: &[(u32, Kind)] = &[(1, Kind::Append), (1, Kind::Delete), (1, Kind::Recreate)];

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

/// 16 seeded histories of `ops` ops of up to 40 000 bytes.
fn histories(spec: ManagerSpec, ops: usize) {
    for_seeds(16, |seed| {
        history(spec, OpGen::new(seed, MIX, 40_000).take(ops))
    });
}

fn history(spec: ManagerSpec, ops: impl Iterator<Item = Op>) {
    lobstore_obs::reset();
    let mut db = Db::paper_default();
    let mut d = Driver::new(&mut db, spec);
    d.run(&mut db, ops);
    assert_health_closure(&mut db, &format!("{} live", spec.label()));

    // Object health agrees with the object's own walk.
    let health = object_health(d.obj.as_ref(), &db);
    let util = d.obj.utilization(&db);
    assert_eq!(health.object_bytes, util.object_bytes);
    assert_eq!(health.segments, d.obj.segments(&db).len() as u64);
    assert!((0.0..=1.0).contains(&health.contiguity()));

    // Flushed state survives a crash with identical health: the recount
    // only ever looks at what the disk (plus pool) holds.
    let before = db.sample_health();
    d.run(&mut db, [Op::Checkpoint, Op::Crash]);
    let after = db.sample_health();
    assert_eq!(before.leaf, after.leaf, "{}: reboot", spec.label());
    assert_eq!(before.meta, after.meta, "{}: reboot", spec.label());
    assert_health_closure(&mut db, &format!("{} rebooted", spec.label()));
    d.finish(&mut db);
}

#[test]
fn esm_health_matches_recount() {
    histories(ManagerSpec::esm(4), 24);
}

#[test]
fn eos_health_matches_recount() {
    histories(ManagerSpec::eos(16), 24);
}

#[test]
fn starburst_health_matches_recount() {
    histories(ManagerSpec::starburst(), 17);
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
