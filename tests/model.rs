//! Fixed-op-list configurations of the one reference model
//! (`lobstore::workload::model`) that no random sequence reaches
//! reliably. The random configurations are `tests/proptest_model.rs`,
//! `tests/crash_fuzz.rs` and `tests/txn_crash.rs`.

use lobstore::workload::model::{assert_same, at, Driver, Op};
use std::io::Read;

use lobstore::{Db, DbConfig, ManagerSpec, SpanCursor};

fn db(alloc_log: bool) -> Db {
    Db::new(DbConfig {
        alloc_log,
        ..DbConfig::default()
    })
}

/// A 20 000-byte object, checkpointed, then a tail delete and an append
/// that fits the freed end of its last page.
const BUILD: [Op; 2] = [Op::Append(20_000), Op::Checkpoint];

fn tail_delete_then_append() -> [Op; 2] {
    [Op::Delete(at(19_462, 20_000), 538), Op::Append(1_019)]
}

fn reproducer_specs() -> [ManagerSpec; 5] {
    [
        ManagerSpec::esm(4),
        ManagerSpec::starburst(),
        ManagerSpec::eos(1),
        ManagerSpec::eos(8),
        ManagerSpec::eos(16),
    ]
}

/// A pinned version never changes: an append after a tail delete must
/// not refill the bytes the pinned version still reads.
#[test]
fn append_after_a_tail_delete_leaves_a_pinned_version_alone() {
    for spec in reproducer_specs() {
        for log in [false, true] {
            let mut db = db(log);
            let mut d = Driver::new(&mut db, spec);
            d.run(&mut db, BUILD);
            let pinned = d.model.bytes().to_vec();
            let snap = db.snapshot();
            d.run(&mut db, tail_delete_then_append());
            let mut got = Vec::new();
            SpanCursor::pinned(&db, &snap, d.obj.root_page())
                .unwrap()
                .read_to_end(&mut got)
                .unwrap();
            let what = format!("{} log {log}: pinned version", spec.label());
            assert_same(&got, &pinned, &what);
            db.release_snapshot(snap);
            d.finish(&mut db);
        }
    }
}

/// A rolled-back transaction leaves no trace, down to the bytes its
/// tail delete gave up.
#[test]
fn aborted_tail_delete_and_append_restore_every_byte() {
    for spec in reproducer_specs() {
        for log in [false, true] {
            let mut db = db(log);
            let mut d = Driver::new(&mut db, spec);
            d.run(&mut db, BUILD);
            let txn = Op::Txn {
                ops: tail_delete_then_append().to_vec(),
                abort: true,
            };
            d.apply(&mut db, &txn);
            d.finish(&mut db);
        }
    }
}

/// Pins held across updates, a transaction and (log on) a crash: the
/// walk after every op holds the deferred frees and the version store to
/// their rules, each release streams its version back, and the crash
/// drops the pin still held, so replay must find the frees it deferred
/// free again.
#[test]
fn pins_across_updates_a_txn_and_a_crash() {
    for spec in reproducer_specs() {
        for log in [false, true] {
            let mut db = db(log);
            let mut d = Driver::new(&mut db, spec);
            d.run(&mut db, BUILD);
            d.apply(&mut db, &Op::Snapshot);
            d.run(&mut db, tail_delete_then_append());
            let txn = Op::Txn {
                ops: vec![Op::Insert(0.5, 3_000), Op::Delete(0.1, 2_000)],
                abort: false,
            };
            d.run(&mut db, [Op::Snapshot, txn, Op::Release]);
            if log {
                d.run(&mut db, [Op::Replace(0.3, 5_000), Op::Crash]);
            }
            d.run(&mut db, [Op::Append(7_000), Op::Release]);
            d.finish(&mut db);
        }
    }
}

/// With the log on, roots come and go: a recreate drops the old root
/// from the log's root set and registers the new one, so a crash right
/// after it, or after the checkpoint that compacts the log to the root
/// set, recovers the new empty object and nothing of the old one.
#[test]
fn a_recreated_object_survives_a_logged_crash() {
    for spec in reproducer_specs() {
        for tail in [
            &[Op::Recreate, Op::Crash][..],
            &[Op::Recreate, Op::Checkpoint, Op::Crash],
        ] {
            let mut db = db(true);
            let mut d = Driver::new(&mut db, spec);
            d.run(&mut db, BUILD);
            d.run(&mut db, tail.iter().cloned());
            d.run(&mut db, [Op::Append(5_000), Op::Crash]);
            d.finish(&mut db);
        }
    }
}

/// Without the log, a checkpoint under a pin writes the frees deferred
/// for the pin as allocated, and the crash drops the pin: the reboot must
/// free them (the walk found them leaked), on a second crash too, and
/// nothing an update after the checkpoint deferred.
#[test]
fn a_log_off_crash_frees_what_a_pinned_checkpoint_deferred() {
    for spec in reproducer_specs() {
        let mut db = db(false);
        let mut d = Driver::new(&mut db, spec);
        d.run(&mut db, BUILD);
        d.run(
            &mut db,
            [
                Op::Snapshot,
                Op::Delete(at(4_000, 20_000), 9_000),
                Op::Checkpoint,
                Op::Snapshot,
                Op::Insert(0.5, 4_000),
                Op::Crash,
                Op::Append(3_000),
                Op::Crash,
            ],
        );
        d.finish(&mut db);
    }
}

// ---- Replay of a multi-commit log ------------------------------------------
//
// lobbench's recovery probe as configurations: the allocation log on, an
// object built by 256 KB appends, a checkpoint, insert + delete pairs of
// 1 000 bytes committed one by one, then one crash that must replay them
// all. The log grows its chain inside a record here, which once made
// replay misread the stream.

fn replay(spec: ManagerSpec, size: usize, pairs: usize) {
    let mut db = db(true);
    let mut d = Driver::new(&mut db, spec);
    let build = (0..size)
        .step_by(256 << 10)
        .map(|at| Op::Append((size - at).min(256 << 10)));
    d.run(&mut db, build.chain([Op::Checkpoint]));
    for i in 0..pairs {
        let f = i as f64 / pairs as f64;
        d.run(&mut db, [Op::Insert(f, 1_000), Op::Delete(1.0 - f, 1_000)]);
    }
    d.apply(&mut db, &Op::Crash);
    d.finish(&mut db);
}

#[test]
fn esm_replays_100_pairs_on_20_kb() {
    replay(ManagerSpec::esm(4), 20_000, 100);
}

#[test]
fn esm_replays_5_pairs_on_1_mb() {
    replay(ManagerSpec::esm(4), 1 << 20, 5);
}

#[test]
fn esm_replays_40_pairs_on_1_mb() {
    replay(ManagerSpec::esm(4), 1 << 20, 40);
}

#[test]
fn eos_replays_100_pairs_on_20_kb() {
    replay(ManagerSpec::eos(16), 20_000, 100);
}

#[test]
fn eos_replays_5_pairs_on_1_mb() {
    replay(ManagerSpec::eos(16), 1 << 20, 5);
}

#[test]
fn eos_replays_40_pairs_on_1_mb() {
    replay(ManagerSpec::eos(16), 1 << 20, 40);
}

#[test]
fn starburst_replays_100_pairs_on_20_kb() {
    replay(ManagerSpec::starburst(), 20_000, 100);
}

#[test]
fn starburst_replays_5_pairs_on_1_mb() {
    replay(ManagerSpec::starburst(), 1 << 20, 5);
}

#[test]
fn starburst_replays_40_pairs_on_1_mb() {
    replay(ManagerSpec::starburst(), 1 << 20, 40);
}
