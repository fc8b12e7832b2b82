//! Crash-consistency of the shadowing discipline (§3.3).
//!
//! The paper's recovery assumption: shadowing means "a page is never
//! overwritten; instead, a write is performed by allocating and writing a
//! new page and leaving the old one intact until it is no longer needed
//! for recovery." Consequently, after flushing a state S:
//!
//! * any single further update operation touches only *fresh* pages (plus
//!   bytes beyond S's end-of-object in an append) and leaves its root
//!   update sitting unflushed in the buffer pool, so
//! * a crash before the next flush must recover exactly S.
//!
//! These tests drive precisely that scenario through the full stack —
//! buffer pool, buddy directories, count trees — for all three managers
//! and all operation types.

use lobstore::workload::fill;
use lobstore::workload::model::{at, Driver, Op};
use lobstore::{Db, LargeObject, Lob, ManagerSpec, StorageKind};

fn specs() -> Vec<ManagerSpec> {
    vec![
        ManagerSpec::esm(1),
        ManagerSpec::esm(16),
        ManagerSpec::eos(4),
        ManagerSpec::eos(64),
        ManagerSpec::starburst(),
    ]
}

/// Build + checkpoint, apply one unflushed op, crash — the checkpointed
/// state must read back bit-for-bit (the model's log-off crash rule).
#[test]
fn one_unflushed_op_never_damages_the_checkpoint() {
    let ops = [
        Op::Insert(at(30_000, 150_000), 12_345),
        Op::Delete(at(10_000, 150_000), 25_000),
        Op::Append(20_000),
        Op::Replace(at(50_000, 150_000), 8_000),
        // Delete to the end.
        Op::Delete(at(110_000, 150_000), 40_000),
    ];
    for spec in specs() {
        for op in &ops {
            let (mut db, mut d) = built(spec, 150_000);
            d.run(&mut db, [op.clone(), Op::Crash]);
        }
    }
}

/// After a crash, the recovered allocator state is consistent enough to
/// keep working: the recovered object can be updated, read, and destroyed
/// without leaks.
#[test]
fn recovered_database_remains_usable() {
    for spec in specs() {
        let (mut db, mut d) = built(spec, 200_000);
        let lost = Op::Insert(at(5, 200_000), 999);
        let edits = [
            Op::Insert(at(100_000, 200_000), 5_000),
            Op::Delete(0.0, 1_000),
        ];
        d.run(&mut db, [lost, Op::Crash].into_iter().chain(edits));
        d.finish(&mut db);
    }
}

/// A trimmed, checkpointed object of `len` bytes.
fn built(spec: ManagerSpec, len: usize) -> (Db, Driver) {
    let mut db = Db::paper_default();
    let mut d = Driver::new(&mut db, spec);
    d.apply(&mut db, &Op::Append(len));
    d.obj.trim(&mut db).unwrap();
    d.apply(&mut db, &Op::Checkpoint);
    (db, d)
}

/// The counter-example that motivates shadowing: with shadowing disabled,
/// an in-place replace clobbers checkpointed bytes, and the crash loses
/// committed data.
#[test]
fn without_shadowing_replace_is_not_crash_safe() {
    let mut db = Db::new(lobstore::DbConfig {
        shadowing: false,
        ..lobstore::DbConfig::default()
    });
    let mut obj = Lob::create(&mut db, ManagerSpec::esm(4)).unwrap();
    let content = fill(50_000, 1);
    obj.append(&mut db, &content).unwrap();
    let root = obj.root_page();
    db.checkpoint();

    obj.replace(&mut db, 10_000, &fill(4_000, 2)).unwrap(); // in place!
    let _ = obj;
    db.crash_and_reboot();

    let obj = Lob::open(&mut db, StorageKind::Esm, root).unwrap();
    assert_ne!(
        obj.snapshot(&db),
        content,
        "in-place replace should have clobbered the checkpoint — if this \
         fails, the ablation switch is not actually writing in place"
    );
}

/// Crash with *nothing* flushed after object creation: the object simply
/// does not exist yet, and the space managers recover an empty database.
#[test]
fn crash_before_first_checkpoint_recovers_empty() {
    let mut db = Db::paper_default();
    let mut obj = ManagerSpec::eos(4).create(&mut db).unwrap();
    obj.append(&mut db, &fill(100_000, 1)).unwrap();
    drop(obj);
    db.crash_and_reboot();
    // Directories were never flushed: everything is free again.
    assert_eq!(db.leaf_pages_allocated(), 0);
}
