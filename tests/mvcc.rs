//! MVCC integration: snapshot isolation, atomic transactions, and
//! allocation-log crash recovery (DESIGN.md §16), exercised across all
//! three storage structures.

use lobstore::workload::fill;
use lobstore::workload::model::{at, Driver, Op};
use std::io::{Read, Seek, SeekFrom};

use lobstore::{Catalog, Db, DbConfig, ManagerSpec, SharedDb, SpanCursor};

fn mvcc_db() -> Db {
    Db::new(DbConfig {
        alloc_log: true,
        ..DbConfig::default()
    })
}

fn specs() -> [ManagerSpec; 3] {
    [
        ManagerSpec::esm(4),
        ManagerSpec::eos(16),
        ManagerSpec::starburst(),
    ]
}

/// Everything `cursor` reads from where it stands to the end.
fn rest_of(mut cursor: impl Read) -> Vec<u8> {
    let mut out = Vec::new();
    cursor.read_to_end(&mut out).unwrap();
    out
}

/// A reader holding a snapshot sees exactly the bytes that were
/// committed when the snapshot was taken, no matter how much a writer
/// churns the object afterwards.
#[test]
fn snapshot_readers_are_byte_stable_under_writer_churn() {
    for spec in specs() {
        let shared = SharedDb::new(mvcc_db());
        let mut obj = shared.with(|db| spec.create(db)).unwrap();
        let before = fill(150_000, 1);
        shared.with(|db| obj.append(db, &before)).unwrap();

        // The cursor owns its pin; a second pin of the same version
        // serves a reader opened after the churn.
        let mut reader = shared.snapshot_reader(obj.root_page()).unwrap();
        let snap = shared.with(Db::snapshot);
        assert_eq!(snap.version(), reader.version());
        assert_eq!(reader.size(), before.len() as u64);

        // Read the first third while the object is still unchanged.
        let mut first = vec![0u8; 50_000];
        reader.read_exact(&mut first).unwrap();
        assert_eq!(first, before[..50_000], "{spec:?}");

        // Writer churn: every op commits a new version.
        shared.with(|db| {
            obj.insert(db, 10_000, &fill(30_000, 2)).unwrap();
            obj.delete(db, 70_000, 40_000).unwrap();
            obj.append(db, &fill(20_000, 3)).unwrap();
            assert_ne!(obj.snapshot(db), before, "live state moved on");
        });

        // The in-flight reader keeps producing the snapshot's bytes...
        assert_eq!(
            rest_of(&mut reader),
            before[50_000..],
            "{spec:?}: tail diverged"
        );
        // ...and a reader opened late on the same snapshot agrees.
        let late =
            shared.with_read(|db| rest_of(SpanCursor::pinned(db, &snap, obj.root_page()).unwrap()));
        assert_eq!(late, before, "{spec:?}: late reader");

        // Releasing both pins lets deferred frees drain on the next commit.
        reader.close();
        shared.with(|db| {
            db.release_snapshot(snap);
            obj.append(db, b"one more commit").unwrap();
            assert!(
                db.deferred_extents().is_empty(),
                "{spec:?}: frees reclaimed after release"
            );
            obj.check_invariants(db).unwrap();
        });
    }
}

/// Seeking a snapshot reader visits the same bytes a contiguous scan
/// does, including after the writer has rewritten those ranges.
#[test]
fn snapshot_reader_random_access_matches_snapshot_bytes() {
    let mut db = mvcc_db();
    let mut obj = ManagerSpec::eos(8).create(&mut db).unwrap();
    let before = fill(90_000, 4);
    obj.append(&mut db, &before).unwrap();

    let snap = db.snapshot();
    obj.delete(&mut db, 0, 45_000).unwrap();
    obj.insert(&mut db, 1_000, &fill(5_000, 5)).unwrap();

    let mut reader = SpanCursor::pinned(&db, &snap, obj.root_page()).unwrap();
    for &(off, len) in &[(0usize, 100usize), (89_000, 1_000), (40_000, 8_192), (1, 1)] {
        reader.seek(SeekFrom::Start(off as u64)).unwrap();
        let mut out = vec![0u8; len];
        reader.read_exact(&mut out).unwrap();
        assert_eq!(out, before[off..off + len], "range {off}+{len}");
    }
    db.release_snapshot(snap);
}

/// A pinned cursor opens object roots only. On a logged store the
/// allocation log's pages sit among the roots in the META area, and some
/// carry a kind byte of 1–3; each must fail to open, with an error and
/// not a panic. Through `SharedDb`, a failed open leaves no pin behind.
#[test]
fn a_pinned_open_walk_of_the_meta_area_opens_the_roots_only() {
    let mut db = mvcc_db();
    let mut cat = Catalog::create(&mut db).unwrap();
    let mut objects = Vec::new();
    for (i, spec) in specs().into_iter().enumerate() {
        let mut obj = spec.create(&mut db).unwrap();
        let bytes = fill(1_500_000, 10 + i as u64);
        for piece in bytes.chunks(100_000) {
            obj.append(&mut db, piece).unwrap();
        }
        cat.put(&mut db, &format!("o{i}"), obj.kind(), obj.root_page())
            .unwrap();
        objects.push((obj.root_page(), bytes));
    }
    assert!(
        !db.alloc_log_pages().is_empty(),
        "the walk must meet the log"
    );
    let bytes_of = |page: u32| objects.iter().find(|(root, _)| *root == page);

    let snap = db.snapshot();
    let mut opened = Vec::new();
    for page in 0..400 {
        if let Ok(cursor) = SpanCursor::pinned(&db, &snap, page) {
            let (_, want) = bytes_of(page).expect("only an object root opens");
            assert!(rest_of(cursor) == *want, "root {page} misread");
            opened.push(page);
        }
    }
    let mut roots: Vec<u32> = objects.iter().map(|(root, _)| *root).collect();
    roots.sort_unstable();
    assert_eq!(opened, roots);
    db.release_snapshot(snap);

    let shared = SharedDb::new(db);
    for page in 0..400 {
        match shared.snapshot_reader(page) {
            Ok(cursor) => assert!(rest_of(cursor) == bytes_of(page).unwrap().1),
            Err(e) => assert!(bytes_of(page).is_none(), "root {page}: {e}"),
        }
        assert_eq!(shared.with(|db| db.pinned_snapshots()), 0, "page {page}");
    }
}

/// A transaction's operations become visible as ONE committed version,
/// and the version counter advances exactly once.
#[test]
fn transactions_commit_atomically() {
    for spec in specs() {
        let mut db = mvcc_db();
        let mut d = Driver::new(&mut db, spec);
        d.apply(&mut db, &Op::Append(80_000));
        let v_before = db.current_version();
        let ops = vec![
            Op::Append(12_000),
            Op::Insert(at(5_000, 92_000), 3_000),
            Op::Delete(at(60_000, 95_000), 9_000),
        ];
        d.apply(&mut db, &Op::Txn { ops, abort: false });
        let v_after = db.current_version();
        assert_eq!(v_after, v_before + 1, "{spec:?}: one version per txn");
        d.finish(&mut db);
    }
}

/// A transaction whose closure fails rolls back completely: bytes,
/// version counter, and allocator maps all return to the pre-txn state.
#[test]
fn failed_transactions_roll_back() {
    for spec in specs() {
        let mut db = mvcc_db();
        let mut d = Driver::new(&mut db, spec);
        d.run(&mut db, [Op::Append(70_000), Op::Checkpoint]);
        let state = |db: &Db| {
            let pages = (db.meta_pages_allocated(), db.leaf_pages_allocated());
            (db.current_version(), pages)
        };
        let before = state(&db);
        let ops = vec![
            Op::Append(20_000),
            Op::Insert(at(2_000, 90_000), 6_000),
            Op::Delete(at(30_000, 96_000), 10_000),
        ];
        // The driver checks the bytes are restored and the error passes
        // through.
        d.apply(&mut db, &Op::Txn { ops, abort: true });
        let what = "no version, META and LEAF allocations rolled back";
        assert_eq!(state(&db), before, "{spec:?}: {what}");
        // The database keeps working after a rollback.
        d.apply(&mut db, &Op::Append(12));
        d.finish(&mut db);
    }
}

/// With the allocation log on, a crash right after any operation
/// replays to that operation's committed version — no checkpoint
/// needed (the log subsumes the directory-flush requirement).
#[test]
fn crash_after_each_op_recovers_the_committed_version() {
    let append = Op::Append(25_000);
    let insert = Op::Insert(1.0 / 3.0, 8_000);
    let delete = Op::Delete(0.25, 9_000);
    for spec in specs() {
        let mut db = mvcc_db();
        let mut d = Driver::new(&mut db, spec);
        d.apply(&mut db, &Op::Checkpoint);
        for op in [
            &append, &insert, &delete, &append, &delete, &insert, &append,
        ] {
            d.run(&mut db, [op.clone(), Op::Crash]);
        }
        d.finish(&mut db);
    }
}

/// Transactions and crashes compose: a crash after a committed
/// transaction replays the whole batch; after a rolled-back one it
/// replays none of it.
#[test]
fn crash_replays_committed_transactions_and_forgets_aborted_ones() {
    let mut db = mvcc_db();
    let mut d = Driver::new(&mut db, ManagerSpec::esm(4));
    let ops = vec![Op::Append(10_000), Op::Delete(0.0, 5_000)];
    let committed = Op::Txn { ops, abort: false };
    let ops = vec![Op::Append(15_000)];
    let aborted = Op::Txn { ops, abort: true };
    d.run(
        &mut db,
        [Op::Append(40_000), committed, Op::Crash, aborted, Op::Crash],
    );
    d.finish(&mut db);
}

/// Snapshot bookkeeping survives image round-trips and stays observable
/// through the public counters.
#[test]
fn snapshot_accounting_is_observable() {
    let mut db = mvcc_db();
    let mut obj = ManagerSpec::starburst().create(&mut db).unwrap();
    obj.append(&mut db, &fill(60_000, 30)).unwrap();

    assert_eq!(db.pinned_snapshots(), 0);
    let s1 = db.snapshot();
    let s2 = db.snapshot();
    assert_eq!(db.pinned_snapshots(), 2);
    assert_eq!(s1.version(), s2.version(), "no writes in between");

    obj.delete(&mut db, 0, 30_000).unwrap();
    assert!(
        !db.deferred_extents().is_empty(),
        "pinned snapshots defer frees"
    );
    db.release_snapshot(s1);
    assert_eq!(db.pinned_snapshots(), 1);
    db.release_snapshot(s2);
    assert_eq!(db.pinned_snapshots(), 0);
    obj.append(&mut db, b"x").unwrap();
    assert!(db.deferred_extents().is_empty(), "drained once unpinned");
}

/// A pinned version and a rolled-back transaction read the same
/// pre-image: the root's content when the interval began, not after the
/// transaction's first overwrite. The commit after the rollback hands
/// that image to the overlay, and the pin reads it back on release.
#[test]
fn a_rolled_back_txn_under_a_pin_restores_the_first_image() {
    for alloc_log in [false, true] {
        for spec in specs() {
            let mut db = Db::new(DbConfig {
                alloc_log,
                ..DbConfig::default()
            });
            let mut d = Driver::new(&mut db, spec);
            // Both members write the root in place; the driver checks the
            // live bytes and the walk after the rollback.
            let ops = vec![Op::Append(3_000), Op::Insert(at(1_000, 43_000), 2_000)];
            d.run(
                &mut db,
                [
                    Op::Append(40_000),
                    Op::Snapshot,
                    Op::Txn { ops, abort: true },
                    Op::Append(1_000),
                    Op::Release,
                ],
            );
            d.finish(&mut db);
        }
    }
}

/// An EOS object whose last segment is over-allocated: the second
/// append fills the first page and doubles into two pages for the rest,
/// one too many. Its `trim` frees that page and rewrites the root in
/// place without committing a version.
fn trimmable_eos(db: &mut Db) -> Driver {
    let mut d = Driver::new(db, ManagerSpec::eos(16));
    d.run(db, [Op::Append(3_000), Op::Append(3_000)]);
    d
}

/// A checkpoint ends the commit interval, but not the version: a trim
/// (which commits nothing) before it and an update of the same root
/// after it each capture the root, and the overlay keeps the first
/// capture only — one image per page per version, which the walk checks
/// after the update. The pinned reader reads its version throughout.
#[test]
fn a_checkpoint_inside_a_version_keeps_one_image_per_page() {
    for alloc_log in [false, true] {
        let mut db = Db::new(DbConfig {
            alloc_log,
            ..DbConfig::default()
        });
        let mut d = trimmable_eos(&mut db);
        let pinned = d.model.bytes().to_vec();
        let snap = db.snapshot();
        let read_pinned = |db: &mut Db, d: &Driver, step: &str| {
            let cursor = SpanCursor::pinned(&*db, &snap, d.obj.root_page()).unwrap();
            assert_eq!(rest_of(cursor), pinned, "log {alloc_log}: {step}");
        };
        d.obj.trim(&mut db).unwrap();
        read_pinned(&mut db, &d, "after the trim");
        d.apply(&mut db, &Op::Checkpoint);
        read_pinned(&mut db, &d, "after the checkpoint");
        d.apply(&mut db, &Op::Insert(at(10, 6_000), 500));
        read_pinned(&mut db, &d, "after the second update");
        db.release_snapshot(snap);
        d.finish(&mut db);
    }
}

/// A trim leaves the commit interval open; a transaction begins on a
/// boundary, so it commits the trim first and its rollback cannot undo
/// it — undoing it would point the root at the freed page. With the
/// log on, the trim is durable: a crash recovers it.
#[test]
fn a_trim_survives_the_rollback_of_a_later_txn_and_a_crash() {
    let mut db = mvcc_db();
    let mut d = trimmable_eos(&mut db);
    let before = db.leaf_pages_allocated();
    d.obj.trim(&mut db).unwrap();
    let trimmed = db.leaf_pages_allocated();
    assert_eq!(trimmed, before - 1, "the trim freed a page");
    let ops = vec![Op::Append(5_000), Op::Delete(0.5, 100)];
    d.apply(&mut db, &Op::Txn { ops, abort: true });
    assert_eq!(db.leaf_pages_allocated(), trimmed, "the trim survives");
    d.apply(&mut db, &Op::Crash);
    assert_eq!(db.leaf_pages_allocated(), trimmed, "the trim is durable");
    d.finish(&mut db);
}

/// Rollback restores the pre-images in capture order: the same aborted
/// transaction on two identical databases writes the same disk trace.
#[test]
fn an_aborted_txn_writes_the_same_trace_every_time() {
    let run = || {
        let mut db = mvcc_db();
        let spec = ManagerSpec::esm(4);
        let mut objs: Vec<_> = (0..6).map(|_| spec.create(&mut db).unwrap()).collect();
        for (i, obj) in objs.iter_mut().enumerate() {
            obj.append(&mut db, &fill(10_000, i as u64)).unwrap();
        }
        db.pool().disk().enable_trace(1 << 12);
        let aborted = db.txn(|db| {
            for obj in &mut objs {
                obj.append(db, &fill(500, 9))?;
            }
            Err::<(), _>(lobstore::LobError::Corrupt("abort".into()))
        });
        assert!(aborted.is_err());
        let trace = db.pool().disk().take_trace();
        let objects: Vec<_> = objs.iter().map(|o| ("esm", o.as_ref())).collect();
        assert_eq!(db.verify(&objects, &[]), []);
        trace
    };
    let first = run();
    assert!(!first.is_empty());
    assert_eq!(first, run(), "the rollback's restore writes differ");
}
