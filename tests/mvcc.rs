//! MVCC integration: snapshot isolation, atomic transactions, and
//! allocation-log crash recovery (DESIGN.md §16), exercised across all
//! three storage structures.

use lobstore::{Db, DbConfig, LobError, ManagerSpec, SnapshotReader};

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

fn fill(len: usize, seed: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 37 + seed * 7 + 13) % 251) as u8)
        .collect()
}

/// A reader holding a snapshot sees exactly the bytes that were
/// committed when the snapshot was taken, no matter how much a writer
/// churns the object afterwards.
#[test]
fn snapshot_readers_are_byte_stable_under_writer_churn() {
    for spec in specs() {
        let mut db = mvcc_db();
        let mut obj = spec.create(&mut db).unwrap();
        let before = fill(150_000, 1);
        obj.append(&mut db, &before).unwrap();

        let snap = db.snapshot();
        let mut reader = SnapshotReader::new(&mut db, &snap, obj.root_page()).unwrap();
        assert_eq!(reader.size(), before.len() as u64);

        // Read the first third while the object is still unchanged.
        let mut first = vec![0u8; 50_000];
        let mut got = 0;
        while got < first.len() {
            let n = reader.read(&db, &mut first[got..]);
            assert!(n > 0, "premature EOF at {got}");
            got += n;
        }
        assert_eq!(first, before[..50_000], "{spec:?}");

        // Writer churn: every op commits a new version.
        obj.insert(&mut db, 10_000, &fill(30_000, 2)).unwrap();
        obj.delete(&mut db, 70_000, 40_000).unwrap();
        obj.append(&mut db, &fill(20_000, 3)).unwrap();
        assert_ne!(obj.snapshot(&db), before, "live state moved on");

        // The in-flight reader keeps producing the snapshot's bytes...
        let rest = reader.read_to_end(&db);
        assert_eq!(rest, before[50_000..], "{spec:?}: tail diverged");
        // ...and a reader opened late on the same snapshot agrees.
        let mut late = SnapshotReader::new(&mut db, &snap, obj.root_page()).unwrap();
        assert_eq!(late.read_to_end(&db), before, "{spec:?}: late reader");

        // Releasing the pin lets deferred frees drain on the next commit.
        db.release_snapshot(snap);
        obj.append(&mut db, b"one more commit").unwrap();
        assert!(
            db.deferred_extents().is_empty(),
            "{spec:?}: frees reclaimed after release"
        );
        obj.check_invariants(&db).unwrap();
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

    let mut reader = SnapshotReader::new(&mut db, &snap, obj.root_page()).unwrap();
    for &(off, len) in &[(0usize, 100usize), (89_000, 1_000), (40_000, 8_192), (1, 1)] {
        reader.seek(off as u64);
        let mut out = vec![0u8; len];
        let mut got = 0;
        while got < len {
            let n = reader.read(&db, &mut out[got..]);
            assert!(n > 0);
            got += n;
        }
        assert_eq!(out, before[off..off + len], "range {off}+{len}");
    }
    db.release_snapshot(snap);
}

/// A transaction's operations become visible as ONE committed version,
/// and the version counter advances exactly once.
#[test]
fn transactions_commit_atomically() {
    for spec in specs() {
        let mut db = mvcc_db();
        let mut obj = spec.create(&mut db).unwrap();
        let mut model = fill(80_000, 6);
        obj.append(&mut db, &model).unwrap();

        let v_before = db.current_version();
        obj = db
            .txn(|db| {
                let mut obj = lobstore::open_object(db, obj.kind(), obj.root_page())?;
                obj.append(db, &fill(12_000, 7))?;
                obj.insert(db, 5_000, &fill(3_000, 8))?;
                obj.delete(db, 60_000, 9_000)?;
                Ok(obj)
            })
            .unwrap();
        assert_eq!(
            db.current_version(),
            v_before + 1,
            "{spec:?}: one version per transaction"
        );
        model.extend(fill(12_000, 7));
        model.splice(5_000..5_000, fill(3_000, 8));
        model.drain(60_000..69_000);
        assert_eq!(obj.snapshot(&db), model, "{spec:?}");
        obj.check_invariants(&db).unwrap();
    }
}

/// A transaction whose closure fails rolls back completely: bytes,
/// version counter, and allocator maps all return to the pre-txn state.
#[test]
fn failed_transactions_roll_back() {
    for spec in specs() {
        let mut db = mvcc_db();
        let mut obj = spec.create(&mut db).unwrap();
        let model = fill(70_000, 9);
        obj.append(&mut db, &model).unwrap();
        db.checkpoint();

        let v_before = db.current_version();
        let meta_before = db.meta_pages_allocated();
        let leaf_before = db.leaf_pages_allocated();
        let kind = obj.kind();
        let root = obj.root_page();

        let err = db
            .txn(|db| -> lobstore::Result<()> {
                let mut obj = lobstore::open_object(db, kind, root)?;
                obj.append(db, &fill(20_000, 10))?;
                obj.insert(db, 2_000, &fill(6_000, 11))?;
                obj.delete(db, 30_000, 10_000)?;
                Err(LobError::Corrupt("deliberate abort".into()))
            })
            .unwrap_err();
        assert!(matches!(err, LobError::Corrupt(_)), "{spec:?}: {err}");

        assert_eq!(db.current_version(), v_before, "{spec:?}: no version");
        assert_eq!(
            db.meta_pages_allocated(),
            meta_before,
            "{spec:?}: META allocations rolled back"
        );
        assert_eq!(
            db.leaf_pages_allocated(),
            leaf_before,
            "{spec:?}: LEAF allocations rolled back"
        );
        let obj = lobstore::open_object(&mut db, kind, root).unwrap();
        assert_eq!(obj.snapshot(&db), model, "{spec:?}: bytes restored");
        obj.check_invariants(&db).unwrap();
        db.verify_alloc_log().unwrap();

        // The database keeps working after a rollback.
        let mut obj = lobstore::open_object(&mut db, kind, root).unwrap();
        obj.append(&mut db, b"life goes on").unwrap();
        obj.check_invariants(&db).unwrap();
    }
}

/// With the allocation log on, a crash right after any operation
/// replays to that operation's committed version — no checkpoint
/// needed (the log subsumes the directory-flush requirement).
#[test]
fn crash_after_each_op_recovers_the_committed_version() {
    for spec in specs() {
        let mut db = mvcc_db();
        let mut obj = spec.create(&mut db).unwrap();
        db.checkpoint();
        let kind = obj.kind();
        let root = obj.root_page();
        let mut model: Vec<u8> = Vec::new();

        for (i, action) in [0usize, 1, 2, 0, 2, 1, 0].iter().enumerate() {
            match action {
                0 => {
                    let bytes = fill(25_000, i);
                    obj.append(&mut db, &bytes).unwrap();
                    model.extend(bytes);
                }
                1 => {
                    let at = model.len() / 3;
                    let bytes = fill(8_000, i + 100);
                    obj.insert(&mut db, at as u64, &bytes).unwrap();
                    model.splice(at..at, bytes);
                }
                _ => {
                    let at = model.len() / 4;
                    let len = (model.len() - at).min(9_000);
                    obj.delete(&mut db, at as u64, len as u64).unwrap();
                    model.drain(at..at + len);
                }
            }
            db.crash_and_reboot();
            obj = lobstore::open_object(&mut db, kind, root).unwrap();
            assert_eq!(
                obj.snapshot(&db),
                model,
                "{spec:?}: step {i} lost committed bytes"
            );
            obj.check_invariants(&db).unwrap();
            db.verify_alloc_log().unwrap();
        }
    }
}

/// Transactions and crashes compose: a crash after a committed
/// transaction replays the whole batch; after a rolled-back one it
/// replays none of it.
#[test]
fn crash_replays_committed_transactions_and_forgets_aborted_ones() {
    let mut db = mvcc_db();
    let mut obj = ManagerSpec::esm(4).create(&mut db).unwrap();
    let kind = obj.kind();
    let root = obj.root_page();
    let mut model = fill(40_000, 20);
    obj.append(&mut db, &model).unwrap();

    // Committed transaction, then crash.
    db.txn(|db| {
        let mut obj = lobstore::open_object(db, kind, root)?;
        obj.append(db, &fill(10_000, 21))?;
        obj.delete(db, 0, 5_000)?;
        Ok(())
    })
    .unwrap();
    model.extend(fill(10_000, 21));
    model.drain(0..5_000);
    db.crash_and_reboot();
    let obj = lobstore::open_object(&mut db, kind, root).unwrap();
    assert_eq!(obj.snapshot(&db), model, "committed txn survives the crash");

    // Aborted transaction, then crash.
    let _ = db.txn(|db| -> lobstore::Result<()> {
        let mut obj = lobstore::open_object(db, kind, root)?;
        obj.append(db, &fill(15_000, 22))?;
        Err(LobError::Corrupt("abort".into()))
    });
    db.crash_and_reboot();
    let obj = lobstore::open_object(&mut db, kind, root).unwrap();
    assert_eq!(obj.snapshot(&db), model, "aborted txn leaves no trace");
    obj.check_invariants(&db).unwrap();
    db.verify_alloc_log().unwrap();
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
