//! Cross-manager equivalence: the three storage structures are different
//! *performance* designs over the same abstraction, so any operation
//! sequence must produce byte-identical objects on all of them.

use lobstore::workload::fill;
use lobstore::workload::model::{Driver, Kind, OpGen};
use lobstore::{Db, LargeObject, ManagerSpec};

fn all_specs() -> Vec<ManagerSpec> {
    vec![
        ManagerSpec::esm(1),
        ManagerSpec::esm(16),
        ManagerSpec::eos(1),
        ManagerSpec::eos(64),
        ManagerSpec::starburst(),
    ]
}

/// Drive the same scripted edit session everywhere and diff the results.
#[test]
fn scripted_session_is_identical_everywhere() {
    let mut snapshots = Vec::new();
    for spec in all_specs() {
        let mut db = Db::paper_default();
        let mut obj = spec.create(&mut db).unwrap();
        obj.append(&mut db, &fill(100_000, 1)).unwrap();
        obj.insert(&mut db, 40_000, &fill(9_000, 2)).unwrap();
        obj.delete(&mut db, 20_000, 15_000).unwrap();
        obj.replace(&mut db, 0, &fill(5_000, 3)).unwrap();
        obj.append(&mut db, &fill(30_000, 4)).unwrap();
        obj.insert(&mut db, 0, &fill(777, 5)).unwrap();
        obj.delete(&mut db, 100_000, 10_000).unwrap();
        obj.trim(&mut db).unwrap();
        obj.check_invariants(&db).unwrap();
        assert_eq!(
            obj.size(&mut db),
            100_000 + 9_000 - 15_000 + 30_000 + 777 - 10_000
        );
        snapshots.push((spec.label(), obj.snapshot(&db)));
    }
    let (ref_label, reference) = &snapshots[0];
    for (label, snap) in &snapshots[1..] {
        assert_eq!(snap, reference, "{label} diverged from {ref_label}");
    }
}

/// Random sessions with a shared seed: every manager must agree with
/// the reference model at every step, and `destroy` must leak nothing.
#[test]
fn random_sessions_agree_with_model() {
    const MIX: &[(u32, Kind)] = &[
        (4, Kind::Insert),
        (2, Kind::Delete),
        (2, Kind::Replace),
        (2, Kind::Read),
    ];
    for spec in all_specs() {
        let mut db = Db::paper_default();
        let mut d = Driver::new(&mut db, spec);
        let heavy = matches!(spec, ManagerSpec::Starburst { .. });
        let steps = if heavy { 40 } else { 90 };
        d.run(&mut db, OpGen::new(2024, MIX, 40_000).take(steps));
        d.finish(&mut db);
    }
}

/// Multiple objects of different kinds coexisting in one database.
#[test]
fn mixed_kinds_share_one_database() {
    let mut db = Db::paper_default();
    let mut objs: Vec<Box<dyn LargeObject>> = all_specs()
        .iter()
        .map(|s| s.create(&mut db).unwrap())
        .collect();
    for (i, obj) in objs.iter_mut().enumerate() {
        obj.append(&mut db, &fill(50_000 + i * 1_000, i as u64))
            .unwrap();
    }
    // Interleaved edits must not interfere.
    for (i, obj) in objs.iter_mut().enumerate() {
        obj.insert(&mut db, 10_000, &fill(2_000, 99 + i as u64))
            .unwrap();
    }
    for (i, obj) in objs.iter_mut().enumerate() {
        let mut expected = fill(50_000 + i * 1_000, i as u64);
        let ins = fill(2_000, 99 + i as u64);
        expected.splice(10_000..10_000, ins.iter().copied());
        assert_eq!(obj.snapshot(&db), expected, "object {i}");
        obj.check_invariants(&db).unwrap();
    }
    for obj in objs.iter_mut() {
        obj.destroy(&mut db).unwrap();
    }
    assert_eq!(db.leaf_pages_allocated(), 0);
    assert_eq!(db.meta_pages_allocated(), 0);
}

/// Objects survive a "restart": flush everything, drop the handles, and
/// re-open purely from the root page numbers.
#[test]
fn reopen_after_flush() {
    use lobstore::{open_object, Lob, LobError, StorageKind};
    let mut db = Db::paper_default();

    let mut esm = Lob::create(&mut db, ManagerSpec::esm(4)).unwrap();
    let mut eos = Lob::create(&mut db, ManagerSpec::eos(4)).unwrap();
    let mut star = Lob::create(&mut db, ManagerSpec::starburst()).unwrap();
    esm.append(&mut db, &fill(30_000, 1)).unwrap();
    eos.append(&mut db, &fill(30_000, 2)).unwrap();
    star.append(&mut db, &fill(30_000, 3)).unwrap();
    let roots = (esm.root_page(), eos.root_page(), star.root_page());
    let _ = (esm, eos, star);

    // Flush all dirty pages (roots are only flushed lazily).
    db.pool().flush_all();

    let esm = Lob::open(&mut db, StorageKind::Esm, roots.0).unwrap();
    let eos = Lob::open(&mut db, StorageKind::Eos, roots.1).unwrap();
    let star = Lob::open(&mut db, StorageKind::Starburst, roots.2).unwrap();
    assert_eq!(esm.snapshot(&db), fill(30_000, 1));
    assert_eq!(eos.snapshot(&db), fill(30_000, 2));
    assert_eq!(star.snapshot(&db), fill(30_000, 3));
    // Kind confusion is rejected: every wrong (kind, root) pair.
    let kinds = [StorageKind::Esm, StorageKind::Eos, StorageKind::Starburst];
    for (i, root) in [roots.0, roots.1, roots.2].into_iter().enumerate() {
        for (j, kind) in kinds.into_iter().enumerate() {
            let got = open_object(&mut db, kind, root).map(|o| o.kind());
            if i == j {
                assert_eq!(got, Ok(kind));
            } else {
                assert!(
                    matches!(got, Err(LobError::Corrupt(_))),
                    "{kind} on {root}: {got:?}"
                );
            }
        }
    }
}
