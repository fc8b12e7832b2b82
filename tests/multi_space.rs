//! Large-database coverage: objects big enough that the LEAF area spans
//! several buddy spaces, exercising the superdirectory's space selection
//! and cross-space allocation under churn (§3.1: "larger databases will
//! have many buddy spaces").
//!
//! A 64 MB space holds 16384 pages, so we shrink spaces to 1024 pages
//! (4 MB) to get many of them without moving hundreds of megabytes.

use lobstore::workload::fill;
use lobstore::{Db, DbConfig, IoStats, LargeObject, ManagerSpec};

fn small_space_db() -> Db {
    Db::new(DbConfig {
        leaf_space_pages: 1024, // 4 MB spaces
        meta_space_pages: 1024,
        ..DbConfig::default()
    })
}

#[test]
fn object_spanning_many_buddy_spaces() {
    let mut db = small_space_db();
    // 20 MB object in 4 MB spaces → at least 5 spaces. Max segment is
    // capped by the space size (1024 pages), so Starburst/EOS growth
    // saturates at 4 MB segments.
    // Segments are capped by the 1024-page space size.
    let mut obj = ManagerSpec::Eos {
        threshold_pages: 16,
        max_seg_pages: 1024,
    }
    .create(&mut db)
    .unwrap();
    let chunk = fill(256 * 1024, 1);
    for _ in 0..80 {
        obj.append(&mut db, &chunk).unwrap();
    }
    obj.trim(&mut db).unwrap();
    assert_eq!(obj.size(&mut db), 20 << 20);
    obj.check_invariants(&db).unwrap();

    // Verify content at space boundaries (every 4 MB + 4 KB of slack).
    let mut buf = vec![0u8; 8192];
    for mb in [4u64, 8, 12, 16] {
        let off = (mb << 20) - 4096;
        obj.read(&mut db, off, &mut buf).unwrap();
        // Expected bytes follow the repeating 256 KB chunk.
        for (i, &b) in buf.iter().enumerate() {
            let pos = (off + i as u64) % (256 * 1024);
            assert_eq!(b, chunk[pos as usize], "byte at {off}+{i}");
        }
    }

    // Churn across spaces.
    for i in 0..60u64 {
        let size = obj.size(&mut db);
        let at = (i * 334_961) % size;
        obj.insert(&mut db, at, &fill(9_000, i)).unwrap();
        let size = obj.size(&mut db);
        obj.delete(&mut db, (i * 746_773) % (size - 9_000), 9_000)
            .unwrap();
    }
    obj.check_invariants(&db).unwrap();
    obj.destroy(&mut db).unwrap();
    assert_eq!(db.leaf_pages_allocated(), 0);
    assert_eq!(db.meta_pages_allocated(), 0);
}

#[test]
fn many_objects_fill_and_release_spaces() {
    let mut db = small_space_db();
    let mut objs: Vec<Box<dyn LargeObject>> = Vec::new();
    // 12 objects × 2 MB = 24 MB over 4 MB spaces.
    for i in 0..12u64 {
        let spec = match i % 3 {
            0 => ManagerSpec::esm(4),
            1 => ManagerSpec::Eos {
                threshold_pages: 16,
                max_seg_pages: 1024,
            },
            _ => ManagerSpec::Starburst {
                max_seg_pages: 1024,
                known_size: false,
            },
        };
        let mut obj = spec.create(&mut db).unwrap();
        obj.append(&mut db, &fill(2 << 20, i)).unwrap();
        obj.trim(&mut db).unwrap();
        objs.push(obj);
    }
    // Destroy every other object, then grow the survivors into the holes.
    for (i, obj) in objs.iter_mut().enumerate() {
        if i % 2 == 0 {
            obj.destroy(&mut db).unwrap();
        }
    }
    let survivors: Vec<&mut Box<dyn LargeObject>> = objs
        .iter_mut()
        .enumerate()
        .filter_map(|(i, o)| (i % 2 == 1).then_some(o))
        .collect();
    let mut db_ref = db;
    for (i, obj) in survivors.into_iter().enumerate() {
        obj.append(&mut db_ref, &fill(1 << 20, 100 + i as u64))
            .unwrap();
        obj.check_invariants(&db_ref).unwrap();
        let expected_tail = fill(1 << 20, 100 + i as u64);
        let size = obj.size(&mut db_ref);
        let mut tail = vec![0u8; 1 << 20];
        obj.read(&mut db_ref, size - (1 << 20), &mut tail).unwrap();
        assert_eq!(tail, expected_tail, "survivor {i}");
    }
}

/// Steady-state allocation stays at ≤ 1 directory access even with many
/// spaces, thanks to the superdirectory (§3.1).
#[test]
fn superdirectory_keeps_allocation_cheap_across_spaces() {
    let mut db = small_space_db();
    // Fill several spaces.
    let mut held = Vec::new();
    for _ in 0..6 {
        held.push(db.alloc_leaf(1024)); // one whole space each
    }
    // Now allocate/free small segments: the superdirectory knows the
    // full spaces are full, so each allocation touches at most one
    // directory (usually cached: zero I/O).
    let before: IoStats = db.io_stats();
    for _ in 0..50 {
        let e = db.alloc_leaf(8);
        db.free_leaf(e);
    }
    let delta = db.io_stats() - before;
    assert!(
        delta.calls() <= 2,
        "50 steady-state alloc/free cycles cost {} I/O calls",
        delta.calls()
    );
}
