//! Deep-tree coverage: with the paper's 507/511 fan-out, a 10 MB object
//! needs at most two index levels, so the default experiments barely
//! exercise interior-node splits and merges. Here we shrink the fan-out
//! to 4–6 entries per node and drive the full manager stack over trees
//! four and five levels tall.

use lobstore::workload::model::{at, Driver, Kind, Op, OpGen};
use lobstore::{Db, DbConfig, ManagerSpec, TreeConfig};

fn tiny_db(fanout: usize) -> Db {
    Db::new(DbConfig {
        tree: TreeConfig::tiny(fanout),
        ..DbConfig::default()
    })
}

/// Build enough 1-page ESM leaves that the tree is several levels tall,
/// then read across the whole range and dismantle it again.
#[test]
fn esm_grows_and_shrinks_through_many_levels() {
    let mut db = tiny_db(4);
    let mut d = Driver::new(&mut db, ManagerSpec::esm(1));
    // 300 leaves at fan-out 4 → height ≥ 4.
    d.run(&mut db, (0..300).map(|_| Op::Append(4096)));
    assert!(
        db.meta_pages_allocated() > 80,
        "expected a bushy tree, got {} index pages",
        db.meta_pages_allocated()
    );
    // Random reads across level boundaries.
    d.run(&mut db, OpGen::new(5, &[(1, Kind::Read)], 10_000).take(50));
    // Delete from the middle until the object is small again; every step
    // must keep counts, fill factors, and content consistent.
    let mut deletes = OpGen::new(5, &[(1, Kind::Delete)], 30_000);
    while d.model.bytes().len() > 50_000 {
        d.run(&mut db, deletes.next());
    }
    d.finish(&mut db);
}

/// EOS under a deep tree: T=1 keeps segments small, so the entry count —
/// and the index — stays large while inserts and deletes churn.
#[test]
fn eos_mixed_ops_on_a_deep_tree() {
    const MIX: &[(u32, Kind)] = &[(5, Kind::Insert), (3, Kind::Delete), (2, Kind::Read)];
    let mut db = tiny_db(5);
    let mut d = Driver::new(&mut db, ManagerSpec::eos(1));
    d.run(&mut db, OpGen::new(77, MIX, 12_000).take(250));
    let segs = d.obj.segments(&db);
    assert!(
        segs.len() > 25,
        "T=1 should leave many segments: {}",
        segs.len()
    );
    // Crash-recovery still works on deep trees: the unflushed insert is
    // lost, the checkpoint comes back.
    let lost = Op::Insert(0.0, 17);
    d.run(&mut db, [Op::Checkpoint, lost, Op::Crash]);
    d.finish(&mut db);
}

/// The tree must also survive pathological splice patterns: repeated
/// inserts at the same offset (front-loading) and strictly alternating
/// boundary deletes.
#[test]
fn adversarial_splice_patterns() {
    for spec in [ManagerSpec::esm(1), ManagerSpec::eos(2)] {
        let mut db = tiny_db(4);
        let mut d = Driver::new(&mut db, spec);
        // Front-load: every insert lands at offset 0.
        d.run(&mut db, (0..80).map(|_| Op::Insert(0.0, 3_000)));
        // Alternating first/last deletes until nothing is left.
        for i in 0.. {
            let size = d.model.bytes().len();
            if size == 0 {
                break;
            }
            let off = if i % 2 == 0 {
                0
            } else {
                size.saturating_sub(5_000)
            };
            d.apply(&mut db, &Op::Delete(at(off, size), 5_000));
        }
        d.finish(&mut db);
    }
}
