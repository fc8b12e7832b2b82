//! Transactional crash-consistency model configurations (DESIGN.md §16):
//! seeded multi-op transactions (half of them aborted), single updates
//! and checkpoints, with `crash_and_reboot` injected after EVERY step.
//! After each crash the model's log-on rule must hold (the object reads
//! back byte-identical to the last committed state, the replayed log
//! verifies, aborted transactions leave no trace) and the database must
//! fsck clean (exit-0 semantics: zero findings).

use lobstore::workload::model::{for_seeds, Driver, Kind, Op, OpGen};
use lobstore::{Catalog, Db, DbConfig, ManagerSpec};
use lobstore_cli::check_database;

/// Half transactions of one to three updates, three eighths single
/// updates (append : insert : delete = 3 : 2 : 2), one eighth checkpoints.
const MIX: &[(u32, Kind)] = &[
    (28, Kind::Txn),
    (9, Kind::Append),
    (6, Kind::Insert),
    (6, Kind::Delete),
    (7, Kind::Checkpoint),
];

/// 10 seeds (256 optimized): a cataloged, checkpointed 20 000-byte
/// object, then `steps` steps of up to 12 000 bytes, each followed by a
/// crash and an fsck.
fn crash_consistently(spec: ManagerSpec, steps: usize) {
    for_seeds(10, |seed| {
        let mut db = Db::new(DbConfig {
            alloc_log: true,
            ..DbConfig::default()
        });
        let mut cat = Catalog::create(&mut db).unwrap();
        let mut d = Driver::new(&mut db, spec);
        cat.put(&mut db, "x", spec.kind(), d.obj.root_page())
            .unwrap();
        d.run(&mut db, [Op::Append(20_000), Op::Checkpoint]);
        for (i, op) in OpGen::new(seed, MIX, 12_000).take(steps).enumerate() {
            d.run(&mut db, [op, Op::Crash]);
            cat = Catalog::open(&mut db, cat.root_page()).unwrap();
            let findings = check_database(&mut db, &mut cat);
            assert!(findings.is_empty(), "step {i}: fsck found {findings:?}");
        }
        d.finish(&mut db);
    });
}

#[test]
fn esm_txns_crash_consistently() {
    crash_consistently(ManagerSpec::esm(4), 9);
}

#[test]
fn eos_txns_crash_consistently() {
    crash_consistently(ManagerSpec::eos(8), 9);
}

#[test]
fn starburst_txns_crash_consistently() {
    crash_consistently(ManagerSpec::starburst(), 7);
}
