//! Transactional crash-consistency model configurations (DESIGN.md §16):
//! seeded multi-op transactions (half of them aborted), single updates,
//! checkpoints and snapshot pins, with `crash_and_reboot` injected after
//! every step but a pin, whose version then lives through the next step
//! and dies in its crash. After each crash the model's log-on rule must
//! hold (the object reads back byte-identical to the last committed
//! state, aborted transactions leave no trace), and after every op the
//! driver's walk must find the cataloged database clean: the replayed
//! allocators hold exactly what the object, the catalog and the log
//! claim, with the frees deferred for dropped pins free again.

use lobstore::workload::model::{at, for_seeds, CrashPoint, Driver, Kind, Op, OpGen};
use lobstore::{Catalog, Db, DbConfig, ManagerSpec};

/// Txns of one to three updates, single updates (append : insert : delete
/// = 3 : 2 : 2), checkpoints, and pins, most released only by a crash.
const MIX: &[(u32, Kind)] = &[
    (28, Kind::Txn),
    (9, Kind::Append),
    (6, Kind::Insert),
    (6, Kind::Delete),
    (7, Kind::Checkpoint),
    (6, Kind::Snapshot),
    (2, Kind::Release),
];

/// 10 seeds (256 optimized): a cataloged, checkpointed 20 000-byte
/// object, then `steps` steps of up to 12 000 bytes, each but a pin
/// followed by a crash.
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
        d.other_meta = cat.pages(&mut db).unwrap();
        d.run(&mut db, [Op::Append(20_000), Op::Checkpoint]);
        for op in OpGen::new(seed, MIX, 12_000).take(steps) {
            let pin = matches!(op, Op::Snapshot);
            d.apply(&mut db, &op);
            if !pin {
                d.apply(&mut db, &Op::Crash);
            }
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

/// A checkpoint that loses every write, then a crash. The checkpoint had
/// already compacted the log in memory (a new generation, a one-page
/// chain), which a reboot does not have: replay must read the generation
/// from the log's head page and the chain from its own walk, and give
/// back the bytes the last commit left, with a clean walk.
#[test]
fn a_checkpoint_that_writes_nothing_recovers_the_last_commit() {
    let ops = [
        Op::Append(30_000),
        Op::Checkpoint,
        Op::Insert(at(10_000, 30_000), 22_805),
        Op::Txn {
            ops: vec![Op::Delete(0.5, 4_000), Op::Append(3_000)],
            abort: false,
        },
    ];
    for spec in [
        ManagerSpec::esm(4),
        ManagerSpec::eos(8),
        ManagerSpec::starburst(),
    ] {
        let mut db = Db::new(DbConfig {
            alloc_log: true,
            ..DbConfig::default()
        });
        let mut d = Driver::new(&mut db, spec);
        d.run(&mut db, ops.clone());
        let committed = d.model.bytes().to_vec();
        let nothing = CrashPoint { write: 0, torn: 0 };
        assert_eq!(d.crash_during(&mut db, &Op::Checkpoint, nothing), []);
        assert_eq!(d.model.bytes(), committed, "{}", spec.label());
        d.finish(&mut db);
    }
}
