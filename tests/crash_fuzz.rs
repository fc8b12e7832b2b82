//! Crash-recovery model configurations: seeded updates, checkpoints,
//! snapshot pins and crashes at arbitrary points; after every crash the
//! object must read back exactly as of the last checkpoint (the model's
//! log-off crash rule, which the generator keeps one unflushed op deep),
//! and the walk must find no page the crash left behind.

use lobstore::workload::model::{for_seeds, Driver, Kind, Op, OpGen};
use lobstore::{Db, ManagerSpec};

const MIX: &[(u32, Kind)] = &[
    (3, Kind::Insert),
    (2, Kind::Delete),
    (2, Kind::Append),
    (2, Kind::Checkpoint),
    (1, Kind::Crash),
    (1, Kind::Snapshot),
    (1, Kind::Release),
];

/// 16 seeds (256 optimized): a checkpointed 30 000-byte object, then
/// `steps` ops of up to 20 000 bytes.
fn recovers(spec: ManagerSpec, steps: usize) {
    for_seeds(16, |seed| {
        let mut db = Db::paper_default();
        let mut d = Driver::new(&mut db, spec);
        d.run(&mut db, [Op::Append(30_000), Op::Checkpoint]);
        d.run(&mut db, OpGen::new(seed, MIX, 20_000).take(steps));
        d.finish(&mut db);
    });
}

#[test]
fn esm_recovers_after_random_crashes() {
    recovers(ManagerSpec::esm(4), 35);
}

#[test]
fn eos_recovers_after_random_crashes() {
    recovers(ManagerSpec::eos(4), 35);
}

#[test]
fn starburst_recovers_after_random_crashes() {
    recovers(ManagerSpec::starburst(), 18);
}
