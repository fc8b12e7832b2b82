//! Crash at every disk write call: the model's crash rule
//! (`Driver::crash_during`) at each write of every op of seeded
//! histories, and at a torn page-prefix (1 and pages − 1) of every
//! multi-page write. The histories hold updates, transactions (half of
//! them aborted), pins, checkpoints and op-boundary crashes, whose
//! writes are the reboot's own log replay. Each point re-runs its
//! history up to the op it cuts, cuts it, reboots, and checks the bytes
//! and the walk; a clean walk then finishes the driver (final bytes,
//! `destroy`, an empty walk).
//!
//! Every config runs on the paper's fan-out and on `TreeConfig::tiny(4)`:
//! at 507/511 a 30 KB object has no interior index page, so an index
//! page edited in place shows only on the tiny tree. One more config puts
//! sixteen objects beside the driver's (`Driver::add_companions`), with
//! the log on: a transaction rewrites their roots after each member, so
//! the 12-frame pool writes the driver's root back before the commit,
//! and a crash after that write is undone only by the log's `UndoImage`.

use lobstore::simdisk::TraceKind;
use lobstore::workload::model::{CrashPoint, Driver, Kind, Op, OpGen};
use lobstore::{Db, DbConfig, ManagerSpec, TreeConfig};

const MIX: &[(u32, Kind)] = &[
    (4, Kind::Insert),
    (3, Kind::Delete),
    (2, Kind::Append),
    (1, Kind::Replace),
    (1, Kind::Read),
    (3, Kind::Txn),
    (2, Kind::Checkpoint),
    (1, Kind::Crash),
    (1, Kind::Snapshot),
    (1, Kind::Release),
];

/// Ops per history, after the checkpointed 30 000-byte build.
const OPS: usize = 30;

/// Crash points, and those the log-off checkpoint gap left findings at.
#[derive(Default)]
struct Tally {
    points: usize,
    gap: usize,
}

/// The torn prefixes a `pages`-page write is cut at: none, and for a
/// multi-page write one page and all but one.
fn torn(pages: u32) -> Vec<u32> {
    let mut cuts = vec![0];
    if pages > 1 {
        cuts.push(1);
    }
    if pages > 2 {
        cuts.push(pages - 1);
    }
    cuts
}

/// How a config lays out its store: the allocation log on or off, the
/// tree's fan-out, and how many objects stand beside the driver's.
#[derive(Clone, Copy)]
struct Store {
    alloc_log: bool,
    tree: TreeConfig,
    companions: usize,
}

impl Store {
    /// An empty store and its driver.
    fn open(self, spec: ManagerSpec) -> (Db, Driver) {
        let mut db = Db::new(DbConfig {
            alloc_log: self.alloc_log,
            tree: self.tree,
            ..DbConfig::default()
        });
        let mut d = Driver::new(&mut db, spec);
        d.add_companions(&mut db, self.companions, 4_096);
        (db, d)
    }
}

/// Cut `seed`'s history at every write point.
fn enumerate(spec: ManagerSpec, store: Store, seed: u64, tally: &mut Tally) {
    // Without the log only a checkpoint makes the new object durable.
    let mut history = vec![Op::Checkpoint, Op::Append(30_000), Op::Checkpoint];
    history.extend(OpGen::new(seed, MIX, 12_000).take(OPS));

    // The fault-free run: it fails on any panic, and its trace gives the
    // page count of every write call of every op.
    let (mut base, mut d) = store.open(spec);
    base.pool().disk().enable_trace(1 << 16);
    let mut writes = Vec::new();
    for op in &history {
        d.apply(&mut base, op);
        let disk = base.pool().disk();
        assert_eq!(disk.trace_dropped(), 0, "trace capacity");
        let calls = disk.take_trace().into_iter();
        writes.push(
            calls
                .filter(|e| e.kind == TraceKind::Write)
                .map(|e| e.pages)
                .collect::<Vec<_>>(),
        );
    }
    d.finish(&mut base);

    for (k, pages) in writes.iter().enumerate() {
        for (write, &n) in (0u64..).zip(pages) {
            for torn in torn(n) {
                let (mut db, mut d) = store.open(spec);
                d.run(&mut db, history[..k].iter().cloned());
                let at = CrashPoint { write, torn };
                let findings = d.crash_during(&mut db, &history[k], at);
                tally.points += 1;
                if findings.is_empty() {
                    d.finish(&mut db);
                } else {
                    tally.gap += 1;
                }
            }
        }
    }
}

/// Every config on `tree` beside `companions` objects over `seeds`
/// seeds: three schemes × each log setting in `logs`. A failure names its
/// config and seed before the panic goes on.
fn every_point(tree: TreeConfig, companions: usize, logs: &[bool], seeds: u64) {
    let specs = [
        ManagerSpec::esm(4),
        ManagerSpec::eos(4),
        ManagerSpec::starburst(),
    ];
    for &alloc_log in logs {
        for spec in specs {
            let what = format!(
                "{} log {alloc_log} fan-out {} beside {companions}",
                spec.label(),
                tree.node_entries
            );
            let store = Store {
                alloc_log,
                tree,
                companions,
            };
            let mut tally = Tally::default();
            for seed in 0..seeds {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    enumerate(spec, store, seed, &mut tally)
                }));
                if let Err(panic) = run {
                    eprintln!("crash points failed: {what} seed {seed}");
                    std::panic::resume_unwind(panic);
                }
            }
            eprintln!(
                "{what}: {} points, {} at a log-off checkpoint left findings",
                tally.points, tally.gap
            );
        }
    }
}

/// 16 seeds optimized (a `ci.sh` step), 1 otherwise.
fn seeds() -> u64 {
    if cfg!(debug_assertions) {
        1
    } else {
        16
    }
}

#[test]
fn every_write_call_on_the_paper_tree_is_a_crash_point() {
    every_point(TreeConfig::default(), 0, &[true, false], seeds());
}

#[test]
fn every_write_call_on_a_tiny_tree_is_a_crash_point() {
    every_point(TreeConfig::tiny(4), 0, &[true, false], seeds());
}

/// 4 seeds optimized, 1 otherwise: every point re-creates the sixteen.
#[test]
fn every_write_call_beside_sixteen_objects_is_a_crash_point() {
    every_point(TreeConfig::default(), 16, &[true], seeds().min(4));
}
