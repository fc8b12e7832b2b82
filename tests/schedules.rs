//! Seeded schedules (`lobstore::obs::sync::schedule`) over the buffer
//! pool and `SharedDb`. One logical thread runs at a time and the seed
//! picks the next at every lock acquisition, so each seed is one
//! interleaving, the same on every run, and a deadlock is reported with
//! its held/wanted table instead of hanging the suite. The lock-order
//! check (`lobstore::obs::sync::Rank`) is on in every debug test.
//!
//! * Pool schedules: guards on two pages never share a latch, and a pool
//!   call made under a page guard, which could hang, is a reported
//!   order violation.
//! * `SharedDb` schedules: one writer drives a `Driver` through
//!   `SharedDb::with` while two pinned scanners stream the object. Every
//!   scan reads the model's bytes at its pinned version, every pin is
//!   released, the pool's frames come back and `Db::verify` is clean —
//!   also when a scanner panics inside `with_db` at a seeded refill, or
//!   the writer panics inside `with` and poisons the database lock.

use std::io::Read;

use lobstore::bufpool::{BufferPool, PoolConfig};
use lobstore::obs::sync::{self, Thread};
use lobstore::simdisk::SimDisk;
use lobstore::workload::model::{assert_same, Driver, Kind, Op, OpGen};
#[cfg(debug_assertions)]
use lobstore::PAGE_SIZE;
use lobstore::{
    AreaId, Db, DbConfig, ManagerSpec, PageId, ReadAccess, SharedDb, Snapshot, SpanCursor,
};

fn meta(page: u32) -> PageId {
    PageId::new(AreaId::META, page)
}

fn small_pool() -> BufferPool {
    BufferPool::new(
        SimDisk::paper_default(),
        PoolConfig {
            frames: 4,
            max_buffered_seg: 4,
        },
    )
}

/// Guards on pages 16 apart latch two frames: a thread takes its guard
/// on page 16 while another holds one on page 0. A latch keyed by a small
/// hash of the page number would make it wait, a reported deadlock.
#[test]
fn guards_on_pages_sixteen_apart_do_not_wait_for_each_other() {
    let pool = small_pool();
    for seed in 0..8 {
        let hold = || {
            let mut g = pool.guard_mut(meta(0));
            g[0] = 1;
            g
        };
        let body = || {
            let mut g = pool.guard_mut(meta(16));
            g[0] = 2;
        };
        assert_eq!(sync::while_held(seed, hold, body), Ok(()), "seed {seed}");
    }
    assert_eq!(pool.available_frames(), 4);
}

/// A thread holding a page guard that makes another pool call could hang
/// against a reader of the same page: `read_pages` holds `ctl` while it
/// waits for the guarded frame to overlay its dirty bytes, and the pool
/// call waits for `ctl`. The call is reported as an order violation
/// whatever the interleaving, and the reader then finishes.
#[cfg(debug_assertions)]
#[test]
fn a_pool_call_under_a_guard_is_reported_against_a_reader() {
    for seed in 0..16 {
        let pool = BufferPool::paper_default();
        let holder = || {
            let mut g = pool.guard_new(meta(0));
            g[0] = 1;
            drop(pool.guard_mut(meta(16)));
        };
        let reader = || pool.read_pages(AreaId::META, 0, 1, &mut [0u8; PAGE_SIZE]);
        let out = sync::schedule(seed, vec![Box::new(holder), Box::new(reader)]);
        let err = out[0].clone().expect_err("the holder's second call");
        assert!(
            err.starts_with("lock order violation: holds [FrameBytes")
                && err.contains("wants PoolCtl"),
            "seed {seed}: {err}"
        );
        assert_eq!(out[1], Ok(()), "seed {seed}");
        assert_eq!(pool.available_frames(), 12);
    }
}

/// On one thread, `read_pages` over a page the caller holds a guard on
/// would wait for its own latch; it is reported instead.
#[cfg(debug_assertions)]
#[test]
fn read_pages_under_its_own_guard_is_reported() {
    let pool = BufferPool::paper_default();
    let body = || {
        let mut g = pool.guard_new(meta(0));
        g[0] = 1;
        pool.read_pages(AreaId::META, 0, 1, &mut [0u8; PAGE_SIZE]);
    };
    let out = sync::schedule(0, vec![Box::new(body)]);
    let err = out[0].clone().expect_err("an order violation");
    assert!(err.starts_with("lock order violation"), "{err}");
    assert_eq!(pool.available_frames(), 12);
}

/// The writer's mix: data ops and transactions; no crash, recreate or
/// pin of its own, so the root the scanners open stays put.
const MIX: &[(u32, Kind)] = &[
    (3, Kind::Append),
    (2, Kind::Insert),
    (2, Kind::Delete),
    (2, Kind::Replace),
    (1, Kind::Txn),
];
const WRITER_OPS: usize = 10;
const SEED_BYTES: usize = 200_000;
const PASSES: usize = 2;

/// What goes wrong in a schedule on purpose.
#[derive(Copy, Clone, Debug)]
enum Fault {
    None,
    /// The second scanner's second pass panics inside `with_db` at its
    /// n-th call (the open is the first).
    Scanner(u32),
    /// The writer panics inside `with` before its n-th op.
    Writer(usize),
}

/// `SharedDb`'s read tier that panics at a seeded call, inside the lock.
struct Faulty<'a> {
    shared: &'a SharedDb,
    calls: u32,
    panic_at: u32,
}

impl ReadAccess for Faulty<'_> {
    fn with_db<R>(&mut self, f: impl FnOnce(&Db) -> R) -> R {
        self.shared.with_read(|db| {
            self.calls += 1;
            assert!(
                self.calls != self.panic_at,
                "seeded scanner panic at call {}",
                self.calls
            );
            f(db)
        })
    }
}

/// A pin released on drop, unwinding included.
struct Pin<'a>(&'a SharedDb, Option<Snapshot>);

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        if let Some(snap) = self.1.take() {
            self.0.with(|db| db.release_snapshot(snap));
        }
    }
}

/// One pass of a `SharedSnapshotReader` over `root`: its version and
/// bytes.
fn shared_scan(shared: &SharedDb, root: u32) -> (u64, Vec<u8>) {
    let mut got = Vec::new();
    let mut cursor = shared.snapshot_reader(root).expect("pinned open");
    cursor.read_to_end(&mut got).expect("pinned scan");
    (cursor.version(), got)
}

/// [`shared_scan`] through [`Faulty`], which panics at its `panic_at`-th
/// call; the pin is released as the panic unwinds.
fn faulty_scan(shared: &SharedDb, root: u32, panic_at: u32) -> (u64, Vec<u8>) {
    let pin = Pin(shared, Some(shared.with(Db::snapshot)));
    let snap = pin.1.as_ref().expect("pinned");
    let access = Faulty {
        shared,
        calls: 0,
        panic_at,
    };
    let mut got = Vec::new();
    let mut cursor = SpanCursor::pinned(access, snap, root).expect("pinned open");
    cursor.read_to_end(&mut got).expect("pinned scan");
    (cursor.version(), got)
}

/// A scanner thread: `PASSES` scans of `root`, the second through
/// [`faulty_scan`] if `faulty_at` is given, each pushed to `scans`.
fn scanner<'a>(
    shared: &'a SharedDb,
    root: u32,
    faulty_at: Option<u32>,
    scans: &'a mut Vec<(u64, Vec<u8>)>,
) -> impl FnOnce() + Send + 'a {
    move || {
        for pass in 0..PASSES {
            scans.push(match faulty_at {
                Some(at) if pass == 1 => faulty_scan(shared, root, at),
                _ => shared_scan(shared, root),
            });
        }
    }
}

fn scheduled_case(seed: u64, fault: Fault) {
    let spec = [
        ManagerSpec::esm(4),
        ManagerSpec::eos(16),
        ManagerSpec::starburst(),
    ][seed as usize % 3];
    let shared = SharedDb::new(Db::new(DbConfig {
        alloc_log: true,
        ..DbConfig::default()
    }));
    let mut driver = shared.with(|db| {
        let mut d = Driver::new(db, spec);
        d.run(db, [Op::Append(SEED_BYTES)]);
        d
    });
    let root = driver.obj.root_page();
    // The model's bytes at every committed version the scanners may pin.
    let mut versions =
        vec![shared.with(|db| (db.current_version(), driver.model.bytes().to_vec()))];
    let mut scans = [Vec::new(), Vec::new()];
    {
        let (shared, versions, writes) = (&shared, &mut versions, &mut driver);
        let writer = move || {
            let ops = OpGen::new(seed, MIX, 8_000).take(WRITER_OPS);
            for (i, op) in ops.enumerate() {
                versions.push(shared.with(|db| {
                    if let Fault::Writer(at) = fault {
                        assert!(i != at, "seeded writer panic before op {i}");
                    }
                    writes.apply(db, &op);
                    (db.current_version(), writes.model.bytes().to_vec())
                }));
            }
        };
        let [first, second] = &mut scans;
        let faulty_at = match fault {
            Fault::Scanner(at) => Some(at),
            _ => None,
        };
        let threads: Vec<Thread> = vec![
            Box::new(writer),
            Box::new(scanner(shared, root, None, first)),
            Box::new(scanner(shared, root, faulty_at, second)),
        ];
        let out = sync::schedule(seed, threads);
        let expected = |t: usize| match (fault, t) {
            (Fault::Writer(_), 0) => Some("seeded writer panic"),
            (Fault::Scanner(_), 2) => Some("seeded scanner panic"),
            _ => None,
        };
        for (t, o) in out.iter().enumerate() {
            match (o, expected(t)) {
                (Ok(()), None) => {}
                (Err(e), Some(want)) if e.starts_with(want) => {}
                _ => panic!("seed {seed} {fault:?}: thread {t} ended {o:?}"),
            }
        }
    }
    for (version, got) in scans.iter().flatten() {
        let want = versions
            .iter()
            .rev()
            .find(|(v, _)| v == version)
            .unwrap_or_else(|| panic!("seed {seed}: version {version} was never committed"));
        assert_same(
            got,
            &want.1,
            &format!("seed {seed} {fault:?}: scan of version {version}"),
        );
    }
    shared.with(|db| {
        assert_eq!(
            db.pinned_snapshots(),
            0,
            "seed {seed} {fault:?}: a pin leaked"
        );
        assert_eq!(
            db.pool().available_frames(),
            12,
            "seed {seed} {fault:?}: a frame stayed fixed"
        );
        let findings = db.verify(&[("obj", driver.obj.as_ref())], &driver.other_meta);
        assert!(findings.is_empty(), "seed {seed} {fault:?}: {findings:?}");
    });
}

/// One writer and two pinned scanners over fixed seeds, the scheme
/// `seed % 3`; seeded scanner panics inside `with_db` (at the first
/// refill, and at the second on ESM), and one writer panic that poisons
/// the database lock.
#[test]
fn pinned_scans_read_their_version_under_every_schedule() {
    for seed in 0..16 {
        scheduled_case(seed, Fault::None);
    }
    scheduled_case(16, Fault::Scanner(2));
    scheduled_case(17, Fault::Scanner(2));
    scheduled_case(18, Fault::Scanner(3));
    scheduled_case(19, Fault::Writer(4));
}
