//! Multi-thread hammer tests for [`SharedDb`] on real threads, beside
//! the seeded schedules of `tests/schedules.rs`: a schedule runs one
//! logical thread at a time and so never shows what hardware memory
//! ordering does to threads that truly run at once. Every acquisition
//! still checks the lock order (`lobstore::obs::sync::Rank`) in debug
//! builds.
//!
//! Two storms:
//!
//! * `mixed_traffic_…` — N threads drive mixed create/append/read/
//!   delete/destroy traffic through the write tier. Each thread measures
//!   the I/O cost of every operation it issues (an `io_stats` delta
//!   taken *inside* the critical section, so the delta is attributable
//!   to exactly that operation), and the test asserts I/O-accounting
//!   closure: the sum of all per-operation deltas equals the database's
//!   total I/O. Any I/O escaping the cost-counted wrappers — or any
//!   interleaving splicing one thread's I/O into another's measurement —
//!   breaks the equation.
//!
//! * `snapshot_scans_race_writers_…` — N scanner threads stream pinned
//!   snapshots on the **read** tier while M writer threads churn all
//!   three schemes on the write tier. Every scan pass must return the
//!   exact bytes pinned at setup (byte stability under churn), the
//!   closure equation must still hold with reader and writer I/O
//!   interleaved (each scanner refill, the cursor's only database
//!   access, is measured inside an aux-mutex + read-lock region, so no
//!   writer I/O can splice in), and an offline fsck of the settled
//!   database must come back clean.
//!
//! Both storms exercise the obs registry from every thread: the
//! registry is thread-local by design, so each thread's metrics must be
//! exact (no cross-thread bleed), and the coordinator folds worker
//! snapshots together with [`lobstore_obs::merge_thread_registry`].

use std::io::{Read, Seek, SeekFrom};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use lobstore::workload::fill;
use lobstore::{Catalog, Db, ManagerSpec, ReadAccess, SharedDb, SpanCursor};
use lobstore_cli::check_database;
use lobstore_simdisk::IoStats;

const THREADS: u8 = 6;
const OPS_PER_THREAD: usize = 25;

#[test]
fn mixed_traffic_from_many_threads_keeps_io_accounting_closed() {
    let shared = SharedDb::new(Db::paper_default());
    let initial = shared.with(|db| db.io_stats());

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let shared = shared.clone();
        handles.push(std::thread::spawn(move || {
            // Fresh per-thread registry; this thread's metrics count
            // only its own operations.
            lobstore_obs::reset();
            let mut ops_counted = 0u64;
            // One op = one critical section; the delta is measured with
            // the lock held so no other thread's I/O can leak into it.
            let mut spent = IoStats::default();
            let mut op = |f: &mut dyn FnMut(&mut Db)| {
                let delta = shared.with(|db| {
                    let before = db.io_stats();
                    f(db);
                    db.io_stats() - before
                });
                spent = spent + delta;
                lobstore_obs::counter_add("hammer.ops", 1);
                lobstore_obs::histogram_record("hammer.op_pages", delta.pages());
                ops_counted += 1;
                // Snapshot while every other thread mutates its own
                // registry: must never panic, and must reflect exactly
                // this thread's activity.
                if ops_counted.is_multiple_of(8) {
                    let snap = lobstore_obs::snapshot();
                    let (_, count) = snap
                        .counters
                        .iter()
                        .find(|(name, _)| name == "hammer.ops")
                        .expect("own counter visible");
                    assert_eq!(*count, ops_counted, "thread {t} counter bleed");
                    let h = snap
                        .histograms
                        .iter()
                        .find(|h| h.name == "hammer.op_pages")
                        .expect("own histogram visible");
                    assert_eq!(h.count, ops_counted, "thread {t} histogram bleed");
                    assert!(h.p99().is_some(), "quantiles available mid-run");
                }
            };
            let spec = match t % 3 {
                0 => ManagerSpec::esm(4),
                1 => ManagerSpec::eos(8),
                _ => ManagerSpec::starburst(),
            };
            let mut obj = None;
            op(&mut |db| obj = Some(spec.create(db).expect("create")));
            let mut obj = obj.expect("created");
            let mut model: Vec<u8> = Vec::new();
            for i in 0..OPS_PER_THREAD {
                match i % 5 {
                    // Mostly appends, so the object keeps growing.
                    0..=2 => {
                        let chunk = fill(4_000 + 128 * i, (u64::from(t) << 32) | i as u64);
                        op(&mut |db| obj.append(db, &chunk).expect("append"));
                        model.extend_from_slice(&chunk);
                    }
                    3 => {
                        let len = (model.len() / 3).clamp(1, 2_500) as u64;
                        op(&mut |db| obj.delete(db, 0, len).expect("delete"));
                        model.drain(0..len as usize);
                    }
                    _ => {
                        let off = (model.len() / 4) as u64;
                        let len = (model.len() - off as usize).min(3_000);
                        let mut out = vec![0u8; len];
                        op(&mut |db| obj.read(db, off, &mut out).expect("read"));
                        assert_eq!(
                            out,
                            model[off as usize..off as usize + len],
                            "thread {t} read back wrong bytes at op {i}"
                        );
                    }
                }
            }
            shared.with(|db| obj.check_invariants(db).expect("invariants"));
            let snap = shared.with(|db| obj.snapshot(db));
            assert_eq!(snap, model, "thread {t} content diverged");
            // Half the threads destroy their object, freeing storage
            // while the others are still appending.
            if t % 2 == 0 {
                op(&mut |db| obj.destroy(db).expect("destroy"));
            }
            // Final per-thread metric closure: the registry counted
            // every op this thread issued, nothing more.
            let snap = lobstore_obs::snapshot();
            let (_, count) = snap
                .counters
                .iter()
                .find(|(name, _)| name == "hammer.ops")
                .unwrap();
            assert_eq!(*count, ops_counted, "thread {t} final counter");
            // Histogram I/O accounting matches the io_stats closure sum:
            // total recorded pages equals the pages this thread spent.
            let h = snap
                .histograms
                .iter()
                .find(|h| h.name == "hammer.op_pages")
                .unwrap();
            assert_eq!(h.sum, spent.pages(), "thread {t} pages bleed");
            // Reset-then-snapshot stays empty even while neighbors are
            // mid-traffic (the snapshot-after-reset contract).
            let mine = lobstore_obs::snapshot();
            lobstore_obs::reset();
            assert!(lobstore_obs::snapshot().counters.is_empty());
            (spent, ops_counted, mine)
        }));
    }

    lobstore_obs::reset();
    let mut spent_total = IoStats::default();
    let mut ops_total = 0u64;
    for h in handles {
        let (spent, ops, mine) = h.join().expect("worker thread");
        spent_total = spent_total + spent;
        ops_total += ops;
        // Fold each worker's thread-local registry into this thread's.
        lobstore_obs::merge_thread_registry(&mine);
    }
    // The merged registry holds the fleet-wide totals: every op from
    // every thread, and histogram page totals matching the I/O closure.
    let merged = lobstore_obs::snapshot();
    assert_eq!(merged.counter("hammer.ops"), ops_total, "merged op count");
    let h = merged
        .histogram("hammer.op_pages")
        .expect("merged histogram");
    assert_eq!(h.count, ops_total);
    assert_eq!(h.sum, spent_total.pages(), "merged histogram page total");

    // Closure: everything the database's disk did is accounted to
    // exactly one thread's operation measurements.
    let final_stats = shared.with(|db| db.io_stats());
    assert_eq!(
        spent_total,
        final_stats - initial,
        "per-thread io_stats deltas must sum to the database total"
    );
    assert!(spent_total.calls() > 0, "the workload must do real I/O");

    let mut db = shared.try_unwrap().ok().expect("last handle");
    db.checkpoint();
}

/// A scanner's way to the database: every refill of its pinned cursor
/// runs inside one (aux mutex + read lock) region — the read lock keeps
/// writer I/O out, the aux mutex keeps sibling scanners out — and adds
/// its I/O delta to `spent`.
struct Metered<'a> {
    shared: &'a SharedDb,
    aux: &'a Mutex<()>,
    spent: &'a mut IoStats,
}

impl ReadAccess for Metered<'_> {
    #[allow(
        clippy::disallowed_methods,
        reason = "a lock of this test's own, outside the library's lock order"
    )]
    fn with_db<R>(&mut self, f: impl FnOnce(&Db) -> R) -> R {
        let _guard = self.aux.lock().unwrap();
        let (r, delta) = self.shared.with_read(|db| {
            let before = db.io_stats();
            let r = f(db);
            (r, db.io_stats() - before)
        });
        *self.spent = *self.spent + delta;
        r
    }
}

const SCANNERS: usize = 4;
const WRITER_OPS: usize = 40;
const SEED_BYTES: usize = 150_000;
const SCAN_CHUNK: usize = 8 * 1024;

/// N pinned-snapshot scanners on the read tier race M writers on the
/// write tier across all three schemes; byte stability, I/O-accounting
/// closure, and a clean offline fsck must all survive the storm.
#[test]
fn snapshot_scans_race_writers_with_closed_accounting_and_clean_fsck() {
    let shared = SharedDb::new(Db::paper_default());

    // Setup: one object per scheme, registered in a catalog for fsck,
    // seeded with a known pattern. Committed (checkpointed) before any
    // pin, so every scanner's expected bytes are exactly the seed.
    let specs = [
        ("esm", ManagerSpec::esm(8)),
        ("eos", ManagerSpec::eos(8)),
        ("star", ManagerSpec::starburst()),
    ];
    let cat_root = shared.with(|db| Catalog::create(db).unwrap().root_page());
    let mut objs = Vec::new();
    for (i, (name, spec)) in specs.iter().enumerate() {
        let (kind, root, model) = shared.with(|db| {
            let mut obj = spec.create(db).unwrap();
            let seed = fill(SEED_BYTES, i as u64);
            obj.append(db, &seed).unwrap();
            let mut cat = Catalog::open(db, cat_root).unwrap();
            cat.put(db, name, obj.kind(), obj.root_page()).unwrap();
            (obj.kind(), obj.root_page(), seed)
        });
        objs.push((kind, root, model));
    }
    shared.with(|db| db.checkpoint());

    // Pin the scanners *before* the churn begins: each holds a snapshot
    // of the seeded state, so "byte-stable" has ground truth.
    let mut scan_handles = Vec::new();
    let mut pinned = Vec::new();
    for s in 0..SCANNERS {
        let (_, root, expect) = &objs[s % objs.len()];
        pinned.push((shared.with(Db::snapshot), *root, expect.clone()));
    }

    // Baseline after all setup I/O (object creation, catalog, pins): the
    // closure equation covers exactly the storm, the scanners' cursor
    // opens included.
    let initial = shared.with(|db| db.io_stats());
    let done = Arc::new(AtomicBool::new(false));
    // Serializes scanners against each other (but not against writers —
    // the read lock inside excludes those) so each scanner's io_stats
    // delta is attributable to its own refills.
    let aux = Arc::new(Mutex::new(()));

    // Writers: one per scheme, churning the *same cataloged objects the
    // scanners pinned* — the hardest case for byte stability, because
    // every shadowed page a writer replaces is one a pinned snapshot
    // still needs. Per-op deltas are measured inside the write critical
    // section.
    let mut write_handles = Vec::new();
    for (w, (kind, root, seed)) in objs.into_iter().enumerate() {
        let shared = shared.clone();
        write_handles.push(std::thread::spawn(move || {
            lobstore_obs::reset();
            let mut spent = IoStats::default();
            let mut obj = None;
            let delta = shared.with(|db| {
                let before = db.io_stats();
                obj = Some(lobstore::open_object(db, kind, root).expect("open"));
                db.io_stats() - before
            });
            spent = spent + delta;
            let mut obj = obj.expect("opened");
            let mut model: Vec<u8> = seed;
            for i in 0..WRITER_OPS {
                let delta = shared.with(|db| {
                    let before = db.io_stats();
                    if i % 4 == 3 && model.len() > 4_000 {
                        obj.delete(db, 0, 2_000).expect("delete");
                        model.drain(0..2_000);
                    } else {
                        let chunk = fill(4_000 + 64 * i, ((w as u64 + 16) << 32) | i as u64);
                        obj.append(db, &chunk).expect("append");
                        model.extend_from_slice(&chunk);
                    }
                    db.io_stats() - before
                });
                spent = spent + delta;
                lobstore_obs::counter_add("storm.writer_ops", 1);
            }
            let delta = shared.with(|db| {
                let before = db.io_stats();
                obj.check_invariants(db).expect("invariants");
                let got = obj.snapshot(db);
                assert_eq!(got, model, "writer {w} content diverged");
                db.io_stats() - before
            });
            spent = spent + delta;
            (spent, lobstore_obs::snapshot())
        }));
    }

    // Scanners: stream the pinned snapshot end-to-end, repeatedly, on
    // the read tier, each through a `Metered` cursor.
    for (s, (snap, root, expect)) in pinned.into_iter().enumerate() {
        let shared = shared.clone();
        let done = done.clone();
        let aux = aux.clone();
        scan_handles.push(std::thread::spawn(move || {
            lobstore_obs::reset();
            let mut spent = IoStats::default();
            let mut passes = 0u64;
            let mut buf = vec![0u8; SCAN_CHUNK];
            let access = Metered {
                shared: &shared,
                aux: &aux,
                spent: &mut spent,
            };
            let mut reader = SpanCursor::pinned(access, &snap, root).unwrap();
            while !done.load(Ordering::Acquire) || passes < 2 {
                reader.seek(SeekFrom::Start(0)).unwrap();
                let mut got = Vec::with_capacity(expect.len());
                loop {
                    let n = reader.read(&mut buf).unwrap();
                    if n == 0 {
                        break;
                    }
                    got.extend_from_slice(&buf[..n]);
                }
                assert_eq!(
                    got, expect,
                    "scanner {s} pass {passes}: pinned bytes changed under churn"
                );
                passes += 1;
                lobstore_obs::counter_add("storm.scan_passes", 1);
            }
            drop(reader);
            (spent, passes, snap, lobstore_obs::snapshot())
        }));
    }

    lobstore_obs::reset();
    let mut spent_total = IoStats::default();
    for h in write_handles {
        let (spent, mine) = h.join().expect("writer thread");
        spent_total = spent_total + spent;
        lobstore_obs::merge_thread_registry(&mine);
    }
    done.store(true, Ordering::Release);
    let mut total_passes = 0u64;
    let mut snaps = Vec::new();
    for h in scan_handles {
        let (spent, passes, snap, mine) = h.join().expect("scanner thread");
        spent_total = spent_total + spent;
        total_passes += passes;
        snaps.push(snap);
        lobstore_obs::merge_thread_registry(&mine);
    }

    // Closure: every page the disk moved during the storm is accounted
    // to exactly one writer op or one scanner refill.
    let final_stats = shared.with(|db| db.io_stats());
    assert_eq!(
        spent_total,
        final_stats - initial,
        "writer + scanner io_stats deltas must sum to the database total"
    );
    assert!(spent_total.calls() > 0, "the storm must do real I/O");

    // Fleet-wide metrics via the merged registries.
    let merged = lobstore_obs::snapshot();
    assert_eq!(merged.counter("storm.scan_passes"), total_passes);
    assert_eq!(
        merged.counter("storm.writer_ops"),
        (specs.len() * WRITER_OPS) as u64
    );
    assert!(total_passes >= 2 * SCANNERS as u64, "every scanner scanned");

    // Settle: release every pin (running the deferred frees), then an
    // offline fsck across all three schemes must come back clean.
    for snap in snaps {
        shared.with(|db| db.release_snapshot(snap));
    }
    let mut db = shared.try_unwrap().ok().expect("last handle");
    assert_eq!(db.pinned_snapshots(), 0);
    db.checkpoint();
    let mut cat = Catalog::open(&mut db, cat_root).unwrap();
    let findings = check_database(&mut db, &mut cat);
    assert!(findings.is_empty(), "fsck after the storm: {findings:?}");
}
