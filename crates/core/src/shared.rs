//! Coarse-grained sharing of a database across threads, with a parallel
//! read side for snapshot scans.
//!
//! The paper's study — and therefore the engine — is single-client: every
//! *mutating* operation takes `&mut Db` and runs to completion.
//! [`SharedDb`] makes that contract usable from multiple threads with a
//! **two-tier lock** (DESIGN.md §17):
//!
//! * mutating operations ([`SharedDb::with`]) take the **write side** of
//!   one [`RwLock`] and run serialized, exactly like the paper's
//!   simulation driver;
//! * version-pinned snapshot scans ([`SharedDb::snapshot_reader`]) take
//!   only the **read side**, once per refill: everything the pinned
//!   cursor ([`crate::SpanCursor`] over a [`crate::Pinned`] source)
//!   touches below its root is immutable while the pin is held, and the
//!   buffer pool's control mutex and per-frame latches make the page
//!   traffic thread-safe — so any number of scanners stream concurrently,
//!   and with each other *and* block only writers.
//!
//! This is still not fine-grained concurrency control over updates:
//! latches, lock crabbing, and transactions are outside the paper's scope
//! (§3.3: "our study does not involve transactions"). The read side is
//! safe precisely because MVCC pins freeze the scanned storage.
//!
//! # Poison recovery
//!
//! Both lock sides recover a poisoned lock (a panic in another thread's
//! closure) rather than propagating it, on both tiers for the same
//! reason: the database state carries no partial-update hazard across
//! the lock — every mutating operation re-validates on entry, and a
//! reader that panicked mid-scan held no pool pins or latches at the
//! `RwLock` boundary (page pins live strictly inside pool calls). The
//! snapshot pin a panicking reader leaks is released by its
//! [`SharedPin`]'s `Drop`.

use std::sync::{Arc, RwLock};

use lobstore_obs::sync::{self, Rank};

use crate::db::Db;
use crate::error::Result;
use crate::metrics;
use crate::stream::{Pinned, ReadAccess, SpanCursor};
use crate::version::Snapshot;

/// A cloneable, thread-safe handle to one database. All clones refer to
/// the same underlying [`Db`]; mutating operations are serialized on the
/// write side of one lock, snapshot scans share the read side.
#[derive(Clone)]
pub struct SharedDb {
    inner: Arc<RwLock<Db>>,
}

impl SharedDb {
    /// Wrap a database for shared access.
    pub fn new(db: Db) -> Self {
        SharedDb {
            inner: Arc::new(RwLock::new(db)),
        }
    }

    /// Run `f` with exclusive access to the database (the write tier).
    /// Blocks while any other writer *or any snapshot scanner* holds the
    /// lock. Contended acquisitions are counted on
    /// `core.shared.write_waits`.
    pub fn with<R>(&self, f: impl FnOnce(&mut Db) -> R) -> R {
        if let Some(mut g) = sync::try_write(&self.inner, Rank::SharedDb) {
            return f(&mut g);
        }
        metrics::SHARED_WRITE_WAITS.add(1);
        f(&mut sync::write(&self.inner, Rank::SharedDb))
    }

    /// Run `f` with shared (read-only) access to the database. Any number
    /// of readers run concurrently; contended acquisitions are counted on
    /// `core.shared.read_waits`.
    ///
    /// `&Db` exposes no mutation, so this tier cannot violate the
    /// engine's single-writer contract; the buffer pool and simulated
    /// disk are internally synchronized for the page traffic `&Db` reads
    /// perform.
    pub fn with_read<R>(&self, f: impl FnOnce(&Db) -> R) -> R {
        if let Some(g) = sync::try_read(&self.inner, Rank::SharedDb) {
            return f(&g);
        }
        metrics::SHARED_READ_WAITS.add(1);
        f(&sync::read(&self.inner, Rank::SharedDb))
    }

    /// Pin the current committed version and open a cursor over the
    /// object rooted at `root_page` as of it. The pin takes the write
    /// lock briefly; the open and every refill take only the read side.
    /// The cursor owns the pin: dropping it (or [`SharedSnapshotReader::close`])
    /// releases it, and so does a failed open.
    pub fn snapshot_reader(&self, root_page: u32) -> Result<SharedSnapshotReader> {
        let snap = self.with(Db::snapshot);
        let version = snap.version();
        let pin = SharedPin {
            shared: self.clone(),
            snap: Some(snap),
        };
        SpanCursor::open(pin, version, root_page)
    }

    /// Recover the unique [`Db`] if this is the last handle.
    pub fn try_unwrap(self) -> std::result::Result<Db, SharedDb> {
        Arc::try_unwrap(self.inner)
            .map(sync::into_inner)
            .map_err(|inner| SharedDb { inner })
    }
}

/// A pinned cursor over `SharedDb` enters the read tier once per refill.
impl ReadAccess for SharedDb {
    fn with_db<R>(&mut self, f: impl FnOnce(&Db) -> R) -> R {
        self.with_read(f)
    }
}

/// `SharedDb`'s read tier together with the snapshot pin it serves:
/// dropping it re-enters the write tier once to release the pin.
pub struct SharedPin {
    shared: SharedDb,
    snap: Option<Snapshot>,
}

impl ReadAccess for SharedPin {
    fn with_db<R>(&mut self, f: impl FnOnce(&Db) -> R) -> R {
        self.shared.with_db(f)
    }
}

impl Drop for SharedPin {
    fn drop(&mut self) {
        if let Some(snap) = self.snap.take() {
            self.shared.with(|db| db.release_snapshot(snap));
        }
    }
}

/// The pinned cursor [`SharedDb::snapshot_reader`] returns: it owns its
/// pin and takes the read tier only to refill its span.
pub type SharedSnapshotReader = SpanCursor<Pinned<SharedPin>>;

impl SharedSnapshotReader {
    /// Release the snapshot pin now (otherwise done on drop).
    pub fn close(self) {
        drop(self);
    }
}

// The whole stack must be transferable across threads for SharedDb to be
// useful — and `Db` must additionally be `Sync` for the read tier to
// hand `&Db` to concurrent scanners; these compile-time assertions pin
// both properties.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<Db>();
    assert_sync::<Db>();
    assert_send::<crate::Lob>();
    assert_send::<SharedDb>();
    assert_send::<SharedSnapshotReader>();
};

#[cfg(test)]
mod tests {
    use std::io::{BufRead, Read, Seek, SeekFrom};

    use super::*;
    use crate::spec::ManagerSpec;

    #[test]
    fn threads_share_one_database() {
        let shared = SharedDb::new(Db::paper_default());
        // Each thread owns one object and hammers it.
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || {
                let spec = match t % 3 {
                    0 => ManagerSpec::esm(4),
                    1 => ManagerSpec::eos(4),
                    _ => ManagerSpec::starburst(),
                };
                let mut obj = shared.with(|db| spec.create(db)).unwrap();
                let mut model = Vec::new();
                for i in 0..30usize {
                    let chunk = vec![t.wrapping_mul(31).wrapping_add(i as u8); 5_000];
                    shared.with(|db| obj.append(db, &chunk)).unwrap();
                    model.extend_from_slice(&chunk);
                    if i % 7 == 3 {
                        shared.with(|db| obj.delete(db, 0, 2_000)).unwrap();
                        model.drain(0..2_000);
                    }
                }
                let snap = shared.with(|db| {
                    obj.check_invariants(db).unwrap();
                    obj.snapshot(db)
                });
                assert_eq!(snap, model, "thread {t} content diverged");
                obj.root_page()
            }));
        }
        let roots: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All four objects coexist and are distinct.
        let unique: std::collections::HashSet<_> = roots.iter().collect();
        assert_eq!(unique.len(), 4);
        // The database comes back out once every clone is gone.
        let mut db = shared.try_unwrap().ok().expect("last handle");
        assert!(db.leaf_pages_allocated() > 0);
        let _ = db.io_stats();
        db.checkpoint();
    }

    #[test]
    fn try_unwrap_fails_while_shared() {
        let a = SharedDb::new(Db::paper_default());
        let b = a.clone();
        let a = a.try_unwrap().err().expect("still shared");
        drop(b);
        assert!(a.try_unwrap().is_ok());
    }

    #[test]
    fn read_tier_runs_concurrently_with_itself() {
        let shared = SharedDb::new(Db::paper_default());
        let mut obj = shared.with(|db| ManagerSpec::eos(4).create(db)).unwrap();
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 241) as u8).collect();
        shared.with(|db| obj.append(db, &payload)).unwrap();

        // Two cursors over the same object stream in parallel and both
        // see the committed bytes.
        let mk = || shared.snapshot_reader(obj.root_page()).unwrap();
        let (a, b) = (mk(), mk());
        let want = payload.clone();
        let t = std::thread::spawn(move || {
            let mut r = a;
            let mut out = Vec::new();
            r.read_to_end(&mut out).unwrap();
            assert_eq!(out, want);
        });
        let mut r = b;
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, payload);
        drop(r);
        t.join().unwrap();
        // Both pins released on drop.
        assert_eq!(shared.with(|db| db.pinned_snapshots()), 0);
    }

    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

    fn fnv(digest: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(digest, |d, &b| {
            (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Build an EOS object of `len` patterned bytes; returns its root
    /// page and the digest of its content.
    fn patterned(shared: &SharedDb, len: usize) -> (u32, u64) {
        let mut obj = shared.with(|db| ManagerSpec::eos(16).create(db)).unwrap();
        let mut digest = FNV_OFFSET;
        let mut chunk = vec![0u8; 256 * 1024];
        for at in (0..len).step_by(chunk.len()) {
            let n = chunk.len().min(len - at);
            for (i, b) in chunk[..n].iter_mut().enumerate() {
                *b = ((at + i) % 251) as u8;
            }
            digest = fnv(digest, &chunk[..n]);
            shared.with(|db| obj.append(db, &chunk[..n])).unwrap();
        }
        (obj.root_page(), digest)
    }

    /// Digest of the whole object, read from offset 0.
    fn scan_digest(r: &mut SharedSnapshotReader) -> u64 {
        r.seek(SeekFrom::Start(0)).unwrap();
        let mut left = r.size();
        let mut digest = FNV_OFFSET;
        while left > 0 {
            let buf = r.fill_buf().unwrap();
            assert!(!buf.is_empty(), "{left} bytes short");
            digest = fnv(digest, buf);
            let n = buf.len();
            r.consume(n);
            left -= n as u64;
        }
        digest
    }

    #[test]
    fn cold_pinned_scan_needs_only_the_read_tier() {
        let shared = SharedDb::new(Db::paper_default());
        // Dozens of runs: the scanner refills once per run of on-disk
        // neighbours, each time through the lock, while another thread
        // holds its read side.
        let (root, want) = patterned(&shared, 9 << 20);
        for seed in 0..2 {
            let mut r = shared.snapshot_reader(root).unwrap();
            let hold = || sync::read(&shared.inner, Rank::SharedDb);
            let scan = || assert_eq!(scan_digest(&mut r), want, "a pinned scan misread");
            assert_eq!(sync::while_held(seed, hold, scan), Ok(()));
        }
        assert_eq!(shared.with(|db| db.pinned_snapshots()), 0);
    }

    #[test]
    fn span_resident_reread_takes_no_lock() {
        let shared = SharedDb::new(Db::paper_default());
        let (root, _) = patterned(&shared, 2 << 20);
        let mut r = shared.snapshot_reader(root).unwrap();
        r.seek(SeekFrom::Start(300_000)).unwrap();
        let span = r.fill_buf().unwrap().to_vec();
        assert!(!span.is_empty());
        r.consume(span.len());
        for seed in 0..4 {
            let hold = || sync::write(&shared.inner, Rank::SharedDb);
            let reread = || {
                r.seek(SeekFrom::Start(300_000)).unwrap();
                let mut out = vec![0u8; span.len()];
                r.read_exact(&mut out).unwrap();
                assert!(out == span, "the re-read span differs");
            };
            assert_eq!(sync::while_held(seed, hold, reread), Ok(()));
        }
        drop(r);
        assert_eq!(shared.with(|db| db.pinned_snapshots()), 0);
    }

    #[test]
    fn read_at_eof_takes_no_lock() {
        let shared = SharedDb::new(Db::paper_default());
        let (root, _) = patterned(&shared, 100_000);
        let mut r = shared.snapshot_reader(root).unwrap();
        r.seek(SeekFrom::End(0)).unwrap();
        for seed in 0..4 {
            let hold = || sync::write(&shared.inner, Rank::SharedDb);
            let read = || assert_eq!(r.read(&mut [0u8; 16]).unwrap(), 0);
            assert_eq!(sync::while_held(seed, hold, read), Ok(()));
        }
    }

    #[test]
    fn seek_and_bufread_follow_io_contracts() {
        let shared = SharedDb::new(Db::paper_default());
        let mut obj = shared.with(|db| ManagerSpec::esm(4).create(db)).unwrap();
        let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 199) as u8).collect();
        shared.with(|db| obj.append(db, &payload)).unwrap();

        let mut r = shared.snapshot_reader(obj.root_page()).unwrap();
        assert_eq!(r.size(), payload.len() as u64);
        assert_eq!(r.seek(SeekFrom::End(-100)).unwrap(), r.size() - 100);
        let mut tail = Vec::new();
        r.read_to_end(&mut tail).unwrap();
        assert_eq!(tail, &payload[payload.len() - 100..]);

        assert_eq!(r.seek(SeekFrom::Start(10)).unwrap(), 10);
        let buf = r.fill_buf().unwrap();
        assert!(!buf.is_empty());
        assert_eq!(buf[0], payload[10]);
        let skip = buf.len().min(5);
        r.consume(skip);
        let mut one = [0u8; 1];
        r.read_exact(&mut one).unwrap();
        assert_eq!(one[0], payload[10 + skip]);

        // Same seek contract as `ObjectReader`: past the end is allowed
        // and reads as EOF, the whole u64 range is addressable, targets
        // outside it are errors that leave the cursor in place.
        assert_eq!(r.seek(SeekFrom::Start(u64::MAX)).unwrap(), u64::MAX);
        assert!(r.fill_buf().unwrap().is_empty());
        assert_eq!(r.read(&mut one).unwrap(), 0);
        r.seek(SeekFrom::Start(1_000)).unwrap();
        for bad in [SeekFrom::End(i64::MIN), SeekFrom::Current(i64::MIN)] {
            let err = r.seek(bad).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        }
        assert_eq!(
            r.seek(SeekFrom::Current(i64::MAX)).unwrap(),
            1_000 + i64::MAX as u64
        );
        assert_eq!(r.read(&mut one).unwrap(), 0);
        assert!(
            r.seek(SeekFrom::Current(i64::MAX)).is_err(),
            "past u64::MAX"
        );
        assert_eq!(r.seek(SeekFrom::Start(20)).unwrap(), 20);
        r.read_exact(&mut one).unwrap();
        assert_eq!(one[0], payload[20]);
        r.close();
        assert_eq!(shared.with(|db| db.pinned_snapshots()), 0);
    }
}
