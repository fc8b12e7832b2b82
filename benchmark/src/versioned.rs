//! `versioned`: the only workload that pays for commit batching,
//! pre-image archiving, deferred frees, the allocation log and the
//! `SharedDb` lock. `edit` does the same updates without them, so an
//! MVCC change must move `versioned` and leave `edit` alone.
//!
//! Pins are short on purpose: one pin held over Starburst churn defers
//! about 5 MB of frees per operation.

use std::io::{Seek, SeekFrom};
use std::time::Instant;

use lobstore_core::{Db, DbConfig, LargeObject, SharedDb};

use crate::aged::{build_and_age, Marks};
use crate::check::{Digest, Sampler};
use crate::harness::{stream_pass, Seg, SetupInfo, Stopwatch, Tally, Workload, SCHEMES};
use crate::ops::txn_batch;
use crate::rng::Rng;
use crate::trace::{Kind, Probe};

/// Transactions committed while one snapshot is pinned.
pub const TXNS_PER_PIN: usize = 8;
/// Pin, commit, stream, release: so many times a round. A Starburst
/// transaction takes ten times as long, so it gets two (one would leave
/// its read segment, one 10 MB stream, under 2 ms).
const PINS: [usize; 3] = [8, 8, 2];

struct Scheme {
    shared: SharedDb,
    obj: Box<dyn LargeObject>,
    size: u64,
    user_bytes: u64,
    create_mb_per_s: f64,
}

pub struct Versioned {
    schemes: Vec<Scheme>,
    txns: Rng,
    /// Most pages whose free was deferred at the end of a pin, and most
    /// pages in the allocation log's chain before a checkpoint.
    pub deferred_pages_peak: u64,
    pub log_chain_pages_peak: u64,
}

impl Versioned {
    /// Scheme `s`'s shared database and the root page of its object, for
    /// the two-thread probe.
    pub fn shared(&self, s: usize) -> (SharedDb, u32, u64) {
        let sc = &self.schemes[s];
        (sc.shared.clone(), sc.obj.root_page(), sc.size)
    }
}

impl Workload for Versioned {
    const NAME: &'static str = "versioned";
    const PRIMARY_OPS: [u64; 3] = [
        (PINS[0] * TXNS_PER_PIN) as u64,
        (PINS[1] * TXNS_PER_PIN) as u64,
        (PINS[2] * TXNS_PER_PIN) as u64,
    ];

    fn setup(seed: u64, tally: &mut Tally) -> (Versioned, SetupInfo) {
        let cfg = DbConfig {
            alloc_log: true,
            ..DbConfig::default()
        };
        let mut watch = Stopwatch::new();
        let mut marks = Marks::default();
        let schemes: Vec<Scheme> = (0..3)
            .map(|s| {
                let mut aged = build_and_age(s, seed, cfg, &mut marks, &mut watch, tally);
                watch.resume();
                aged.db.checkpoint();
                watch.pause();
                Scheme {
                    size: aged.stream.size(),
                    shared: SharedDb::new(aged.db),
                    obj: aged.obj,
                    user_bytes: aged.user_bytes,
                    create_mb_per_s: aged.create_mb_per_s,
                }
            })
            .collect();
        let info = SetupInfo {
            seconds: watch.seconds(),
            create_mb_per_s: [0, 1, 2].map(|s| schemes[s].create_mb_per_s),
        };
        let versioned = Versioned {
            schemes,
            txns: Rng::new(seed, 0x7A05),
            deferred_pages_peak: 0,
            log_chain_pages_peak: 0,
        };
        (versioned, info)
    }

    fn round<P: Probe>(&mut self, s: usize, p: &mut P, tally: &mut Tally) -> Seg {
        let Scheme {
            shared,
            obj,
            size,
            user_bytes,
            ..
        } = &mut self.schemes[s];
        let root = obj.root_page();
        let mut seg = Seg::default();

        for pin in 0..PINS[s] {
            let (txns, payload) = txn_batch(&mut self.txns, *size, TXNS_PER_PIN);
            let content = shared.with(|db| obj.snapshot(db));

            let t = Instant::now();
            let reader = p.op(Kind::Pin, || shared.snapshot_reader(root));
            let mut at = 0usize;
            let mut failed = 0;
            for txn in &txns {
                let bytes = &payload[at..at + txn.len as usize];
                at += txn.len as usize;
                let res = p.op(Kind::Commit, || {
                    shared.with(|db| {
                        db.txn(|db| {
                            obj.insert(db, txn.ins_off, bytes)?;
                            obj.delete(db, txn.del_off, txn.len)
                        })
                    })
                });
                failed += u64::from(res.is_err());
            }
            seg.primary_ns += t.elapsed().as_nanos() as u64;
            tally.ops(txns.len() as u64, failed);
            *user_bytes += payload.len() as u64;

            let Ok(mut reader) = reader else {
                tally.ops(1, 1);
                continue;
            };
            // The pinned object is now eight versions old and, at 10 MB,
            // larger than the reader's 4 MB window: a cold pass.
            let t = Instant::now();
            let got = p.op(Kind::Stream, || {
                let mut fold = Sampler::new();
                stream_pass(&mut reader, |c| fold.update(c)).ok()?;
                Some(fold.finish())
            });
            seg.read_ns += t.elapsed().as_nanos() as u64;
            seg.read_bytes += content.len() as u64;
            tally.ops(2, u64::from(got.is_none()));
            tally.check(
                got.is_none_or(|g| g == Sampler::of(&content)),
                &format!(
                    "{} snapshot stream differs from the pinned version",
                    SCHEMES[s]
                ),
            );
            if pin == 0 {
                let mut d = Digest::new();
                let again = reader
                    .seek(SeekFrom::Start(0))
                    .and_then(|_| stream_pass(&mut reader, |c| d.update(c)));
                tally.check(
                    again.is_ok() && d.finish() == Digest::of(&content),
                    &format!(
                        "{} snapshot content differs from the pinned version",
                        SCHEMES[s]
                    ),
                );
            }
            let deferred = lobstore_obs::gauge_value("mvcc.deferred_pages").unwrap_or(0.0);
            self.deferred_pages_peak = self.deferred_pages_peak.max(deferred as u64);

            let t = Instant::now();
            p.op(Kind::Release, || reader.close());
            seg.primary_ns += t.elapsed().as_nanos() as u64;
        }

        let chain = shared.with_read(|db| db.alloc_log_pages().len() as u64);
        self.log_chain_pages_peak = self.log_chain_pages_peak.max(chain);
        let t = Instant::now();
        p.op(Kind::Checkpoint, || shared.with(Db::checkpoint));
        seg.primary_ns += t.elapsed().as_nanos() as u64;
        tally.ops(1, 0);
        seg
    }

    fn with_obj<R>(&mut self, s: usize, f: impl FnOnce(&mut Db, &mut dyn LargeObject) -> R) -> R {
        let Scheme { shared, obj, .. } = &mut self.schemes[s];
        shared.with(|db| f(db, obj.as_mut()))
    }

    fn user_bytes(&self, s: usize) -> u64 {
        self.schemes[s].user_bytes
    }

    fn live_bytes(&mut self, s: usize) -> u64 {
        self.with_obj(s, |db, obj| obj.size(db))
    }
}
