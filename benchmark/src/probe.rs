//! `probe`: the opposite of `scan`. A 100-byte read is almost all index
//! descent, node cache, `fix`/`unfix` and the per-I/O bookkeeping of the
//! simulated disk; copies are negligible. The index of one aged 10 MB
//! object fits the node cache, the data is 200 times the pool.

use std::time::Instant;

use lobstore_core::{Db, DbConfig, LargeObject};

use crate::aged::{build_and_age, Aged, Marks};
use crate::harness::{Seg, SetupInfo, Stopwatch, Tally, Workload, SCHEMES};
use crate::ops::uniform_reads;
use crate::rng::Rng;
use crate::trace::{Kind, Probe as Timer};

const SMALL_READS: usize = 20_000;
const SMALL: (u64, u64) = (50, 150);
/// Table 2's middle size, ±50 %.
const LARGE_READS: usize = 2_000;
const LARGE: (u64, u64) = (5_000, 15_000);
/// Every n-th read is kept and compared with the aged content.
const KEEP_EVERY: usize = 64;

pub struct Probe {
    schemes: Vec<Aged>,
    /// The aged content, the same in all three schemes.
    content: Vec<u8>,
    offsets: Rng,
    small: Vec<(u64, u32)>,
    large: Vec<(u64, u32)>,
    scratch: Vec<u8>,
    kept: Vec<u8>,
}

/// Issue `reads` against `obj`, every `KEEP_EVERY`-th into its own slot
/// of `kept`; returns the nanoseconds taken and the calls that failed.
fn timed_reads<P: Timer>(
    db: &mut Db,
    obj: &dyn LargeObject,
    reads: &[(u64, u32)],
    (kind, slot): (Kind, usize),
    scratch: &mut [u8],
    kept: &mut [u8],
    p: &mut P,
) -> (u64, u64) {
    let mut failed = 0;
    let t = Instant::now();
    for (i, &(off, len)) in reads.iter().enumerate() {
        let out = if i % KEEP_EVERY == 0 {
            let at = i / KEEP_EVERY * slot;
            &mut kept[at..at + len as usize]
        } else {
            &mut scratch[..len as usize]
        };
        failed += u64::from(p.op(kind, || obj.read(db, off, out)).is_err());
    }
    (t.elapsed().as_nanos() as u64, failed)
}

impl Probe {
    fn verify_kept(&self, s: usize, reads: &[(u64, u32)], slot: usize, tally: &mut Tally) {
        for (k, &(off, len)) in reads.iter().step_by(KEEP_EVERY).enumerate() {
            let got = &self.kept[k * slot..k * slot + len as usize];
            let want = &self.content[off as usize..off as usize + len as usize];
            tally.check(
                got == want,
                &format!("{} read of {len} bytes at {off}", SCHEMES[s]),
            );
        }
    }
}

impl Workload for Probe {
    const NAME: &'static str = "probe";
    const PRIMARY_OPS: [u64; 3] = [SMALL_READS as u64; 3];
    const SPAN_EVERY: u64 = 64;

    fn setup(seed: u64, tally: &mut Tally) -> (Probe, SetupInfo) {
        let mut watch = Stopwatch::new();
        let mut marks = Marks::default();
        let schemes: Vec<Aged> = (0..3)
            .map(|s| build_and_age(s, seed, DbConfig::default(), &mut marks, &mut watch, tally))
            .collect();
        let content = schemes[0].obj.snapshot(&schemes[0].db);
        let info = SetupInfo {
            seconds: watch.seconds(),
            create_mb_per_s: [0, 1, 2].map(|s| schemes[s].create_mb_per_s),
        };
        let probe = Probe {
            schemes,
            content,
            offsets: Rng::new(seed, 0x9B0B),
            small: Vec::new(),
            large: Vec::new(),
            scratch: vec![0u8; LARGE.1 as usize],
            kept: vec![0u8; LARGE_READS.div_ceil(KEEP_EVERY) * LARGE.1 as usize],
        };
        (probe, info)
    }

    fn round<P: Timer>(&mut self, s: usize, p: &mut P, tally: &mut Tally) -> Seg {
        // The three schemes of a round answer the same reads.
        if s == 0 {
            let size = self.content.len() as u64;
            self.small = uniform_reads(&mut self.offsets, size, SMALL_READS, SMALL.0, SMALL.1);
            self.large = uniform_reads(&mut self.offsets, size, LARGE_READS, LARGE.0, LARGE.1);
        }
        let small = std::mem::take(&mut self.small);
        let large = std::mem::take(&mut self.large);
        let (small_slot, large_slot) = (SMALL.1 as usize, LARGE.1 as usize);

        let Aged { db, obj, .. } = &mut self.schemes[s];
        let (primary_ns, failed) = timed_reads(
            db,
            obj.as_ref(),
            &small,
            (Kind::Read, small_slot),
            &mut self.scratch,
            &mut self.kept,
            p,
        );
        tally.ops(small.len() as u64, failed);
        self.verify_kept(s, &small, small_slot, tally);

        let Aged { db, obj, .. } = &mut self.schemes[s];
        let (read_ns, failed) = timed_reads(
            db,
            obj.as_ref(),
            &large,
            (Kind::ReadLarge, large_slot),
            &mut self.scratch,
            &mut self.kept,
            p,
        );
        tally.ops(large.len() as u64, failed);
        self.verify_kept(s, &large, large_slot, tally);

        let read_bytes = large.iter().map(|&(_, len)| u64::from(len)).sum();
        self.small = small;
        self.large = large;
        Seg {
            primary_ns,
            read_ns,
            read_bytes,
        }
    }

    fn with_obj<R>(&mut self, s: usize, f: impl FnOnce(&mut Db, &mut dyn LargeObject) -> R) -> R {
        let Aged { db, obj, .. } = &mut self.schemes[s];
        f(db, obj.as_mut())
    }

    fn user_bytes(&self, s: usize) -> u64 {
        self.schemes[s].user_bytes
    }

    fn live_bytes(&mut self, s: usize) -> u64 {
        let Aged { db, obj, .. } = &mut self.schemes[s];
        obj.size(db)
    }
}
