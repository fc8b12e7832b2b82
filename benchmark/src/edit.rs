//! `edit`: the paper's §4.4 mix on one aged 10 MB object per scheme.
//! Writes beside reads on the very index and pool that `probe` reads, so
//! a cache that helps `probe` but costs invalidation shows here; it is
//! where the managers, shadowing, the buddy allocator and dirty-page
//! write-back work. The read segment is the paper's scan after updates,
//! where small leaves and fragmentation cost.

use std::time::Instant;

use lobstore_core::{Db, DbConfig, LargeObject, ObjectReader};

use crate::aged::{build_and_age, Aged, Marks};
use crate::check::Sampler;
use crate::harness::{stream_pass, Seg, SetupInfo, Stopwatch, Tally, Workload, SCHEMES};
use crate::ops::MAX_OP_BYTES;
use crate::trace::{Kind, Probe};

/// Streamed scans in one read segment: three, so that the segment lasts
/// well over 2 ms for the schemes that scan 10 MB in 1 ms.
const SCANS: usize = 3;

pub struct Edit {
    schemes: Vec<Aged>,
    marks: Marks,
    scratch: Vec<u8>,
}

impl Workload for Edit {
    const NAME: &'static str = "edit";
    /// A Starburst update rewrites the tail of the object and takes ten
    /// times as long, so its segment has a tenth of the operations.
    const PRIMARY_OPS: [u64; 3] = [500, 500, 50];

    fn setup(seed: u64, tally: &mut Tally) -> (Edit, SetupInfo) {
        let mut watch = Stopwatch::new();
        let mut marks = Marks::default();
        let schemes: Vec<Aged> = (0..3)
            .map(|s| build_and_age(s, seed, DbConfig::default(), &mut marks, &mut watch, tally))
            .collect();
        let info = SetupInfo {
            seconds: watch.seconds(),
            create_mb_per_s: [0, 1, 2].map(|s| schemes[s].create_mb_per_s),
        };
        let edit = Edit {
            schemes,
            marks,
            scratch: vec![0u8; MAX_OP_BYTES],
        };
        (edit, info)
    }

    fn round<P: Probe>(&mut self, s: usize, p: &mut P, tally: &mut Tally) -> Seg {
        let Aged {
            db,
            obj,
            stream,
            user_bytes,
            ..
        } = &mut self.schemes[s];
        let batch = stream.batch(Self::PRIMARY_OPS[s] as usize);

        let t = Instant::now();
        let failed = batch.apply(db, obj.as_mut(), &mut self.scratch, p);
        let primary_ns = t.elapsed().as_nanos() as u64;
        tally.ops(batch.ops.len() as u64, failed);
        *user_bytes += batch.inserted_bytes();

        let content = obj.snapshot(db);
        self.marks
            .check(stream.index(), s, db, obj.as_ref(), &content, tally);

        let mut got = [None; SCANS];
        let t = Instant::now();
        for got in &mut got {
            *got = p.op(Kind::Stream, || {
                let mut fold = Sampler::new();
                let mut r = ObjectReader::new(db, obj.as_ref());
                stream_pass(&mut r, |c| fold.update(c)).ok()?;
                Some(fold.finish())
            });
        }
        let read_ns = t.elapsed().as_nanos() as u64;
        let want = Sampler::of(&content);
        for got in got {
            tally.ops(1, u64::from(got.is_none()));
            tally.check(
                got.is_none_or(|g| g == want),
                &format!(
                    "{} scan after {} ops reads other bytes",
                    SCHEMES[s],
                    stream.index()
                ),
            );
        }
        Seg {
            primary_ns,
            read_ns,
            read_bytes: (content.len() * SCANS) as u64,
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
