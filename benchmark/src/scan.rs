//! `scan`: bytes moved dominate. Per scheme eight 10 MB objects, 80 MB,
//! far larger than every cache (48 KB pool, 64-node cache, 4 MB
//! read-ahead). The simulated disk's copies and the pool's direct path
//! do nearly all the work for `eos`/`sb`, the buffered pool path for
//! `esm`, the index almost none.

use std::time::Instant;

use lobstore_core::{Db, DbConfig, LargeObject, ObjectReader};

use crate::check::{Digest, Sampler};
use crate::harness::{
    spec, stream_pass, Seg, SetupInfo, Stopwatch, Tally, Workload, APPEND_BYTES, OBJECT_BYTES,
    SCHEMES,
};
use crate::rng::{fill, Rng};
use crate::trace::{Kind, Probe};

const OBJECTS: usize = 8;
/// Every object is 10 MB plus a tail of up to this many bytes drawn from
/// the seed, so the last append is partial and the counts the engine
/// keeps depend on the seed here as they do in the other workloads.
const TAIL_MAX: u64 = 64 << 10;

/// What one object must read back as.
#[derive(Copy, Clone)]
struct Expect {
    size: u64,
    digest: u64,
    sample: u64,
}

/// Content of object `j` is a function of the seed, `j` and the chunk
/// index; every scheme stores the same eight objects.
fn chunk_tag(seed: u64, j: usize, i: u64) -> u64 {
    seed.rotate_left(32) ^ ((j as u64) << 40) ^ i
}

fn for_each_chunk(seed: u64, j: usize, size: u64, mut f: impl FnMut(&[u8])) {
    let mut chunk = vec![0u8; APPEND_BYTES];
    let mut done = 0u64;
    let mut i = 0u64;
    while done < size {
        let n = (size - done).min(APPEND_BYTES as u64) as usize;
        fill(&mut chunk[..n], chunk_tag(seed, j, i));
        f(&chunk[..n]);
        done += n as u64;
        i += 1;
    }
}

struct Scheme {
    db: Db,
    objs: Vec<Box<dyn LargeObject>>,
}

pub struct Scan {
    schemes: Vec<Scheme>,
    expect: Vec<Expect>,
    buf: Vec<u8>,
}

impl Scan {
    fn total_bytes(&self) -> u64 {
        self.expect.iter().map(|e| e.size).sum()
    }
}

/// One pass of 256 KB `LargeObject::read` calls.
fn bulk_pass(
    db: &mut Db,
    obj: &dyn LargeObject,
    size: u64,
    buf: &mut [u8],
    mut sink: impl FnMut(&[u8]),
) -> lobstore_core::Result<()> {
    let mut off = 0u64;
    while off < size {
        let n = (size - off).min(buf.len() as u64) as usize;
        obj.read(db, off, &mut buf[..n])?;
        sink(&buf[..n]);
        off += n as u64;
    }
    Ok(())
}

impl Workload for Scan {
    const NAME: &'static str = "scan";
    /// One operation is one whole-object streamed pass.
    const PRIMARY_OPS: [u64; 3] = [OBJECTS as u64; 3];

    fn setup(seed: u64, tally: &mut Tally) -> (Scan, SetupInfo) {
        let mut sizes = Rng::new(seed, 0x5CA9);
        let expect: Vec<Expect> = (0..OBJECTS)
            .map(|j| {
                let size = OBJECT_BYTES + sizes.below(TAIL_MAX);
                let (mut d, mut s) = (Digest::new(), Sampler::new());
                for_each_chunk(seed, j, size, |c| {
                    d.update(c);
                    s.update(c);
                });
                Expect {
                    size,
                    digest: d.finish(),
                    sample: s.finish(),
                }
            })
            .collect();

        let mut watch = Stopwatch::new();
        watch.resume();
        let mut create_mb_per_s = [0.0; 3];
        let mut schemes = Vec::new();
        for (s, rate) in create_mb_per_s.iter_mut().enumerate() {
            let mut db = Db::new(DbConfig::default());
            let mut objs = Vec::new();
            let build = Instant::now();
            for (j, e) in expect.iter().enumerate() {
                let mut obj = spec(s).create(&mut db).expect("create");
                let (mut calls, mut failed) = (1, 0);
                for_each_chunk(seed, j, e.size, |c| {
                    calls += 1;
                    failed += u64::from(obj.append(&mut db, c).is_err());
                });
                failed += u64::from(obj.trim(&mut db).is_err());
                tally.ops(calls, failed);
                objs.push(obj);
            }
            let bytes: u64 = expect.iter().map(|e| e.size).sum();
            *rate = (bytes >> 20) as f64 / build.elapsed().as_secs_f64();
            schemes.push(Scheme { db, objs });
        }
        let info = SetupInfo {
            seconds: watch.seconds(),
            create_mb_per_s,
        };
        let scan = Scan {
            schemes,
            expect,
            buf: vec![0u8; APPEND_BYTES],
        };
        (scan, info)
    }

    fn round<P: Probe>(&mut self, s: usize, p: &mut P, tally: &mut Tally) -> Seg {
        let read_bytes = self.total_bytes();
        let Scan {
            schemes,
            expect,
            buf,
        } = self;
        let Scheme { db, objs } = &mut schemes[s];
        let mut streamed = [None; OBJECTS];
        let mut bulk = [None; OBJECTS];

        let t = Instant::now();
        for (obj, got) in objs.iter().zip(&mut streamed) {
            *got = p.op(Kind::Stream, || {
                let mut fold = Sampler::new();
                let mut r = ObjectReader::new(db, obj.as_ref());
                stream_pass(&mut r, |c| fold.update(c)).ok()?;
                Some(fold.finish())
            });
        }
        let primary_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        for ((obj, e), got) in objs.iter().zip(expect.iter()).zip(&mut bulk) {
            *got = p.op(Kind::Bulk, || {
                let mut fold = Sampler::new();
                bulk_pass(db, obj.as_ref(), e.size, buf, |c| fold.update(c)).ok()?;
                Some(fold.finish())
            });
        }
        let read_ns = t.elapsed().as_nanos() as u64;

        for (j, e) in expect.iter().enumerate() {
            for (path, got) in [("streamed", streamed[j]), ("bulk", bulk[j])] {
                tally.ops(1, u64::from(got.is_none()));
                tally.check(
                    got.is_none_or(|g| g == e.sample),
                    &format!("{} object {j}: {path} pass reads other bytes", SCHEMES[s]),
                );
            }
        }
        Seg {
            primary_ns,
            read_ns,
            read_bytes,
        }
    }

    fn with_obj<R>(&mut self, s: usize, f: impl FnOnce(&mut Db, &mut dyn LargeObject) -> R) -> R {
        let Scheme { db, objs } = &mut self.schemes[s];
        f(db, objs[0].as_mut())
    }

    fn user_bytes(&self, _s: usize) -> u64 {
        self.total_bytes()
    }

    fn live_bytes(&mut self, s: usize) -> u64 {
        let Scheme { db, objs } = &mut self.schemes[s];
        objs.iter().map(|o| o.size(db)).sum()
    }

    /// Every byte of every object, through both read paths.
    fn finish(&mut self, tally: &mut Tally) {
        for (s, Scheme { db, objs }) in self.schemes.iter_mut().enumerate() {
            for (j, (obj, e)) in objs.iter().zip(&self.expect).enumerate() {
                let mut d = Digest::new();
                let mut r = ObjectReader::new(db, obj.as_ref());
                let ok = stream_pass(&mut r, |c| d.update(c)).is_ok_and(|n| n == e.size);
                tally.check(
                    ok && d.finish() == e.digest,
                    &format!("{} object {j}: streamed content", SCHEMES[s]),
                );
                let mut d = Digest::new();
                let ok = bulk_pass(db, obj.as_ref(), e.size, &mut self.buf, |c| d.update(c));
                tally.check(
                    ok.is_ok() && d.finish() == e.digest,
                    &format!("{} object {j}: bulk content", SCHEMES[s]),
                );
            }
        }
    }
}
