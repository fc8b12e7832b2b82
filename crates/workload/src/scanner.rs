//! Sequential scans (§4.3) and standalone random-read probes.

use lobstore_core::{Db, LargeObject, Result, SegmentInfo};
use lobstore_simdisk::{IoStats, PAGE_SIZE_U64};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics;

/// Outcome of a scan or read-probe run.
#[derive(Clone, Debug)]
pub struct ScanReport {
    /// Bytes read in total.
    pub bytes: u64,
    /// Number of read calls issued.
    pub reads: usize,
    /// Total I/O cost.
    pub io: IoStats,
}

impl ScanReport {
    pub fn seconds(&self) -> f64 {
        self.io.time_s()
    }

    /// Average cost per read operation, in milliseconds.
    pub fn avg_read_ms(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.io.time_ms() / self.reads as f64
        }
    }
}

/// Read the entire object front to back in `chunk_bytes` pieces — the
/// Figure 6 experiment.
pub fn sequential_scan(
    db: &mut Db,
    obj: &dyn LargeObject,
    chunk_bytes: usize,
) -> Result<ScanReport> {
    assert!(chunk_bytes > 0);
    let size = {
        // Cheap: size read is part of normal operation.
        let u = obj.utilization(db);
        u.object_bytes
    };
    let before = db.io_stats();
    let mut buf = vec![0u8; chunk_bytes];
    let mut at = 0u64;
    let mut reads = 0usize;
    while at < size {
        let n = ((size - at) as usize).min(chunk_bytes);
        obj.read(db, at, &mut buf[..n])?;
        at += n as u64;
        reads += 1;
    }
    metrics::SCAN_READS.add(reads as u64);
    metrics::SCAN_BYTES.add(size);
    Ok(ScanReport {
        bytes: size,
        reads,
        io: db.io_stats() - before,
    })
}

/// One refill of a cold cursor, as [`cursor_reads`] models it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CursorRead {
    /// First object byte the refill buffers.
    pub pos: u64,
    /// Bytes it buffers from `pos`.
    pub len: u64,
    /// Its one LEAF-area disk call: `(first page, page count)`.
    pub call: (u32, u32),
}

/// The refills a cold cursor ([`lobstore_core::SpanCursor`], live or
/// pinned) makes streaming an object with segments `segs` from byte
/// `from` to its end, in order: the model the cursor tests hold its disk
/// trace to. A refill reads from its position to the end of a run: the
/// segment holding the position, joined by the segments after it in the
/// same level-0 node while the run ends on a page boundary, the next
/// segment starts on the page after it, and the run holds less than
/// 256 KiB past the position. Its one call covers the pages of at most
/// 4 MiB of the run.
pub fn cursor_reads(segs: &[SegmentInfo], from: u64) -> Vec<CursorRead> {
    const RUN_MAX: u64 = 256 << 10;
    const SPAN_MAX: u64 = 4 << 20;
    let mut reads = Vec::new();
    let mut pos = from;
    loop {
        let i = segs.partition_point(|s| s.offset + s.bytes <= pos);
        let Some(first) = segs.get(i) else {
            return reads;
        };
        let within = pos - first.offset;
        let mut run = first.bytes;
        for next in &segs[i + 1..] {
            let joins = run.is_multiple_of(PAGE_SIZE_U64)
                && run - within < RUN_MAX
                && next.node_page == first.node_page
                && u64::from(next.start_page) == u64::from(first.start_page) + run / PAGE_SIZE_U64;
            if !joins {
                break;
            }
            run += next.bytes;
        }
        let len = (run - within).min(SPAN_MAX);
        let (lo, hi) = (within / PAGE_SIZE_U64, (within + len - 1) / PAGE_SIZE_U64);
        let call = (first.start_page + lo as u32, (hi - lo + 1) as u32);
        reads.push(CursorRead { pos, len, call });
        pos += len;
    }
}

/// Read the entire object front to back in `chunk_bytes` pieces through
/// the streaming [`lobstore_core::ObjectReader`] — the "play the
/// recording" access pattern of §1, where a client consumes the object
/// like a file rather than issuing byte-range reads itself. Consumes
/// through the zero-copy `BufRead` surface: at most `chunk_bytes` per
/// iteration, borrowed straight from the reader's read-ahead buffer.
pub fn stream_scan(db: &mut Db, obj: &dyn LargeObject, chunk_bytes: usize) -> Result<ScanReport> {
    use std::io::BufRead as _;
    assert!(chunk_bytes > 0);
    let before = db.io_stats();
    let mut reader = lobstore_core::ObjectReader::new(db, obj);
    let mut bytes = 0u64;
    let mut reads = 0usize;
    loop {
        let avail = reader
            .fill_buf()
            .map_err(|e| lobstore_core::LobError::InvariantViolated(e.to_string()))?
            .len();
        if avail == 0 {
            break;
        }
        let n = avail.min(chunk_bytes);
        reader.consume(n);
        bytes += n as u64;
        reads += 1;
    }
    metrics::STREAM_SCAN_READS.add(reads as u64);
    metrics::STREAM_SCAN_BYTES.add(bytes);
    Ok(ScanReport {
        bytes,
        reads,
        io: db.io_stats() - before,
    })
}

/// Issue `count` random reads whose sizes vary ±50 % about
/// `mean_bytes`, uniformly positioned — the standalone version of the
/// §4.4.2 read probe (used for Table 2, where the structure does not
/// degrade between reads).
pub fn random_reads(
    db: &mut Db,
    obj: &dyn LargeObject,
    count: usize,
    mean_bytes: u64,
    seed: u64,
) -> Result<ScanReport> {
    let size = obj.utilization(db).object_bytes;
    let mut rng = StdRng::seed_from_u64(seed);
    let before = db.io_stats();
    let mut buf = vec![0u8; (mean_bytes + mean_bytes / 2) as usize + 1];
    let mut bytes = 0u64;
    for _ in 0..count {
        let len = sample_op_size(&mut rng, mean_bytes).min(size.max(1));
        let max_start = size.saturating_sub(len);
        let off = if max_start == 0 {
            0
        } else {
            rng.gen_range(0..=max_start)
        };
        obj.read(db, off, &mut buf[..len as usize])?;
        bytes += len;
    }
    metrics::RANDOM_READS.add(count as u64);
    metrics::RANDOM_BYTES.add(bytes);
    Ok(ScanReport {
        bytes,
        reads: count,
        io: db.io_stats() - before,
    })
}

/// The paper's operation-size distribution: uniform in
/// `[mean/2, 3·mean/2]` ("varied ±50 % about the mean", §4.4),
/// never zero.
pub(crate) fn sample_op_size(rng: &mut StdRng, mean: u64) -> u64 {
    let lo = (mean / 2).max(1);
    let hi = mean + mean / 2;
    rng.gen_range(lo..=hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_object, ManagerSpec};

    #[test]
    fn scan_reads_every_byte() {
        let mut db = Db::paper_default();
        let (obj, _) = build_object(&mut db, &ManagerSpec::eos(4), 300_000, 8 * 1024).unwrap();
        let rep = sequential_scan(&mut db, obj.as_ref(), 10_000).unwrap();
        assert_eq!(rep.bytes, 300_000);
        assert_eq!(rep.reads, 30);
        assert!(rep.io.pages_read >= 74, "at least ceil(300000/4096) pages");
    }

    #[test]
    fn bigger_chunks_scan_faster() {
        let run = |chunk: usize| {
            let mut db = Db::paper_default();
            let (obj, _) =
                build_object(&mut db, &ManagerSpec::starburst(), 1 << 20, chunk).unwrap();
            sequential_scan(&mut db, obj.as_ref(), chunk)
                .unwrap()
                .seconds()
        };
        assert!(run(128 * 1024) < run(4 * 1024));
    }

    #[test]
    fn scan_cost_approaches_transfer_rate() {
        // §4.3: with 1 KB/ms transfer, a 1 MB object takes ≥ ~1.0 s; big
        // scans should be within ~2× of that bound.
        let mut db = Db::paper_default();
        let (obj, _) =
            build_object(&mut db, &ManagerSpec::starburst(), 1 << 20, 512 * 1024).unwrap();
        let rep = sequential_scan(&mut db, obj.as_ref(), 512 * 1024).unwrap();
        let floor = 1.024; // 1 MB / (1 KB/ms)
        assert!(
            rep.seconds() < 2.0 * floor,
            "scan took {:.2}s",
            rep.seconds()
        );
        assert!(rep.seconds() >= floor);
    }

    #[test]
    fn random_reads_cost_matches_table_2_shape() {
        let mut db = Db::paper_default();
        let (mut obj, _) =
            build_object(&mut db, &ManagerSpec::starburst(), 1 << 20, 100 * 1024).unwrap();
        // Force the steady state: one update rewrites into max segments.
        obj.insert(&mut db, 500, b"!").unwrap();
        let small = random_reads(&mut db, obj.as_ref(), 200, 100, 1).unwrap();
        // 100-byte reads: almost always one page, one seek → ≈37 ms
        // (slightly less here: on a 1 MB object a few reads hit the pool).
        assert!(
            (33.0..43.0).contains(&small.avg_read_ms()),
            "100-byte read cost {:.1} ms",
            small.avg_read_ms()
        );
        let big = random_reads(&mut db, obj.as_ref(), 100, 100 * 1024, 2).unwrap();
        assert!(
            big.avg_read_ms() > 150.0,
            "100K read cost {:.1} ms",
            big.avg_read_ms()
        );
    }

    #[test]
    fn op_sizes_are_within_half_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let s = sample_op_size(&mut rng, 10_000);
            assert!((5_000..=15_000).contains(&s));
        }
        // Tiny means never produce zero.
        for _ in 0..100 {
            assert!(sample_op_size(&mut rng, 1) >= 1);
        }
    }
}
