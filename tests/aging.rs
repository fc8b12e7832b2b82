//! The aging test: what a reader gets after the store has aged.
//!
//! Degradation develops under object *turnover*, not under updates to
//! one object (Sears & van Ingen, PAPERS.md), so each scheme runs 10 000
//! churn operations over an 8-object pool and the test then pins, to
//! the I/O call, the streamed scan of the largest survivor and the free
//! space the allocator is left with. Everything is a function of the
//! seed; a changed constant is a changed placement, split policy or
//! read path, never noise. DESIGN.md §14 says how to re-record them.

use lobstore::simdisk::TraceKind;
use lobstore::workload::{cursor_reads, stream_scan, ChurnConfig, ChurnWorkload};
use lobstore::{AreaId, Db, ManagerSpec};

/// Streamed-scan chunk: one page per `consume`.
const STREAM_CHUNK: usize = 4 * 1024;

/// What one scheme's aged store must look like, exactly.
#[derive(Debug, PartialEq)]
struct Aged {
    /// Post-aging scan of the largest survivor.
    read_calls: u64,
    pages_read: u64,
    time_us: u64,
    /// LEAF area at the final mark.
    free_pages: u64,
    largest_free_run: u32,
}

fn age(spec: &ManagerSpec, want: &Aged) {
    let label = spec.label();
    let mut db = Db::paper_default();
    let mut churn = ChurnWorkload::new(ChurnConfig {
        ops: 10_000,
        mark_every: 500,
        initial_object_bytes: 64 * 1024,
        ..ChurnConfig::default()
    });
    let (pool, rep) = churn.run(&mut db, spec).expect("churn");
    for obj in &pool {
        obj.check_invariants(&db)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
    }

    // The shape: freed extents are reused, so external fragmentation
    // stays low and no scheme lets its objects rot below half full.
    assert_eq!(rep.marks.len(), 20);
    for m in &rep.marks {
        assert!(
            m.frag_ratio <= 0.05,
            "{label} @{}: frag ratio {}",
            m.ops_done,
            m.frag_ratio
        );
        assert!(
            m.object_utilization >= 0.5,
            "{label} @{}: object utilization {}",
            m.ops_done,
            m.object_utilization
        );
    }

    let biggest = pool
        .iter()
        .max_by_key(|o| o.utilization(&db).object_bytes)
        .expect("non-empty pool");
    let segs = biggest.segments(&db);
    db.pool().disk().enable_trace(segs.len() * 3 + 256);
    let scan = stream_scan(&mut db, biggest.as_ref(), STREAM_CHUNK).expect("scan");
    let disk = db.pool().disk();
    let (trace, dropped) = (disk.take_trace(), disk.trace_dropped());
    assert_eq!(dropped, 0, "{label}: trace buffer too small");
    assert_eq!(scan.bytes, biggest.utilization(&db).object_bytes, "{label}");
    let leaf_reads: Vec<(u32, u32)> = trace
        .iter()
        .filter(|e| e.area == AreaId::LEAF && e.kind == TraceKind::Read)
        .map(|e| (e.start, e.pages))
        .collect();
    let model: Vec<(u32, u32)> = cursor_reads(&segs, 0).iter().map(|r| r.call).collect();
    assert_eq!(
        leaf_reads, model,
        "{label}: a streamed scan is one LEAF call a run of neighbouring segments"
    );
    let last = rep.marks.last().expect("marks");
    let got = Aged {
        read_calls: scan.io.read_calls,
        pages_read: scan.io.pages_read,
        time_us: scan.io.time_us,
        free_pages: last.free_pages,
        largest_free_run: last.largest_free_run,
    };
    assert_eq!(&got, want, "{label}: the aged store moved");
    assert_eq!(scan.io.write_calls, 0, "{label}: a scan writes nothing");
}

#[test]
fn esm_aged_store_is_pinned() {
    age(
        &ManagerSpec::esm(16),
        &Aged {
            read_calls: 2,
            pages_read: 25,
            time_us: 166_000,
            free_pages: 16_160,
            largest_free_run: 16_128,
        },
    );
}

#[test]
fn eos_aged_store_is_pinned() {
    age(
        &ManagerSpec::eos(16),
        &Aged {
            read_calls: 2,
            pages_read: 25,
            time_us: 166_000,
            free_pages: 16_104,
            largest_free_run: 16_002,
        },
    );
}

#[test]
fn starburst_aged_store_is_pinned() {
    age(
        &ManagerSpec::starburst(),
        &Aged {
            read_calls: 2,
            pages_read: 25,
            time_us: 166_000,
            free_pages: 16_128,
            largest_free_run: 16_033,
        },
    );
}
