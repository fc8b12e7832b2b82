//! Golden I/O traces: the exact disk-call sequences for canonical
//! operations, as the paper's cost analysis derives them. These tests pin
//! the cost model at the finest grain — kind, page count, and order of
//! every disk access.

use lobstore::workload::model::{Driver, Kind, Op, OpGen};
use lobstore::{simdisk::TraceKind, AreaId, Db, DbConfig, LargeObject, ManagerSpec, TreeConfig};

fn build(spec: ManagerSpec, size: usize, append: usize) -> (Db, Box<dyn LargeObject>) {
    let mut db = Db::paper_default();
    let mut obj = spec.create(&mut db).unwrap();
    let chunk = vec![0x5Au8; append];
    let mut done = 0;
    while done < size {
        let n = append.min(size - done);
        obj.append(&mut db, &chunk[..n]).unwrap();
        done += n;
    }
    obj.trim(&mut db).unwrap();
    (db, obj)
}

/// (kind, area, pages) triples of a trace.
fn shape(db: &mut Db) -> Vec<(TraceKind, AreaId, u32)> {
    db.pool()
        .disk()
        .take_trace()
        .into_iter()
        .map(|e| (e.kind, e.area, e.pages))
        .collect()
}

const R: TraceKind = TraceKind::Read;
const W: TraceKind = TraceKind::Write;
const LEAF: AreaId = AreaId::LEAF;
const META: AreaId = AreaId::META;

/// §4.2's append cost: "the cost of an append operation is the one of
/// reading the rightmost page (if it is not full) and flushing to disk
/// the pages containing the new bytes" — Starburst, mid-page append.
#[test]
fn starburst_unaligned_append_reads_boundary_writes_new() {
    let (mut db, mut obj) = build(ManagerSpec::starburst(), 100_000, 100_000);
    db.pool().disk().enable_trace(16);
    obj.append(&mut db, &vec![1u8; 10_000]).unwrap();
    let t = shape(&mut db);
    // 100000 B = 24.4 pages, trimmed to a 25-page segment. The append
    // first fills the 2400 B left in page 24 (read it, write it), then
    // the remaining 7600 B open the next doubling segment (one 2-page
    // write): exactly "read the rightmost page and flush the pages
    // containing the new bytes".
    assert_eq!(t, vec![(R, LEAF, 1), (W, LEAF, 1), (W, LEAF, 2)], "{t:?}");
}

/// Page-aligned append: no boundary read at all.
#[test]
fn starburst_aligned_append_writes_only() {
    let (mut db, mut obj) = build(ManagerSpec::starburst(), 131_072, 131_072);
    db.pool().disk().enable_trace(16);
    obj.append(&mut db, &vec![1u8; 8_192]).unwrap();
    let t = shape(&mut db);
    assert_eq!(t, vec![(W, LEAF, 2)], "{t:?}");
}

/// Table 2's 100 KB read: the 3-step I/O, in order — partial first page
/// via the pool, interior pages direct, partial last page via the pool.
#[test]
fn large_unaligned_read_is_exactly_three_steps() {
    let (mut db, mut obj) = build(ManagerSpec::starburst(), 1 << 20, 256 * 1024);
    obj.insert(&mut db, 3, b"x").unwrap(); // steady state: one segment
    db.pool().disk().enable_trace(16);
    let mut out = vec![0u8; 100_000];
    obj.read(&mut db, 50_001, &mut out).unwrap();
    let t = shape(&mut db);
    assert_eq!(t.len(), 3, "{t:?}");
    assert_eq!(t[0], (R, LEAF, 1), "first partial page staged: {t:?}");
    assert_eq!(t[2], (R, LEAF, 1), "last partial page staged: {t:?}");
    assert_eq!(t[1].0, R);
    assert!((23..=24).contains(&t[1].2), "interior pages direct: {t:?}");
}

/// §3.5's tail copy in the steady state (one maximum-size segment):
/// the old segment streams through the 512 KB staging buffer, so reads
/// and writes alternate in 128-page calls and the last write is the
/// trimmed partial chunk. The new segment is allocated — and written —
/// while the old one is still allocated, so no write lands on a page
/// the copy reads: the old segment is freed only after the last write.
#[test]
fn starburst_steady_state_insert_alternates_128_page_reads_and_writes() {
    let (mut db, mut obj) = build(ManagerSpec::starburst(), 1 << 20, 256 * 1024);
    obj.insert(&mut db, 3, b"x").unwrap(); // steady state: one 257-page segment
    let old = obj.segments(&db);
    assert_eq!(old.len(), 1);
    db.pool().disk().enable_trace(16);
    obj.insert(&mut db, 500_000, &[7u8; 100]).unwrap();
    let trace = db.pool().disk().take_trace();
    let t: Vec<_> = trace.iter().map(|e| (e.kind, e.area, e.pages)).collect();
    assert_eq!(
        t,
        vec![
            (R, LEAF, 128),
            (W, LEAF, 128),
            (R, LEAF, 128),
            (W, LEAF, 128),
            (R, LEAF, 1),
            (W, LEAF, 1),
        ],
        "{t:?}"
    );
    let new = obj.segments(&db);
    assert_eq!(new.len(), 1);
    assert_eq!((new[0].bytes, new[0].pages), ((1 << 20) + 101, 257));
    let old_pages = old[0].start_page..old[0].start_page + old[0].pages;
    for e in &trace {
        let touches_old = e.start < old_pages.end && old_pages.start < e.start + e.pages;
        assert_eq!(
            touches_old,
            e.kind == R,
            "old segment read, never written: {e:?}"
        );
    }
    let starts: Vec<_> = trace
        .iter()
        .filter(|e| e.kind == W)
        .map(|e| e.start)
        .collect();
    let first = new[0].start_page;
    assert_eq!(starts, vec![first, first + 128, first + 256]);
    // The old segment was freed in the end: only the new one is allocated.
    assert_eq!(db.leaf_pages_allocated(), 257);
}

/// A small buffered read is one call; repeating it is free.
#[test]
fn small_read_buffers_then_hits() {
    let (mut db, obj) = build(ManagerSpec::eos(16), 1 << 20, 256 * 1024);
    db.pool().disk().enable_trace(16);
    let mut out = vec![0u8; 10_000];
    obj.read(&mut db, 500_000, &mut out).unwrap();
    obj.read(&mut db, 500_000, &mut out).unwrap();
    let t = shape(&mut db);
    assert_eq!(t.len(), 1, "second read must be a pure pool hit: {t:?}");
    assert_eq!(t[0].0, R);
    assert!((3..=4).contains(&t[0].2));
}

/// ESM exact-fit append on a level-1 tree: exactly one leaf write — no
/// data re-read, no index flush (the root is not shadowed, §3.3).
#[test]
fn esm_exact_fit_append_level1_is_one_write() {
    let (mut db, mut obj) = build(ManagerSpec::esm(16), 2 << 20, 65_536);
    db.pool().disk().enable_trace(16);
    obj.append(&mut db, &vec![2u8; 65_536]).unwrap();
    let t = shape(&mut db);
    assert_eq!(t, vec![(W, LEAF, 16)], "{t:?}");
}

/// ESM exact-fit append on a level-2 tree additionally flushes exactly
/// one shadowed internal index page (§3.3: "the new copy that contains
/// the update is flushed out to disk at the end of the operation").
#[test]
fn esm_exact_fit_append_level2_adds_one_index_flush() {
    // 1-page leaves: level 2 beyond 507 leaves ⇒ 3 MB is comfortably there.
    let (mut db, mut obj) = build(ManagerSpec::esm(1), 3 << 20, 4096);
    db.pool().disk().enable_trace(16);
    obj.append(&mut db, &vec![2u8; 4096]).unwrap();
    let t = shape(&mut db);
    let leaf_writes: Vec<_> = t.iter().filter(|e| e.1 == LEAF && e.0 == W).collect();
    let meta_writes: Vec<_> = t.iter().filter(|e| e.1 == META && e.0 == W).collect();
    assert_eq!(leaf_writes.len(), 1, "{t:?}");
    assert_eq!(leaf_writes[0].2, 1);
    assert_eq!(meta_writes.len(), 1, "one shadowed internal node: {t:?}");
    assert_eq!(meta_writes[0].2, 1);
}

/// EOS suffix delete: no data pages move at all (§2.3 trims in place);
/// the only traffic, if any, is metadata.
#[test]
fn eos_suffix_delete_moves_no_data() {
    let (mut db, mut obj) = build(ManagerSpec::eos(1), 1 << 20, 256 * 1024);
    db.pool().disk().enable_trace(16);
    obj.delete(&mut db, (1 << 20) - 300_000, 300_000).unwrap();
    let t = shape(&mut db);
    assert!(
        t.iter().all(|e| e.1 != LEAF),
        "suffix delete touched data pages: {t:?}"
    );
}

/// ESM whole-leaf delete likewise frees without reading the leaf.
#[test]
fn esm_whole_leaf_delete_reads_no_data() {
    let (mut db, mut obj) = build(ManagerSpec::esm(4), 1 << 20, 16_384);
    db.pool().disk().enable_trace(32);
    // Delete leaves 10..14 exactly (aligned).
    obj.delete(&mut db, 10 * 16_384, 4 * 16_384).unwrap();
    let t = shape(&mut db);
    assert!(
        t.iter().all(|e| !(e.1 == LEAF && e.0 == R)),
        "aligned delete read data pages: {t:?}"
    );
}

/// A shadowed ESM leaf rewrite: read the old leaf once, write the new
/// copy once — "copy, update, flush" (§3.3). The leaf has free space, so
/// no split happens.
#[test]
fn esm_small_insert_is_copy_update_flush() {
    let (mut db, mut obj) = build(ManagerSpec::esm(4), 10_000, 10_000);
    db.pool().disk().enable_trace(16);
    obj.insert(&mut db, 5_000, b"tiny").unwrap();
    let t = shape(&mut db);
    let data: Vec<_> = t.iter().filter(|e| e.1 == LEAF).collect();
    assert_eq!(data.len(), 2, "{t:?}");
    assert_eq!(data[0].0, R);
    assert_eq!(data[0].2, 3, "old leaf content read (3 used pages): {t:?}");
    assert_eq!(data[1].0, W);
    assert_eq!(data[1].2, 3, "new leaf copy written: {t:?}");
}

/// Inserting into a *full* ESM leaf whose neighbours are full too splits
/// it into two half-full leaves — the basic overflow of [Care86].
#[test]
fn esm_insert_into_full_leaf_splits_evenly() {
    let (mut db, mut obj) = build(ManagerSpec::esm(4), 1 << 20, 16_384);
    db.pool().disk().enable_trace(16);
    obj.insert(&mut db, 100_000, b"tiny").unwrap();
    let t = shape(&mut db);
    let data: Vec<_> = t.iter().filter(|e| e.1 == LEAF).collect();
    // Read the old leaf once; write two ~half-full (3-page) leaves.
    assert_eq!(data.len(), 3, "{t:?}");
    assert_eq!(*data[0], (R, LEAF, 4), "{t:?}");
    assert_eq!(*data[1], (W, LEAF, 3), "{t:?}");
    assert_eq!(*data[2], (W, LEAF, 3), "{t:?}");
}

/// FNV-1a, folded one `u64` at a time.
fn fnv(h: u64, x: u64) -> u64 {
    x.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// ESM and EOS under the model's update mix: one FNV digest of every disk
/// call (kind, area, start, pages) and the final `IoStats`, per manager
/// and tree shape. Fan-out 4 crosses node edges on nearly every update
/// (splits, merges, borrows, neighbours in the next node); 507/511 is the
/// paper's tree. A change to the managers' update paths that means to
/// leave their I/O alone must leave every digest alone. They are
/// recorded with walks between neighbouring leaves that fix only the
/// node they climb to and those below it; at fan-out 4 the 12-frame pool
/// thrashes, so a walk that also re-fixed the pages above moves five of
/// them (ESM/1, ESM/4 and the three EOS), though none at 507/511. The
/// mix's multi-leaf `Read` and `Replace` walk the leaf level too, one
/// descent an op rather than one a leaf; in the thrashing pool the index
/// pages they no longer fix move ESM/1, ESM/4, EOS/1 and EOS/4 at fan-out
/// 4, and nothing at 507/511, where the pages a per-leaf descent fixed
/// were resident: there only pool hits fall.
#[test]
fn update_mix_traces_are_pinned() {
    const MIX: &[(u32, Kind)] = &[
        (2, Kind::Append),
        (3, Kind::Insert),
        (3, Kind::Delete),
        (2, Kind::Replace),
        (1, Kind::Read),
    ];
    let specs = [
        ManagerSpec::esm(1),
        ManagerSpec::esm(4),
        ManagerSpec::esm(16),
        ManagerSpec::eos(1),
        ManagerSpec::eos(4),
        ManagerSpec::eos(16),
    ];
    let mut got = Vec::new();
    // 2.4 MB puts more than 507 ESM/1 leaves under the paper's root.
    for (tree, build) in [
        (TreeConfig::tiny(4), 600_000),
        (TreeConfig::default(), 2_400_000),
    ] {
        for spec in specs {
            let mut db = Db::new(DbConfig {
                tree,
                ..DbConfig::default()
            });
            db.pool().disk().enable_trace(1 << 12);
            let mut d = Driver::new(&mut db, spec);
            let mut h = 0xcbf2_9ce4_8422_2325;
            let ops = std::iter::once(Op::Append(build)).chain(OpGen::new(35, MIX, 24_000));
            for op in ops.take(300) {
                d.apply(&mut db, &op);
                assert_eq!(db.pool().disk().trace_dropped(), 0);
                for e in db.pool().disk().take_trace() {
                    let kind = u64::from(e.kind == TraceKind::Write);
                    for x in [
                        kind,
                        u64::from(e.area.0),
                        u64::from(e.start),
                        u64::from(e.pages),
                    ] {
                        h = fnv(h, x);
                    }
                }
            }
            let s = db.io_stats();
            for x in [
                s.read_calls,
                s.write_calls,
                s.pages_read,
                s.pages_written,
                s.time_us,
            ] {
                h = fnv(h, x);
            }
            got.push(h);
            d.finish(&mut db);
        }
    }
    // ESM/1, /4, /16 then EOS/1, /4, /16; fan-out 4, then 507/511.
    let want: [u64; 12] = [
        0xa924_cbae_f75c_6c1f,
        0x8804_423a_3aea_c768,
        0x00a1_0d68_cc3b_827d,
        0xb485_53a7_1d2d_fa5f,
        0x1df5_3e90_a593_6099,
        0xf9f9_f56b_3545_0c06,
        0x170a_ed9f_efc8_ac90,
        0x7849_236a_226c_558d,
        0xd83d_e2b0_d45f_6347,
        0xb05e_8b7b_8e90_f510,
        0x763c_f508_e37c_044a,
        0x5cae_b7bd_0345_b394,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}
