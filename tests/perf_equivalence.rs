//! Property-based equivalence of the optimized read paths.
//!
//! The wall-clock work — extent-backed arenas, the scatter read path,
//! the scan cursor — must leave both the returned bytes and the
//! simulated cost model untouched. Two properties pin that:
//!
//! 1. **Bytes**: for seeded build histories (driven through the one
//!    reference model, `lobstore::workload::model`), the optimized
//!    `LargeObject::read` and the `ObjectReader` cursor return exactly
//!    the bytes of the naive peek-based reference (`snapshot()`, which
//!    walks the index with cost-free peeks and bypasses the buffer
//!    pool and the scatter path entirely).
//! 2. **Accounting**: a live pass costs one pinned pass. Streaming an
//!    object through `ObjectReader` makes exactly the LEAF reads of the
//!    run model, `workload::cursor_reads` over `segments()`: a refill
//!    reads one page run from its position through the segments that
//!    follow it on disk in its level-0 node, while the run ends on a page
//!    boundary and holds under 256 KiB, at most 4 MiB a call. On a twin
//!    database a pinned cursor over the same version returns the same
//!    bytes and charges identical `IoStats` and disk trace: the pinned
//!    source copies a run into its own buffer and the live one borrows it
//!    from the page store, charged as that same one call, so no partial
//!    page takes §3.2's 3-step path, and over a clean object the live pass
//!    copies no LEAF byte. Bulk reads keep that path; their absolute
//!    costs are pinned by `tests/golden_traces.rs` and
//!    `tests/cost_model.rs`. Fixed cases hold property 2 on 3–4 MB
//!    objects, whose pinned passes make disk calls large enough that
//!    `SimDisk` splits their copy across cores; on ESM/4 and
//!    EOS/16 under fan-out 4, whose index has interior pages below the
//!    root; and on the runs themselves: appended ESM/4 leaves joined up to
//!    the 256 KiB cap, a partial leaf and a shadowed leaf that each break
//!    a run, runs that stop at fan-out 4's node boundaries, and
//!    Starburst's doubling segments. One more holds a whole ESM/4 read
//!    beside six dirty roots to the META reads of a clean pool (a leaf
//!    read never evicts the walk's own level-0 node), and a cursor pass
//!    there to one read of each index page at most. The write side's
//!    twin holds a steady-state 10 MB Starburst update, whose new
//!    segment lands in one copy cut across cores, to the model's bytes.
//!
//! Properties 3–6 hold the pinned cursor, and property 7, at the end,
//! holds the live cursor's bytes under seek scripts.

use std::io::{Read, Seek, SeekFrom};

use lobstore::simdisk::TraceEvent;
use lobstore::workload::model::{Driver, Kind, Op, OpGen};
use lobstore::workload::{cursor_reads, fill, CursorRead};
use lobstore::{Db, DbConfig, LargeObject, ManagerSpec, ObjectReader, TreeConfig};
use proptest::prelude::*;

/// Build histories: appends, inserts and replaces.
const BUILD: &[(u32, Kind)] = &[(1, Kind::Append), (1, Kind::Insert), (1, Kind::Replace)];
/// Churn under a pin: the build mix plus deletes.
const CHURN: &[(u32, Kind)] = &[
    (1, Kind::Append),
    (1, Kind::Insert),
    (1, Kind::Replace),
    (1, Kind::Delete),
];

/// Build an object from `edits` ops of up to `max_len` bytes of the
/// `BUILD` mix, then check random-range reads and a full streamed scan
/// against the peek-based snapshot.
fn bytes_match_reference(
    spec: ManagerSpec,
    (seed, edits, max_len): (u64, usize, usize),
    reads: &[(f64, usize)],
    chunk: usize,
) {
    let mut db = Db::paper_default();
    let mut d = Driver::new(&mut db, spec);
    d.run(&mut db, OpGen::new(seed, BUILD, max_len).take(edits));
    let obj = d.obj;

    let reference = obj.snapshot(&db);
    let size = reference.len();

    // Random ranges through the optimized `read` — offsets land at
    // arbitrary page alignments, so these exercise both the scatter
    // path (direct reads) and the staged/buffered paths.
    for &(at, len) in reads {
        if size == 0 {
            break;
        }
        let off = ((at * size as f64) as usize).min(size - 1);
        let len = len.min(size - off).max(1);
        let mut out = vec![0u8; len];
        obj.read(&mut db, off as u64, &mut out).unwrap();
        if out != reference[off..off + len] {
            let bad = out
                .iter()
                .zip(&reference[off..off + len])
                .position(|(a, b)| a != b);
            panic!("read({off}, {len}) diverges from the peek reference at {bad:?}");
        }
    }

    // Full streamed scan through the cursor.
    let mut streamed = Vec::with_capacity(size);
    let mut r = ObjectReader::new(&mut db, obj.as_ref());
    drain(&mut r, chunk, &mut streamed);
    assert_eq!(streamed.len(), size, "cursor length");
    assert!(
        streamed == reference,
        "streamed bytes diverge from the peek reference"
    );
}

/// What one side of [`streamed_accounting_matches_bulk`] cost: its
/// `IoStats` and its disk calls in order.
struct Charge {
    io: IoStats,
    trace: Vec<TraceEvent>,
}

/// Run `f` on `db` and measure what it charges.
fn charge(db: &mut Db, f: impl FnOnce(&mut Db)) -> Charge {
    db.pool().disk().enable_trace(4_096);
    let io = db.io_stats();
    f(db);
    let disk = db.pool().disk();
    let (trace, dropped) = (disk.take_trace(), disk.trace_dropped());
    assert_eq!(dropped, 0, "trace buffer too small");
    Charge {
        io: db.io_stats() - io,
        trace,
    }
}

/// How a store of [`streamed_accounting_matches_bulk`] lays its object
/// down: the tree's fan-out, and the size of the appends that write
/// `fill(total, 99)`.
#[derive(Clone, Copy)]
struct Layout {
    tree: TreeConfig,
    append: usize,
}

impl Layout {
    /// The paper's tree, the object in one append.
    fn paper() -> Self {
        Layout {
            tree: TreeConfig::default(),
            append: usize::MAX,
        }
    }

    /// A store holding `build` of `spec`, laid down this way.
    fn store(self, spec: ManagerSpec, build: &[u8]) -> (Db, Box<dyn LargeObject>) {
        let mut db = Db::new(DbConfig {
            tree: self.tree,
            ..DbConfig::default()
        });
        let mut obj = spec.create(&mut db).unwrap();
        for piece in build.chunks(self.append) {
            obj.append(&mut db, piece).unwrap();
        }
        (db, obj)
    }
}

/// Drain any cursor to the end in `chunk`-sized requests.
fn drain(r: &mut impl Read, chunk: usize, out: &mut Vec<u8>) {
    let mut buf = vec![0u8; chunk];
    loop {
        match r.read(&mut buf).unwrap() {
            0 => break,
            n => out.extend_from_slice(&buf[..n]),
        }
    }
}

/// The LEAF-area reads of a trace, as `(first page, page count)`.
fn leaf_reads(trace: &[TraceEvent]) -> Vec<(u32, u32)> {
    trace
        .iter()
        .filter(|e| e.area == AreaId::LEAF && e.kind == TraceKind::Read)
        .map(|e| (e.start, e.pages))
        .collect()
}

/// The LEAF calls of `reads`, as `(first page, page count)`.
fn calls(reads: &[CursorRead]) -> Vec<(u32, u32)> {
    reads.iter().map(|r| r.call).collect()
}

/// Twin databases from `store`, identical builds: stream `[start, size)`
/// through the live cursor on one and through a pinned cursor over the
/// same version on the other. The live pass must read back the
/// `snapshot()` bytes, make exactly the LEAF reads of [`cursor_reads`]
/// from `start`, and charge what the pinned pass charges: the same bytes,
/// bit-identical `IoStats`, the same disk calls in the same order, and
/// the same leaf pages left in the pool. The last tells the two leaf
/// reads apart where the disk calls cannot: a leaf of at most 4 pages
/// read through the pool makes the one call a page run makes, but takes
/// a frame a page. Returns the modelled refills.
///
/// Both cursors search through one function, a descent below the root
/// they parsed at open; they differ in how they open (through the pool,
/// or through the version overlay), in the live refill's observer and in
/// whether the run is copied (pinned) or borrowed (live, charged as the
/// same call). A refill's leaf read is one page run, past the pool's frames, so
/// the index pages the two fix stay resident and are read at most once
/// each.
fn live_pass_costs_a_pinned_pass(
    store: &dyn Fn() -> (Db, Box<dyn LargeObject>),
    start: u64,
    chunk: usize,
) -> Vec<CursorRead> {
    let (mut db_live, obj_live) = store();
    let (mut db_pinned, obj_pinned) = store();
    let reference = obj_live.snapshot(&db_live);
    let from = usize::try_from(start).unwrap();
    let segs = obj_live.segments(&db_live);

    let mut live_bytes = Vec::with_capacity(reference.len() - from);
    let live = charge(&mut db_live, |db| {
        let mut r = ObjectReader::new(db, obj_live.as_ref());
        r.seek(SeekFrom::Start(start)).unwrap();
        drain(&mut r, chunk, &mut live_bytes);
    });

    let snap = db_pinned.snapshot();
    let mut pinned_bytes = Vec::with_capacity(reference.len() - from);
    let pinned = charge(&mut db_pinned, |db| {
        let mut c = SpanCursor::pinned(&*db, &snap, obj_pinned.root_page()).unwrap();
        c.seek(SeekFrom::Start(start)).unwrap();
        drain(&mut c, chunk, &mut pinned_bytes);
    });
    db_pinned.release_snapshot(snap);

    assert!(
        live_bytes == reference[from..],
        "cursor scan diverges from the peek reference"
    );
    assert!(live_bytes == pinned_bytes, "content diverges");
    let what = format!(
        "cursor scan of [{start}, {}) in {chunk}-byte chunks",
        reference.len()
    );
    let model = cursor_reads(&segs, start);
    assert_eq!(
        leaf_reads(&live.trace),
        calls(&model),
        "{what} must make one LEAF call a run of neighbouring segments, \
         covering pages only"
    );
    assert_eq!(
        live.io, pinned.io,
        "{what} must charge exactly the simulated I/O of a pinned pass"
    );
    assert_eq!(
        live.trace, pinned.trace,
        "{what} must make the disk calls of a pinned pass, in its order"
    );
    let resident = |db: &mut Db| {
        let pages = segs
            .iter()
            .flat_map(|s| s.start_page..s.start_page + s.pages);
        let pool = db.pool();
        pages
            .filter(|&p| pool.contains(PageId::new(AreaId::LEAF, p)))
            .count()
    };
    assert_eq!(
        resident(&mut db_live),
        resident(&mut db_pinned),
        "{what} must leave the leaf pages in the pool that a pinned pass \
         leaves: its leaf reads take no frame"
    );
    model
}

/// [`live_pass_costs_a_pinned_pass`] over `fill(total, 99)`, laid down
/// by `layout`, from `start_frac` of the way in; the pass must also read
/// back the appended bytes.
fn streamed_accounting_matches_bulk(
    spec: ManagerSpec,
    layout: Layout,
    total: usize,
    start_frac: f64,
    chunk: usize,
) -> Vec<CursorRead> {
    let build = fill(total, 99);
    let store = || {
        let (db, obj) = layout.store(spec, &build);
        assert!(
            obj.snapshot(&db) == build,
            "the store diverges from the append"
        );
        (db, obj)
    };
    let start = ((start_frac * total as f64) as usize).min(total - 1);
    live_pass_costs_a_pinned_pass(&store, start as u64, chunk)
}

/// An object of one multi-megabyte append, whose live and pinned passes
/// make disk calls of 1 MiB and more. Both read back the appended bytes
/// and are charged the same calls, but only the pinned pass copies: its
/// calls are the ones whose copy `SimDisk` cuts across cores, and the live
/// pass borrows its runs, so it adds no split read. `snapshot()` peeks one
/// page at a time, so it never splits and is the independent oracle.
fn large_append_reads_back(spec: ManagerSpec, total: usize) {
    let split_reads = || lobstore::obs::counter_value("simdisk.split_reads");
    let before = split_reads();
    streamed_accounting_matches_bulk(spec, Layout::paper(), total, 0.0, 64 << 10);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores > 1 {
        assert!(split_reads() > before, "no read was split");
    }
    let (mut db, obj) = Layout::paper().store(spec, &fill(total, 99));
    let before = split_reads();
    let mut out = Vec::new();
    drain(
        &mut ObjectReader::new(&mut db, obj.as_ref()),
        64 << 10,
        &mut out,
    );
    assert!(out == fill(total, 99), "the live pass diverges");
    assert_eq!(split_reads(), before, "the live pass split a read");
}

/// Over a clean object whose pages all lie in the disk's arena, a live
/// pass borrows every run: its read calls copy no LEAF byte
/// (`simdisk.leaf.bytes_copied`), while its `IoStats`, disk trace and
/// LEAF reads stay a pinned pass's and the run model's
/// ([`live_pass_costs_a_pinned_pass`]), and `core.seg.reads` still counts
/// one a refill.
#[test]
fn a_live_pass_over_a_clean_dense_object_copies_no_leaf_byte() {
    let counter = lobstore::obs::counter_value;
    for (spec, total) in [
        (ManagerSpec::esm(16), 700_000),
        (ManagerSpec::esm(4), 1 << 20),
        (ManagerSpec::eos(16), (3 << 20) + 1_234),
        (ManagerSpec::starburst(), (4 << 20) - 4_321),
    ] {
        let build = fill(total, 99);
        let store = || {
            let (mut db, obj) = Layout::paper().store(spec, &build);
            db.pool().flush_all();
            (db, obj)
        };
        let model = live_pass_costs_a_pinned_pass(&store, 0, 4_096);
        let (mut db, obj) = store();
        let (copied, seg_reads) = (
            counter("simdisk.leaf.bytes_copied"),
            counter("core.seg.reads"),
        );
        let mut out = Vec::new();
        drain(
            &mut ObjectReader::new(&mut db, obj.as_ref()),
            4_096,
            &mut out,
        );
        assert!(out == build, "{}: the live pass diverges", spec.label());
        assert_eq!(
            counter("simdisk.leaf.bytes_copied"),
            copied,
            "{}: a live pass over a clean object copies no LEAF byte",
            spec.label()
        );
        assert_eq!(
            counter("core.seg.reads") - seg_reads,
            model.len() as u64,
            "{}: one segment read a refill",
            spec.label()
        );
    }
}

/// The accounting property on a deeper index: under fan-out 4 the
/// object's index has interior pages below the root, which every refill
/// fixes on its way down. ESM/4 lays its
/// leaves in one append; EOS/16 is appended a page at a time, so its
/// segments double in size and there are enough of them to need an
/// interior level.
#[test]
fn streamed_accounting_matches_bulk_at_depth() {
    for (spec, append) in [
        (ManagerSpec::esm(4), 600_000),
        (ManagerSpec::eos(16), 4_096),
    ] {
        let layout = Layout {
            tree: TreeConfig::tiny(4),
            append,
        };
        let (db, obj) = layout.store(spec, &fill(600_000, 99));
        let index = obj.index_page_numbers(&db).len();
        assert!(index > 1, "{}: {index} index page", spec.label());
        for (start, chunk) in [(0.0, 4_096), (0.0, 1_000), (0.37, 10_000)] {
            streamed_accounting_matches_bulk(spec, layout, 600_000, start, chunk);
        }
    }
}

// The runs, on fixed layouts. Each case holds the live pass to the
// `snapshot()` bytes, to the run model and to a pinned pass (`IoStats`
// and trace), and pins the calls the model gives, page by page.

/// ESM/4 appended a megabyte at a time lays its 16 KiB leaves back to
/// back, so a refill joins them into one call until the run holds
/// 256 KiB: sixteen leaves, 64 pages, a call. From a position inside a
/// leaf the first run joins up to the cap past it.
#[test]
fn a_run_joins_appended_leaves_up_to_256_kib() {
    const CAP: u64 = 256 << 10;
    let layout = Layout {
        tree: TreeConfig::default(),
        append: 1 << 20,
    };
    let spec = ManagerSpec::esm(4);
    let model = streamed_accounting_matches_bulk(spec, layout, 3 << 20, 0.0, 4_096);
    let want: Vec<(u32, u32)> = (0..12).map(|k| (1 + 64 * k, 64)).collect();
    assert_eq!(calls(&model), want, "from byte 0");

    let model = streamed_accounting_matches_bulk(spec, layout, 3 << 20, 0.37, 10_000);
    let (first, rest) = model.split_first().unwrap();
    assert!(
        (CAP..CAP + 16_384).contains(&first.len),
        "the first run joins up to the cap past its position: {first:?}"
    );
    let (last, full) = rest.split_last().unwrap();
    assert!(full.iter().all(|r| r.len == CAP), "{model:?}");
    assert_eq!(last.pos + last.len, 3 << 20, "the last run ends the object");
}

/// A leaf whose bytes end inside a page ends its run. ESM/4 lays 400 000
/// bytes as 23 full leaves and two of 11 584 bytes (three pages of their
/// four): the second run joins leaves 16-22 and the first short leaf,
/// and the last leaf, on the four pages right behind it, is read alone.
#[test]
fn a_partial_leaf_ends_its_run() {
    let model =
        streamed_accounting_matches_bulk(ManagerSpec::esm(4), Layout::paper(), 400_000, 0.0, 4_096);
    assert_eq!(calls(&model), [(1, 64), (65, 31), (97, 3)]);
}

/// A leaf that a shadowed `replace` moved away ends the run before it
/// and is read on its own; the next run starts behind its old place.
#[test]
fn a_moved_leaf_ends_its_run() {
    let store = || {
        let (mut db, mut obj) = Layout::paper().store(ManagerSpec::esm(4), &fill(400_000, 99));
        obj.replace(&mut db, 100_000, &fill(1_000, 7)).unwrap();
        (db, obj)
    };
    let model = live_pass_costs_a_pinned_pass(&store, 0, 4_096);
    assert_eq!(
        calls(&model),
        [(1, 24), (101, 4), (29, 64), (93, 3), (97, 3)],
        "leaf 6, pages 25-28, now lies at page 101"
    );
}

/// Under fan-out 4 a run stops at the end of its level-0 node (three
/// leaves here), though the next node's first leaf lies right behind it:
/// a refill joins the pairs of the node its search ended in, no other.
#[test]
fn a_run_stops_at_its_node() {
    let layout = Layout {
        tree: TreeConfig::tiny(4),
        append: usize::MAX,
    };
    let model = streamed_accounting_matches_bulk(ManagerSpec::esm(4), layout, 400_000, 0.0, 4_096);
    let mut want: Vec<(u32, u32)> = (0..7).map(|k| (1 + 12 * k, 12)).collect();
    want.extend([(85, 11), (97, 3)]);
    assert_eq!(calls(&model), want);
}

/// Starburst appended a page at a time: its segments double in size.
/// The first (page 1) and the second (page 3) do not touch; from the
/// second on, the segments the buddy allocator put back to back join
/// until the run passes 256 KiB, and every larger one is a call of its
/// own.
#[test]
fn starburst_doubling_segments_join() {
    let layout = Layout {
        tree: TreeConfig::default(),
        append: 4_096,
    };
    let spec = ManagerSpec::starburst();
    let model = streamed_accounting_matches_bulk(spec, layout, 3 << 20, 0.0, 4_096);
    assert_eq!(
        calls(&model),
        [(1, 1), (3, 126), (129, 128), (257, 256), (513, 257)]
    );
}

/// A walk keeps its level-0 node over each leaf read, however dirty the
/// pool. One ESM/4 object of 1 MB under fan-out 16, flushed; then six
/// more objects of one append each, whose roots and the buddy pages stay
/// dirty, so only a few of the 12 frames are clean and a 4-page leaf
/// read would take the walk's node as its victim. A whole bulk read must
/// read back the object and make at most one META read call more than
/// on the same store without the six. A whole cursor pass reads its
/// leaves past the pool's frames, so it must read each index page at
/// most once.
#[test]
fn the_walk_reads_its_index_once_in_a_dirty_pool() {
    let spec = ManagerSpec::esm(4);
    let layout = Layout {
        tree: TreeConfig::tiny(16),
        append: usize::MAX,
    };
    let build = fill(1 << 20, 99);
    let store = |others: usize| {
        let (mut db, obj) = layout.store(spec, &build);
        db.pool().flush_all();
        for _ in 0..others {
            let mut other = spec.create(&mut db).unwrap();
            other.append(&mut db, &fill(100, 7)).unwrap();
        }
        (db, obj)
    };
    let meta_reads = |c: &Charge| {
        let meta = |e: &&TraceEvent| e.kind == TraceKind::Read && e.area == AreaId::META;
        c.trace.iter().filter(meta).count()
    };
    let bulk = |others| {
        let (mut db, obj) = store(others);
        let mut out = vec![0u8; build.len()];
        let c = charge(&mut db, |db| obj.read(db, 0, &mut out).unwrap());
        assert!(out == build, "bulk read diverges from the append");
        meta_reads(&c)
    };
    let (clean, dirty) = (bulk(0), bulk(6));
    assert!(
        dirty <= clean + 1,
        "a bulk read beside six dirty roots makes {dirty} META reads, on a clean pool {clean}"
    );

    let (mut db, obj) = store(6);
    let index = obj.index_page_numbers(&db).len();
    let mut out = Vec::new();
    let c = charge(&mut db, |db| {
        drain(&mut ObjectReader::new(db, obj.as_ref()), 10_000, &mut out);
    });
    assert!(out == build, "cursor pass diverges from the append");
    let streamed = meta_reads(&c);
    assert!(
        streamed <= index,
        "a cursor pass beside six dirty roots makes {streamed} META reads of a {index}-page index"
    );
}

#[test]
fn eos_large_append_reads_back_through_split_calls() {
    large_append_reads_back(ManagerSpec::eos(16), (3 << 20) + 1_234);
}

#[test]
fn starburst_large_append_reads_back_through_split_calls() {
    large_append_reads_back(ManagerSpec::starburst(), (4 << 20) - 4_321);
}

/// A steady-state Starburst update of a 10 MB object copies its one new
/// segment by one land (§3.5's tail copy), whose arena copies are cut
/// across cores on two or more: `simdisk.split_writes` counts them, as
/// `simdisk.split_reads` counts the split reads above. The object reads
/// back as the model through `snapshot()`'s one-page peeks.
#[test]
fn a_steady_state_starburst_update_lands_through_split_writes() {
    let split_writes = || lobstore::obs::counter_value("simdisk.split_writes");
    let mut db = Db::paper_default();
    let mut obj = ManagerSpec::starburst().create(&mut db).unwrap();
    let mut model = fill(10 << 20, 7);
    obj.append(&mut db, &model).unwrap();
    // The first update: maximum-size segments from here on.
    obj.insert(&mut db, 1_000, b"x").unwrap();
    model.insert(1_000, b'x');
    for (off, put) in [(5 << 20, &b"yz"[..]), (3_000_000, &[])] {
        let before = split_writes();
        if put.is_empty() {
            obj.delete(&mut db, off, 70_000).unwrap();
            model.drain(off as usize..off as usize + 70_000);
        } else {
            obj.insert(&mut db, off, put).unwrap();
            model.splice(off as usize..off as usize, put.iter().copied());
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if cores > 1 {
            assert!(split_writes() > before, "no land was split at {off}");
        }
    }
    assert!(obj.snapshot(&db) == model, "the object diverges");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 100,
        ..ProptestConfig::default()
    })]

    #[test]
    fn esm_reads_match_the_peek_reference(
        (seed, edits, reads, chunk) in (
            any::<u64>(),
            1usize..12,
            prop::collection::vec((0.0f64..=1.0, 1usize..30_000), 1..8),
            1usize..9_000,
        )
    ) {
        bytes_match_reference(ManagerSpec::esm(16), (seed, edits, 40_000), &reads, chunk);
    }

    #[test]
    fn esm_single_page_leaves_match_the_peek_reference(
        (seed, edits, reads, chunk) in (
            any::<u64>(),
            1usize..10,
            prop::collection::vec((0.0f64..=1.0, 1usize..15_000), 1..8),
            1usize..9_000,
        )
    ) {
        bytes_match_reference(ManagerSpec::esm(1), (seed, edits, 20_000), &reads, chunk);
    }

    #[test]
    fn eos_reads_match_the_peek_reference(
        (seed, edits, reads, chunk) in (
            any::<u64>(),
            1usize..12,
            prop::collection::vec((0.0f64..=1.0, 1usize..30_000), 1..8),
            1usize..9_000,
        )
    ) {
        bytes_match_reference(ManagerSpec::eos(16), (seed, edits, 40_000), &reads, chunk);
    }

    #[test]
    fn starburst_reads_match_the_peek_reference(
        (seed, edits, reads, chunk) in (
            any::<u64>(),
            1usize..10,
            prop::collection::vec((0.0f64..=1.0, 1usize..30_000), 1..8),
            1usize..9_000,
        )
    ) {
        bytes_match_reference(ManagerSpec::starburst(), (seed, edits, 40_000), &reads, chunk);
    }

    #[test]
    fn esm_streamed_accounting_matches_bulk(
        (total, start, chunk) in (65_536usize..1_500_000, 0.0f64..=1.0, 512usize..16_384)
    ) {
        streamed_accounting_matches_bulk(ManagerSpec::esm(16), Layout::paper(), total, start, chunk);
    }

    #[test]
    fn esm_buffered_leaves_streamed_accounting_matches_bulk(
        (total, start, chunk) in (65_536usize..1_500_000, 0.0f64..=1.0, 512usize..16_384)
    ) {
        streamed_accounting_matches_bulk(ManagerSpec::esm(4), Layout::paper(), total, start, chunk);
    }

    #[test]
    fn eos_streamed_accounting_matches_bulk(
        (total, start, chunk) in (65_536usize..1_500_000, 0.0f64..=1.0, 512usize..16_384)
    ) {
        streamed_accounting_matches_bulk(ManagerSpec::eos(16), Layout::paper(), total, start, chunk);
    }

    #[test]
    fn starburst_streamed_accounting_matches_bulk(
        (total, start, chunk) in (65_536usize..1_500_000, 0.0f64..=1.0, 512usize..16_384)
    ) {
        streamed_accounting_matches_bulk(ManagerSpec::starburst(), Layout::paper(), total, start, chunk);
    }
}

// ---- the pinned cursor ----------------------------------------------------
//
// The pinned cursor is the live cursor's `SpanCursor` over a `Pinned`
// source, which reaches `&Db` through a borrowed reference or through
// `SharedDb`'s read tier. Four more properties, over the same generators:
//
// 3. **Pinned bytes**: after the object is pinned and then churned, random
//    seek/read scripts return the content at pin time, through a
//    borrowed-`&Db` cursor, through one on `SharedDb`'s read tier and
//    through `SharedDb::snapshot_reader`'s, opened before the churn.
// 4. **Pinned accounting**: on twin databases, driving the cursor by
//    `read` and by `fill_buf`/`consume` charges identical `IoStats`, and
//    the same `read` script through a borrowed `&Db` and through
//    `SharedDb`'s read tier charges identical `IoStats` and LEAF trace.
// 5. **Pinned scan trace**: a whole scan's LEAF-area reads are exactly
//    the run model (`cursor_reads`) over `segments()` at pin time. (The
//    in-repo twin of lobbench's `versioned/sim_ms_per_op`.)
// 6. **Pinned partial read**: a cold 100-byte read is one LEAF-area call,
//    the model's first from its offset: the rest of the run that holds
//    it, and nothing past the run.

use std::io::BufRead;

use lobstore::core::Pinned;
use lobstore::simdisk::TraceKind;
use lobstore::{
    AreaId, IoStats, PageId, SegmentInfo, SharedDb, SharedSnapshotReader, Snapshot, SpanCursor,
};

/// A store whose object was built from `history`, pinned twice (a bare
/// [`Snapshot`] and a [`SharedSnapshotReader`]), then churned by the same
/// ops again — so the pinned version's pages are superseded, deferred
/// and, without the pins, would be reused.
struct PinnedStore {
    shared: SharedDb,
    root: u32,
    snap: Snapshot,
    cursor: SharedSnapshotReader,
    /// Object content and segment list at pin time.
    content: Vec<u8>,
    segs: Vec<SegmentInfo>,
}

fn pinned_store(spec: ManagerSpec, history: &[Op]) -> PinnedStore {
    let mut db = Db::paper_default();
    let mut d = Driver::new(&mut db, spec);
    d.run(&mut db, history.to_vec());
    let content = d.model.bytes().to_vec();
    let segs = d.obj.segments(&db);
    let root = d.obj.root_page();
    let shared = SharedDb::new(db);
    let snap = shared.with(|db| db.snapshot());
    let cursor = shared.snapshot_reader(root).unwrap();
    shared.with(|db| d.run(db, history.to_vec()));
    PinnedStore {
        shared,
        root,
        snap,
        cursor,
        content,
        segs,
    }
}

impl PinnedStore {
    fn io_stats(&self) -> IoStats {
        self.shared.with(|db| db.io_stats())
    }

    /// The `(offset, length)` ranges a script visits, clipped to the
    /// pinned content; a whole scan comes first.
    fn ranges(&self, script: &[(f64, usize)]) -> Vec<(usize, usize)> {
        let size = self.content.len();
        let clip = |&(at, len): &(f64, usize)| {
            let off = ((at * size as f64) as usize).min(size);
            (off, len.min(size - off))
        };
        std::iter::once((0, size))
            .chain(script.iter().map(clip))
            .collect()
    }

    /// The LEAF-area disk reads `f` causes, as `(first page, page count)`.
    fn leaf_reads<T>(&self, f: impl FnOnce() -> T) -> (T, Vec<(u32, u32)>) {
        self.shared
            .with(|db| db.pool().disk().enable_trace(self.segs.len() * 3 + 256));
        let got = f();
        let (trace, dropped) = self.shared.with(|db| {
            let disk = db.pool().disk();
            (disk.take_trace(), disk.trace_dropped())
        });
        assert_eq!(dropped, 0, "trace buffer too small");
        (got, leaf_reads(&trace))
    }

    /// A cold cursor over the pinned version that reaches the database
    /// through `db`.
    fn cursor_on<'a>(&self, db: &'a Db) -> SpanCursor<Pinned<&'a Db>> {
        SpanCursor::pinned(db, &self.snap, self.root).unwrap()
    }

    /// What `f` returns, the `IoStats` it charges and its LEAF reads.
    fn costed<T>(&self, f: impl FnOnce() -> T) -> (T, IoStats, Vec<(u32, u32)>) {
        let before = self.io_stats();
        let (got, leaf) = self.leaf_reads(f);
        (got, self.io_stats() - before, leaf)
    }

    fn finish(self) {
        self.cursor.close();
        self.shared.with(|db| db.release_snapshot(self.snap));
    }
}

/// Pull `len` bytes out of a cursor: `step(want)` returns the next at
/// most `want` bytes.
fn pull(len: usize, mut step: impl FnMut(usize) -> Vec<u8>) -> Vec<u8> {
    let mut got = Vec::with_capacity(len);
    while got.len() < len {
        let piece = step(len - got.len());
        assert!(!piece.is_empty(), "premature EOF after {} bytes", got.len());
        got.extend_from_slice(&piece);
    }
    got
}

/// Visit `ranges` through `c` by `Read::read`, at most `chunk` bytes a
/// call; returns each range's bytes. A read past the end then returns 0.
fn script_by_read(
    c: &mut (impl Read + Seek),
    ranges: &[(usize, usize)],
    chunk: usize,
) -> Vec<Vec<u8>> {
    let got = ranges
        .iter()
        .map(|&(off, len)| {
            c.seek(SeekFrom::Start(off as u64)).unwrap();
            pull(len, |want| {
                let mut buf = vec![0u8; want.min(chunk)];
                let n = c.read(&mut buf).unwrap();
                buf.truncate(n);
                buf
            })
        })
        .collect();
    c.seek(SeekFrom::End(7)).unwrap();
    assert_eq!(c.read(&mut [0u8; 1]).unwrap(), 0, "a read past the end");
    got
}

/// [`script_by_read`] by `fill_buf`/`consume`.
fn script_by_fill(
    c: &mut (impl BufRead + Seek),
    ranges: &[(usize, usize)],
    chunk: usize,
) -> Vec<Vec<u8>> {
    ranges
        .iter()
        .map(|&(off, len)| {
            c.seek(SeekFrom::Start(off as u64)).unwrap();
            pull(len, |want| {
                let piece = c.fill_buf().unwrap();
                let piece = piece[..piece.len().min(want).min(chunk)].to_vec();
                c.consume(piece.len());
                piece
            })
        })
        .collect()
}

fn pinned_cursor_properties(
    spec: ManagerSpec,
    history: &[Op],
    script: &[(f64, usize)],
    chunk: usize,
) {
    // Triplets: identical history, so identical pool and disk state.
    let mut by_read = pinned_store(spec, history);
    let by_fill = pinned_store(spec, history);
    let by_tier = pinned_store(spec, history);
    let content = by_read.content.clone();
    assert!(
        content == by_fill.content && content == by_tier.content,
        "twin stores diverge"
    );
    let ranges = by_read.ranges(script);
    let want: Vec<&[u8]> = ranges
        .iter()
        .map(|&(off, len)| &content[off..off + len])
        .collect();

    // Properties 3 and 4 on cursors opened after the churn: the same
    // bytes and the same charge, whichever surface drives the cursor and
    // whichever way it reaches the database.
    let (read, read_io, read_leaf) = by_read.costed(|| {
        by_read
            .shared
            .with_read(|db| script_by_read(&mut by_read.cursor_on(db), &ranges, chunk))
    });
    let (fill, fill_io, _) = by_fill.costed(|| {
        by_fill
            .shared
            .with_read(|db| script_by_fill(&mut by_fill.cursor_on(db), &ranges, chunk))
    });
    let (tier, tier_io, tier_leaf) = by_tier.costed(|| {
        let mut c = SpanCursor::pinned(by_tier.shared.clone(), &by_tier.snap, by_tier.root);
        script_by_read(c.as_mut().unwrap(), &ranges, chunk)
    });
    assert!(read == want, "read diverges");
    assert!(fill == want, "fill_buf/consume diverges");
    assert!(tier == want, "read on the read tier diverges");
    assert_eq!(
        read_io, fill_io,
        "read and fill_buf/consume must charge the same simulated I/O"
    );
    assert_eq!(
        read_io, tier_io,
        "a borrowed &Db and SharedDb's read tier must charge the same simulated I/O"
    );
    assert_eq!(
        read_leaf, tier_leaf,
        "a borrowed &Db and SharedDb's read tier must make the same LEAF reads"
    );

    // Property 3 on the cursor `snapshot_reader` opened before the churn.
    let pre_churn = script_by_fill(&mut by_read.cursor, &ranges, chunk);
    assert!(pre_churn == want, "snapshot_reader diverges");

    // Property 5: a cold cursor's whole scan, call by call.
    let model = calls(&cursor_reads(&by_read.segs, 0));
    let (scanned, leaf_reads) = by_read.leaf_reads(|| {
        by_read.shared.with_read(|db| {
            let mut out = Vec::new();
            by_read.cursor_on(db).read_to_end(&mut out).unwrap();
            out
        })
    });
    assert!(scanned == content, "cold scan diverges");
    assert_eq!(
        leaf_reads, model,
        "LEAF reads of a pinned scan must be one call a run of neighbouring \
         segments, covering pages only"
    );

    // Property 6: a cold partial read pays for its own run only.
    for &(off, _) in ranges.iter().filter(|r| r.0 < content.len()) {
        let first = cursor_reads(&by_read.segs, off as u64)[0];
        let mut buf = [0u8; 100];
        let (n, leaf_reads) = by_read.leaf_reads(|| {
            by_read.shared.with_read(|db| {
                let mut cold = by_read.cursor_on(db);
                cold.seek(SeekFrom::Start(off as u64)).unwrap();
                cold.read(&mut buf).unwrap()
            })
        });
        assert_eq!(n as u64, first.len.min(100), "short read at {off}");
        assert!(buf[..n] == content[off..off + n], "partial({off}) diverges");
        assert_eq!(
            leaf_reads,
            [first.call],
            "a cold 100-byte pinned read at {off} must be one LEAF call, for \
             the rest of its own run"
        );
    }

    by_read.finish();
    by_fill.finish();
    by_tier.finish();
}

/// A segment larger than one span is read in span-sized pieces.
#[test]
fn pinned_scan_splits_a_segment_larger_than_the_window() {
    pinned_cursor_properties(
        ManagerSpec::starburst(),
        &[Op::Append(9 << 20)],
        &[(0.6, 70_000)],
        1 << 20,
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 100,
        ..ProptestConfig::default()
    })]

    #[test]
    fn esm_pinned_cursor_is_stable_and_costed_once(
        (seed, edits, script, chunk) in (
            any::<u64>(),
            1usize..12,
            prop::collection::vec((0.0f64..=1.0, 1usize..30_000), 1..8),
            1usize..9_000,
        )
    ) {
        let history: Vec<Op> = OpGen::new(seed, CHURN, 40_000).take(edits).collect();
        pinned_cursor_properties(ManagerSpec::esm(4), &history, &script, chunk);
    }

    #[test]
    fn eos_pinned_cursor_is_stable_and_costed_once(
        (seed, edits, script, chunk) in (
            any::<u64>(),
            1usize..12,
            prop::collection::vec((0.0f64..=1.0, 1usize..30_000), 1..8),
            1usize..9_000,
        )
    ) {
        let history: Vec<Op> = OpGen::new(seed, CHURN, 40_000).take(edits).collect();
        pinned_cursor_properties(ManagerSpec::eos(16), &history, &script, chunk);
    }

    #[test]
    fn starburst_pinned_cursor_is_stable_and_costed_once(
        (seed, edits, script, chunk) in (
            any::<u64>(),
            1usize..10,
            prop::collection::vec((0.0f64..=1.0, 1usize..30_000), 1..8),
            1usize..9_000,
        )
    ) {
        let history: Vec<Op> = OpGen::new(seed, CHURN, 40_000).take(edits).collect();
        pinned_cursor_properties(ManagerSpec::starburst(), &history, &script, chunk);
    }
}

// ---- the live cursor under seeks ------------------------------------------
//
// 7. **Live seeks**: on a tree two or more levels tall, random seek/read
//    scripts through `ObjectReader`, driven by `read` and by
//    `fill_buf`/`consume`, return the `snapshot()` bytes. Each refill
//    descends from the root parsed at open to the position asked for,
//    which property 2's whole scans, never seeking after their start,
//    would not tell from a refill that reads on from the last leaf.

fn live_cursor_follows_seeks(
    spec: ManagerSpec,
    (seed, edits): (u64, usize),
    script: &[(f64, usize)],
    chunk: usize,
) {
    let mut db = Db::new(DbConfig {
        tree: TreeConfig::tiny(4),
        ..DbConfig::default()
    });
    let mut d = Driver::new(&mut db, spec);
    // A page an append: EOS's segments double, and there are enough.
    let pages = (0..150).map(|_| Op::Append(4_096));
    d.run(
        &mut db,
        pages.chain(OpGen::new(seed, BUILD, 40_000).take(edits)),
    );
    let obj = d.obj;
    let index = obj.index_page_numbers(&db).len();
    assert!(index > 1, "{}: {index} index page", spec.label());

    let content = obj.snapshot(&db);
    let size = content.len();
    let ranges: Vec<(usize, usize)> = std::iter::once((0, size))
        .chain(script.iter().map(|&(at, len)| {
            let off = ((at * size as f64) as usize).min(size);
            (off, len.min(size - off))
        }))
        .collect();
    let want: Vec<&[u8]> = ranges
        .iter()
        .map(|&(off, len)| &content[off..off + len])
        .collect();

    let by_read = script_by_read(
        &mut ObjectReader::new(&mut db, obj.as_ref()),
        &ranges,
        chunk,
    );
    assert!(by_read == want, "read diverges from the peek reference");
    let by_fill = script_by_fill(
        &mut ObjectReader::new(&mut db, obj.as_ref()),
        &ranges,
        chunk,
    );
    assert!(
        by_fill == want,
        "fill_buf/consume diverges from the peek reference"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 100,
        ..ProptestConfig::default()
    })]

    #[test]
    fn esm_live_cursor_follows_seeks(
        (seed, edits, script, chunk) in (
            any::<u64>(),
            0usize..12,
            prop::collection::vec((0.0f64..=1.0, 1usize..100_000), 1..8),
            1usize..20_000,
        )
    ) {
        live_cursor_follows_seeks(ManagerSpec::esm(4), (seed, edits), &script, chunk);
    }

    #[test]
    fn eos_live_cursor_follows_seeks(
        (seed, edits, script, chunk) in (
            any::<u64>(),
            0usize..12,
            prop::collection::vec((0.0f64..=1.0, 1usize..100_000), 1..8),
            1usize..20_000,
        )
    ) {
        live_cursor_follows_seeks(ManagerSpec::eos(16), (seed, edits), &script, chunk);
    }
}
