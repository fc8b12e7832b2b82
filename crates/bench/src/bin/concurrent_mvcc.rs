//! Reader-scaling under writer churn (DESIGN.md §16–§17).
//!
//! The paper's engine is single-client; MVCC object versioning plus the
//! two-tier [`SharedDb`] lock add the concurrency a large-object store
//! actually needs: long-running snapshot scans (backup, export,
//! streaming reads) that proceed on the shared **read** side while
//! writers churn on the exclusive side. Three phases:
//!
//! 1. **Pinned scan, simulated cost** — per scheme, one single-threaded
//!    streaming scan of a pinned snapshot via `SharedSnapshotReader`.
//!    The simulated seconds are deterministic given the seed; `xtask
//!    bench-compare` gates them against the committed `BENCH_10.json`.
//! 2. **Snapshot reads vs writer churn** — per scheme, one concurrent
//!    reader streams the pinned snapshot (checksummed every pass)
//!    while a writer runs the balanced append/insert/delete rotation;
//!    reports reader bandwidth and the MVCC bookkeeping.
//! 3. **Reader scaling** — 1/2/4/8 concurrent scanners under writer
//!    churn, each thread count run twice over the *same* pinned cursor
//!    (`SnapshotReader`: node memo, 4 MB span window, page-direct
//!    segment reads): *serialized* takes the exclusive write tier
//!    (`SharedDb::with`) around every 16 KB chunk, window-resident or
//!    not — the old `Mutex<Db>` discipline; *concurrent* takes the
//!    shared read tier once per window refill and nothing in between.
//!    The arms differ by the lock tier and nothing else, so the
//!    aggregate MB/s ratio per thread count (the `reader.scaling_ratio`
//!    series) is what the two-tier lock buys; `bench-compare` enforces
//!    a ≥3× floor at 8 threads.
//!
//! The JSON report uses `lobstore-bench-report/v2`: v1 plus the
//! per-scheme `mvcc.*` churn series and the `reader.*` scaling series.
//! Wall-clock tables are informational; only the phase-1 simulated
//! seconds and the scaling-ratio floor are gated.

use std::io::{BufRead, Seek, SeekFrom};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lobstore_bench::{add_series, finalize, note, print_banner, print_titled_table, Scale};
use lobstore_core::{open_object, Db, DbConfig, SharedDb, SnapshotReader, StorageKind};
use lobstore_workload::ManagerSpec;

/// Bytes appended per writer append op.
const APPEND_BYTES: usize = 16 * 1024;
/// Bytes spliced in per writer insert op (near the tail, §3.5 pattern).
const INSERT_BYTES: usize = 8 * 1024;
/// Bytes removed per writer delete op (balances the rotation to ~0 net).
const DELETE_BYTES: u64 = 24 * 1024;
/// Churn-phase reader scan chunk.
const CHUNK: usize = 64 * 1024;
/// Scaling-phase scan chunk: small on purpose, so the serialized mode
/// pays one exclusive lock handoff per chunk — the cost being measured.
const SCALING_CHUNK: usize = 16 * 1024;
/// Fixed scan passes per scaling scanner (fixed work per thread).
const SCALING_PASSES: usize = 12;
/// Fixed scaling-phase object size, independent of `--mb`: small enough
/// to fit a reader's 4 MB read-ahead window. Pass 1 pays the full
/// descent + segment-read cost in both arms; later passes show the
/// design point — a pinned scanner re-reads without entering any
/// `SharedDb` lock, while the serialized discipline re-pays the
/// exclusive lock (against the writer and its sibling scanners) for
/// every chunk of every pass.
const SCALING_OBJECT_BYTES: u64 = 2 << 20;
/// Reader-thread counts swept by the scaling phase.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn pattern(len: usize, seed: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + seed * 17 + 5) % 254) as u8)
        .collect()
}

/// `SharedDb::with` with a non-blocking probe first: a failed probe is
/// a real lock wait, counted as `bench.lock_waits` in this thread's
/// registry before falling back to the blocking path.
fn with_probed<R>(shared: &SharedDb, mut f: impl FnMut(&mut Db) -> R) -> R {
    if let Some(r) = shared.try_with(&mut f) {
        return r;
    }
    lobstore_obs::counter_add("bench.lock_waits", 1);
    shared.with(f)
}

/// Build one object at `scale` (alloc-log on, checkpointed) and wrap
/// the database for sharing. Returns the shared handle, the object's
/// identity, and the built content's size and checksum.
fn build(spec: &ManagerSpec, scale: Scale) -> (SharedDb, StorageKind, u32, u64, u64) {
    let mut db = Db::new(DbConfig {
        alloc_log: true,
        ..DbConfig::default()
    });
    let mut obj = spec.create(&mut db).expect("create");
    let mut sum = 0u64;
    let mut built = 0u64;
    let mut seed = 0usize;
    while built < scale.object_bytes {
        let n = ((scale.object_bytes - built) as usize).min(256 * 1024);
        let chunk = pattern(n, seed);
        obj.append(&mut db, &chunk).expect("build");
        sum = fnv1a(sum, &chunk);
        built += n as u64;
        seed += 1;
    }
    db.checkpoint();
    let kind = obj.kind();
    let root = obj.root_page();
    (SharedDb::new(db), kind, root, built, sum)
}

/// Pre-generated churn payloads. Building them once per writer thread
/// keeps the churn loop lock-bound: each op is acquire + storage work
/// back-to-back, so serialized readers face genuine writer lock
/// occupancy rather than gaps where the writer is off building `Vec`s.
struct ChurnPats {
    append: Vec<u8>,
    insert: Vec<u8>,
}

fn churn_pats() -> ChurnPats {
    ChurnPats {
        append: pattern(APPEND_BYTES, 7),
        insert: pattern(INSERT_BYTES, 11),
    }
}

/// One balanced writer churn op (append/insert/delete rotation, net
/// size change ~0), issued through the probing write tier.
fn churn_op(
    shared: &SharedDb,
    obj: &mut Box<dyn lobstore_core::LargeObject>,
    i: usize,
    pats: &ChurnPats,
) {
    match i % 3 {
        0 => {
            with_probed(shared, |db| obj.append(db, &pats.append)).expect("append");
        }
        1 => {
            with_probed(shared, |db| {
                let size = obj.size(db);
                let off = size.saturating_sub(32 * 1024);
                obj.insert(db, off, &pats.insert)
            })
            .expect("insert");
        }
        _ => {
            with_probed(shared, |db| {
                let size = obj.size(db);
                let len = DELETE_BYTES.min(size / 2);
                if len == 0 {
                    return Ok(());
                }
                obj.delete(db, size - len, len)
            })
            .expect("delete");
        }
    }
}

fn main() {
    let scale = Scale::from_args();
    print_banner("Reader scaling: snapshot scans under writer churn", scale);
    note(&format!(
        "Pinned snapshots scanned in {} KB chunks while a writer runs churn ops \
         (append {} KB / insert {} KB / delete {} KB, balanced); every scan is checksummed. \
         The scaling phase reruns 1/2/4/8 scanners in {} KB chunks, serialized \
         (exclusive lock per chunk) vs concurrent (read tier).",
        CHUNK / 1024,
        APPEND_BYTES / 1024,
        INSERT_BYTES / 1024,
        DELETE_BYTES / 1024,
        SCALING_CHUNK / 1024,
    ));

    let specs = [
        ManagerSpec::esm(16),
        ManagerSpec::eos(16),
        ManagerSpec::starburst(),
    ];

    // ---- Phase 1 + 2: per-scheme pinned scan and churn ------------------
    let mut scan_rows = Vec::new();
    let mut churn_rows = Vec::new();
    for spec in &specs {
        let (shared, kind, root, size, expect_sum) = build(spec, scale);

        // Deterministic single-threaded pinned scan: simulated seconds
        // depend only on the seed and the cost model, never the host.
        lobstore_obs::reset();
        let sim0 = shared.with(|db| db.io_stats());
        let t0 = Instant::now();
        let mut r = shared.snapshot_reader(root).expect("pin snapshot");
        assert_eq!(r.size(), size, "snapshot pins the built size");
        let mut sum = 0u64;
        let mut got = 0u64;
        loop {
            let chunk = r.fill_buf().expect("refill");
            if chunk.is_empty() {
                break;
            }
            sum = fnv1a(sum, chunk);
            got += chunk.len() as u64;
            let n = chunk.len();
            r.consume(n);
        }
        assert_eq!(got, size, "pinned scan covers the object");
        assert_eq!(sum, expect_sum, "pinned scan diverged from built bytes");
        let wall = t0.elapsed();
        let sim = shared.with(|db| db.io_stats()) - sim0;
        r.close();
        scan_rows.push(vec![
            spec.label(),
            format!(
                "{:.1}",
                size as f64 / (1 << 20) as f64 / wall.as_secs_f64().max(1e-9)
            ),
            format!("{:.2}", sim.time_s()),
        ]);

        // Concurrent churn: pin before the writer starts, stream on the
        // read tier until the writer finishes, checksumming every pass.
        let reader_cursor = shared.snapshot_reader(root).expect("pin for churn");
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let shared = shared.clone();
            let done = done.clone();
            let ops = scale.ops;
            std::thread::spawn(move || {
                lobstore_obs::reset();
                let mut obj = with_probed(&shared, |db| open_object(db, kind, root))
                    .expect("open for writing");
                let pats = churn_pats();
                let t = Instant::now();
                for i in 0..ops {
                    churn_op(&shared, &mut obj, i, &pats);
                    let backlog = lobstore_obs::gauge_value("mvcc.deferred_pages").unwrap_or(0.0);
                    lobstore_obs::series_record("mvcc.deferred_pages", i as u64 + 1, backlog);
                }
                done.store(true, Ordering::Release);
                (
                    t.elapsed(),
                    lobstore_obs::snapshot(),
                    lobstore_obs::series_snapshot("mvcc.deferred_pages"),
                )
            })
        };
        let reader = {
            let done = done.clone();
            let mut r = reader_cursor;
            std::thread::spawn(move || {
                lobstore_obs::reset();
                let mut scans = 0u64;
                let mut bytes = 0u64;
                let t = Instant::now();
                while !done.load(Ordering::Acquire) || scans == 0 {
                    r.seek(SeekFrom::Start(0)).expect("rewind");
                    let mut sum = 0u64;
                    loop {
                        let chunk = r.fill_buf().expect("refill");
                        if chunk.is_empty() {
                            break;
                        }
                        let take = chunk.len().min(CHUNK);
                        sum = fnv1a(sum, &chunk[..take]);
                        bytes += take as u64;
                        r.consume(take);
                    }
                    assert_eq!(
                        sum, expect_sum,
                        "scan {scans} diverged from the snapshot's bytes"
                    );
                    scans += 1;
                    let mbps = bytes as f64 / (1 << 20) as f64 / t.elapsed().as_secs_f64();
                    lobstore_obs::series_record("mvcc.reader_mbps", scans, mbps);
                }
                (
                    scans,
                    bytes,
                    t.elapsed(),
                    r,
                    lobstore_obs::snapshot(),
                    lobstore_obs::series_snapshot("mvcc.reader_mbps"),
                )
            })
        };

        let (write_wall, wm, backlog_series) = writer.join().expect("writer thread");
        let (scans, bytes, read_wall, cursor, rm, rate_series) =
            reader.join().expect("reader thread");

        // Reclamation runs on this thread (the close below), churn
        // bookkeeping on the workers': fold every thread-local registry
        // into this one and read the fleet totals.
        lobstore_obs::reset();
        cursor.close();
        shared.with(|db| db.checkpoint());
        lobstore_obs::merge_thread_registry(&wm);
        lobstore_obs::merge_thread_registry(&rm);
        let m = lobstore_obs::snapshot();
        churn_rows.push(vec![
            spec.label(),
            format!(
                "{:.1}",
                bytes as f64 / (1 << 20) as f64 / read_wall.as_secs_f64().max(1e-9)
            ),
            scans.to_string(),
            format!(
                "{:.0}",
                scale.ops as f64 / write_wall.as_secs_f64().max(1e-9)
            ),
            m.counter("core.mvcc.versions_committed").to_string(),
            m.counter("core.mvcc.pages_archived").to_string(),
            m.counter("core.mvcc.frees_deferred").to_string(),
            m.counter("core.mvcc.frees_reclaimed").to_string(),
            m.counter("bench.lock_waits").to_string(),
            m.counter("core.alloclog.records").to_string(),
        ]);

        for series in [rate_series, backlog_series].into_iter().flatten() {
            add_series(&spec.label(), series);
        }
    }

    let scan_headers: Vec<String> = ["scheme", "wall MB/s", "sim s"]
        .iter()
        .map(ToString::to_string)
        .collect();
    print_titled_table("pinned snapshot scan", &scan_headers, &scan_rows);

    let churn_headers: Vec<String> = [
        "scheme",
        "reader MB/s",
        "passes",
        "writer ops/s",
        "versions",
        "archived",
        "deferred",
        "reclaimed",
        "lock waits",
        "log records",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    print_titled_table(
        "snapshot reads vs writer churn",
        &churn_headers,
        &churn_rows,
    );

    // ---- Phase 3: reader scaling sweep (EOS/16) -------------------------
    let spec = ManagerSpec::eos(16);
    let scaling_scale = Scale {
        object_bytes: SCALING_OBJECT_BYTES,
        ..scale
    };
    let (shared, kind, root, _, _) = build(&spec, scaling_scale);
    let mut scaling_rows = Vec::new();
    let mut ratio_points = Vec::new();
    for &threads in &THREAD_COUNTS {
        let (ser_mbps, ser_waits) = scaling_run(&shared, kind, root, threads, false);
        let (conc_mbps, conc_waits) = scaling_run(&shared, kind, root, threads, true);
        let ratio = conc_mbps / ser_mbps.max(1e-9);
        ratio_points.push((threads as u64, ser_mbps, conc_mbps, ratio));
        scaling_rows.push(vec![
            threads.to_string(),
            format!("{ser_mbps:.1}"),
            format!("{conc_mbps:.1}"),
            format!("{ratio:.2}x"),
            ser_waits.to_string(),
            conc_waits.to_string(),
        ]);
    }
    let scaling_headers: Vec<String> = [
        "threads",
        "serialized MB/s",
        "concurrent MB/s",
        "speedup",
        "ser waits",
        "conc waits",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    print_titled_table(
        "reader throughput by thread count (wall clock)",
        &scaling_headers,
        &scaling_rows,
    );

    lobstore_obs::reset();
    for (threads, ser, conc, ratio) in &ratio_points {
        lobstore_obs::series_record("reader.agg_mbps.serialized", *threads, *ser);
        lobstore_obs::series_record("reader.agg_mbps.concurrent", *threads, *conc);
        lobstore_obs::series_record("reader.scaling_ratio", *threads, *ratio);
    }
    for name in [
        "reader.agg_mbps.serialized",
        "reader.agg_mbps.concurrent",
        "reader.scaling_ratio",
    ] {
        if let Some(series) = lobstore_obs::series_snapshot(name) {
            add_series(&spec.label(), series);
        }
    }
    drop(shared);

    print_titled_table(
        "summary",
        &["measure".to_string(), "value".to_string()],
        &[vec![
            "speedup at 8 threads".to_string(),
            format!("{:.2}x", ratio_points.last().map_or(0.0, |p| p.3)),
        ]],
    );
    note(
        "Expected shape: serialized throughput is flat or falling with thread count (every \
         chunk pays an exclusive handoff against the writer), concurrent throughput holds, so \
         the speedup grows with threads; bench-compare enforces >= 3x at 8 threads. Scans stay \
         byte-stable while versions commit; deferred pages drain to zero after release.",
    );
    finalize();
}

/// One scaling measurement: `threads` scanners each stream the pinned
/// object `SCALING_PASSES` times under writer churn with the same
/// cursor — every chunk under the exclusive write tier when `concurrent`
/// is false (the old serialized `Mutex<Db>` discipline), refills on the
/// shared read tier when true. Returns (aggregate scanner MB/s, failed
/// lock probes).
fn scaling_run(
    shared: &SharedDb,
    kind: StorageKind,
    root: u32,
    threads: usize,
    concurrent: bool,
) -> (f64, u64) {
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let shared = shared.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            lobstore_obs::reset();
            let mut obj =
                with_probed(&shared, |db| open_object(db, kind, root)).expect("open for writing");
            let pats = churn_pats();
            let mut i = 0usize;
            while !done.load(Ordering::Acquire) {
                churn_op(&shared, &mut obj, i, &pats);
                i += 1;
            }
            lobstore_obs::snapshot()
        })
    };

    let t = Instant::now();
    let mut scanners = Vec::new();
    for _ in 0..threads {
        let shared = shared.clone();
        scanners.push(std::thread::spawn(move || {
            lobstore_obs::reset();
            let mut bytes = 0u64;
            let mut first_sum = None;
            if concurrent {
                let mut r = shared.snapshot_reader(root).expect("pin");
                for pass in 0..SCALING_PASSES {
                    r.seek(SeekFrom::Start(0)).expect("rewind");
                    let mut sum = 0u64;
                    loop {
                        let chunk = r.fill_buf().expect("refill");
                        if chunk.is_empty() {
                            break;
                        }
                        let take = chunk.len().min(SCALING_CHUNK);
                        // Checksum a prefix only: the scaling phase
                        // measures lock behavior, not hashing speed;
                        // byte-level stability is phase 2's assertion.
                        sum = fnv1a(sum, &chunk[..take.min(64)]);
                        bytes += take as u64;
                        r.consume(take);
                    }
                    assert_eq!(
                        *first_sum.get_or_insert(sum),
                        sum,
                        "pass {pass}: pinned bytes changed under churn"
                    );
                }
            } else {
                let (snap, mut r) = with_probed(&shared, |db| {
                    let snap = db.snapshot();
                    let r = SnapshotReader::new(db, &snap, root).expect("reader");
                    (snap, r)
                });
                let mut buf = vec![0u8; SCALING_CHUNK];
                for pass in 0..SCALING_PASSES {
                    r.seek(0);
                    let mut sum = 0u64;
                    loop {
                        let n = with_probed(&shared, |db| r.read(db, &mut buf));
                        if n == 0 {
                            break;
                        }
                        sum = fnv1a(sum, &buf[..n.min(64)]);
                        bytes += n as u64;
                    }
                    assert_eq!(
                        *first_sum.get_or_insert(sum),
                        sum,
                        "pass {pass}: pinned bytes changed under churn"
                    );
                }
                let mut snap = Some(snap);
                with_probed(&shared, |db| {
                    if let Some(s) = snap.take() {
                        db.release_snapshot(s);
                    }
                });
            }
            (bytes, lobstore_obs::snapshot())
        }));
    }

    let mut total_bytes = 0u64;
    let mut registries = Vec::new();
    for h in scanners {
        let (bytes, mine) = h.join().expect("scanner thread");
        total_bytes += bytes;
        registries.push(mine);
    }
    let wall = t.elapsed();
    done.store(true, Ordering::Release);
    registries.push(writer.join().expect("writer thread"));

    lobstore_obs::reset();
    for mine in &registries {
        lobstore_obs::merge_thread_registry(mine);
    }
    let waits = lobstore_obs::snapshot().counter("bench.lock_waits");
    (
        total_bytes as f64 / (1 << 20) as f64 / wall.as_secs_f64().max(1e-9),
        waits,
    )
}
